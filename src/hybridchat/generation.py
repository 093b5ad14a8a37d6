"""Facts-grounded seq2seq generator with dot-product attention.

Architecture: a 2-layer LSTM context encoder, a 2-layer LSTM facts
encoder whose per-fact hidden sequences are mean-pooled into one vector
each, and a 2-layer LSTM decoder.  At every decode step the previous
top-layer decoder state queries the concatenation of context hiddens
and fact vectors by dot product; the attention context and state are
concatenated, tanh'ed, joined with the previous output token's
embedding, and fed to the decoder stack.  The output distribution is a
softmax over a linear map of [state; attention context].

The decoder consumes the embedding of its previously emitted token in
addition to the attention input; without it the unrolled network could
not condition on the already-generated prefix.  Decoding always starts
from BOS and a bridge-mapped encoder summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import autodiff as ad
from .nncore import Linear, Model, StackedLstm, Tensor, init_uniform, no_grad
from .nncore.optim import TrainLog, train_loop
from .textcore import BOS_ID, EOS_ID, PAD_ID, UNK_ID


@dataclass
class GeneratorConfig:
    """Model shape; pipeline.PipelineConfig holds the defaults of every field."""

    vocab_size: int
    embedding_size: int
    hidden_size: int
    num_layers: int
    use_facts: bool
    dropout: float


@dataclass
class GeneratorTrainConfig:
    learning_rate: float
    lr_decay: float
    validate_every: int
    patience: int
    batch_size: int
    max_steps: int
    seed: int = 0
    target_ppl: float | None = None


class GeneratorModel(Model):
    """Embeddings, both encoders, decoder, bridge, and output projection.

    The facts encoder is always allocated (checkpoints stay layout-stable
    whether or not facts are used) but is only exercised when
    config.use_facts is set and an example actually carries facts.
    """

    kind = "generator"
    config_class = GeneratorConfig

    def __init__(self, config: GeneratorConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        V, d, H = config.vocab_size, config.embedding_size, config.hidden_size
        self.embedding = self.add_param("embedding", init_uniform(rng, (V, d)))
        self.encoder = StackedLstm(self, "encoder", d, H, config.num_layers, rng)
        self.facts_encoder = StackedLstm(self, "facts_encoder", d, H, config.num_layers, rng)
        self.decoder = StackedLstm(self, "decoder", 2 * H + d, H, config.num_layers, rng)
        self.bridge = Linear(self, "bridge", H, H, rng)
        self.out_proj = Linear(self, "out_proj", 2 * H, V, rng)


# -- batched graph forward ----------------------------------------------------


@dataclass
class EncodedBatch:
    ctx: np.ndarray          # (B, Lc) int ids
    ctx_mask: np.ndarray     # (B, Lc) float 0/1
    facts: np.ndarray        # (B, F, Lf) int ids (F may be 0)
    facts_mask: np.ndarray   # (B, F, Lf) float 0/1
    tgt_in: np.ndarray       # (B, Lt) int ids, BOS-shifted
    tgt_out: np.ndarray      # (B, Lt) int ids, ends with EOS
    tgt_mask: np.ndarray     # (B, Lt) float 0/1

    @property
    def n_target_tokens(self) -> int:
        return int(self.tgt_mask.sum())


def make_batch(examples: list[tuple[list[int], list[list[int]], list[int]]]) -> EncodedBatch:
    """Pad encoded (context, facts, target-with-EOS) triples into arrays."""
    if not examples:
        raise ValueError("empty batch")
    B = len(examples)
    lc = max(len(e[0]) for e in examples)
    nf = max((len(e[1]) for e in examples), default=0)
    lf = max((len(f) for e in examples for f in e[1]), default=0)
    lt = max(len(e[2]) for e in examples)
    if lc == 0:
        raise ValueError("batch contains an empty context")
    if lt == 0:
        raise ValueError("batch contains an empty target")
    ctx = np.full((B, lc), PAD_ID, dtype=np.int64)
    ctx_mask = np.zeros((B, lc))
    facts = np.full((B, nf, lf), PAD_ID, dtype=np.int64)
    facts_mask = np.zeros((B, nf, lf))
    tgt_in = np.full((B, lt), PAD_ID, dtype=np.int64)
    tgt_out = np.full((B, lt), PAD_ID, dtype=np.int64)
    tgt_mask = np.zeros((B, lt))
    for i, (c, fs, t) in enumerate(examples):
        ctx[i, : len(c)] = c
        ctx_mask[i, : len(c)] = 1.0
        for j, f in enumerate(fs):
            if not f:
                continue
            facts[i, j, : len(f)] = f
            facts_mask[i, j, : len(f)] = 1.0
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1: len(t)] = t[:-1]
        tgt_out[i, : len(t)] = t
        tgt_mask[i, : len(t)] = 1.0
    return EncodedBatch(ctx, ctx_mask, facts, facts_mask, tgt_in, tgt_out, tgt_mask)


def _run_encoder(model: GeneratorModel, encoder: StackedLstm, ids: np.ndarray) -> list[Tensor]:
    """Unroll an encoder over (N, L) ids; returns the top-layer hidden of every step.

    States run on through padding: a row's hiddens past its length are
    computed but mean nothing.  Callers read them only through a mask (the
    facts' masked mean, attention's column mask) or skip them (the context
    summary is gathered at each row's length by _hidden_at_length).
    """
    states = encoder.zero_state(ids.shape[0])
    tops = []
    for t in range(ids.shape[1]):
        top, states = encoder.step(ad.embedding(model.embedding, ids[:, t]), states)
        tops.append(top)
    return tops


def _hidden_at_length(seq: Tensor, mask: np.ndarray) -> Tensor:
    """Each row's hidden at its last real step: (B, L, H) -> (B, H) by one row gather.

    mask is make_batch's (B, L) 0/1 prefix mask, so a row's length is its sum.
    """
    B, L, H = seq.shape
    last = np.arange(B) * L + mask.sum(axis=1).astype(np.int64) - 1
    return ad.embedding(ad.reshape(seq, (B * L, H)), last)


def _fact_vectors(model: GeneratorModel, facts: np.ndarray, facts_mask: np.ndarray):
    """Mean-pooled fact vectors (B, F, H) and a (B, F) presence mask.

    Only fact slots with at least one token run through the facts encoder;
    make_batch pads every example to the batch's fact count, and the
    padded slots would only be masked out again.  Their means are
    scattered back by a row gather from a table whose row 0 is zeros, the
    vector of every absent slot.  Needs at least one present slot, which
    facts.size > 0 implies for a make_batch batch.
    """
    B, F, Lf = facts.shape
    H = model.config.hidden_size
    flat_mask = facts_mask.reshape(B * F, Lf)
    counts = flat_mask.sum(axis=1)
    rows = np.flatnonzero(counts > 0)
    mask = flat_mask[rows]
    seq = ad.stack(_run_encoder(model, model.facts_encoder, facts.reshape(B * F, Lf)[rows]),
                   axis=1)                                # (R, Lf, H)
    mean = ad.sum_(seq * Tensor(mask[:, :, None]), axis=1) * Tensor(1.0 / counts[rows, None])
    table = ad.concat([Tensor(np.zeros((1, H))), mean], axis=0)
    slot = np.zeros(B * F, dtype=np.int64)
    slot[rows] = np.arange(1, rows.size + 1)
    fbar = ad.embedding(table, slot.reshape(B, F))
    present = (counts > 0).reshape(B, F).astype(np.float64)
    return fbar, present


def _encode_for_decoding(model: GeneratorModel, batch: EncodedBatch):
    """Shared encoder work: E columns, their mask, the initial decoder state
    and the first attention context (the initial top state's query over E).

    The context summary is each row's top hidden at its length
    (_hidden_at_length); the fact vectors come from _fact_vectors when the
    model uses facts and the batch has any.
    """
    B = batch.ctx.shape[0]
    H = model.config.hidden_size
    ctx_seq = ad.stack(_run_encoder(model, model.encoder, batch.ctx), axis=1)   # (B, Lc, H)
    ctx_final = _hidden_at_length(ctx_seq, batch.ctx_mask)
    use_facts = model.config.use_facts and batch.facts.size > 0
    if use_facts:
        fbar, present = _fact_vectors(model, batch.facts, batch.facts_mask)
        e_cols = ad.concat([ctx_seq, fbar], axis=1)
        col_mask = np.concatenate([batch.ctx_mask, present], axis=1)
        n_facts = present.sum(axis=1)
        inv = np.where(n_facts > 0, 1.0 / np.maximum(n_facts, 1.0), 0.0)
        fact_avg = ad.sum_(fbar * Tensor(present[:, :, None]), axis=1) * Tensor(inv[:, None])
        summary = ctx_final + fact_avg
    else:
        e_cols = ctx_seq
        col_mask = batch.ctx_mask.copy()
        summary = ctx_final
    s0 = model.bridge(ad.tanh(summary))                  # (B, H)
    zeros = Tensor(np.zeros((B, H)))
    states = [(s0, zeros) for _ in range(model.config.num_layers)]
    _, att = ad.dot_attention(e_cols, col_mask, s0)
    return e_cols, col_mask, states, att


def _decoder_step(model: GeneratorModel, e_cols: Tensor, col_mask: np.ndarray, states,
                  att: Tensor, y_prev: np.ndarray, dropout: float = 0.0,
                  rng: np.random.Generator | None = None):
    """Advance the decoder one token; returns (logits (B, V), new states, new attention).

    The stack's input is tanh([h_top; att]) joined with y_prev's embedding;
    the new top hidden queries E, and [h_top; att] (feature dropout when
    dropout > 0) is projected to the vocabulary.  Training and decoding
    both step through here.
    """
    v = ad.tanh(ad.concat([states[-1][0], att], axis=1))
    x = ad.concat([v, ad.embedding(model.embedding, y_prev)], axis=1)
    top, states = model.decoder.step(x, states, dropout_rate=dropout, rng=rng,
                                     training=dropout > 0.0)
    _, att = ad.dot_attention(e_cols, col_mask, top)
    feats = ad.concat([top, att], axis=1)
    if dropout > 0.0:
        feats = ad.dropout(feats, dropout, rng, training=True)
    return model.out_proj(feats), states, att


def nll_loss(model: GeneratorModel, batch: EncodedBatch, training: bool = False,
             rng: np.random.Generator | None = None):
    """Teacher-forced negative log-likelihood.

    Mean over the examples of the batch, sum over time steps within each
    example; PAD target positions are masked out.  Returns (scalar tensor,
    number of real target tokens) so callers can derive per-token
    perplexity.  Decoder states of a row run on past its last target; they
    feed only loss terms that the target mask zeroes.
    """
    B, Lt = batch.tgt_in.shape
    dropout = model.config.dropout if training else 0.0
    e_cols, col_mask, states, att = _encode_for_decoding(model, batch)
    total = None
    for t in range(Lt):
        logits, states, att = _decoder_step(model, e_cols, col_mask, states, att,
                                            batch.tgt_in[:, t], dropout, rng)
        nll_t = ad.cross_entropy_logits(logits, batch.tgt_out[:, t])
        step_loss = ad.sum_(nll_t * Tensor(batch.tgt_mask[:, t]))
        total = step_loss if total is None else total + step_loss
    return total * (1.0 / B), batch.n_target_tokens


@dataclass
class DecoderState:
    """Stacked decoder LSTM states plus the cached attention context."""

    layers: list[tuple[np.ndarray, np.ndarray]]   # [(h (B,H), c (B,H)), ...]
    att: np.ndarray                               # (B, H)

    def reindex(self, rows: np.ndarray) -> "DecoderState":
        return DecoderState([(h[rows], c[rows]) for h, c in self.layers], self.att[rows])


class DecodingSession:
    """Frozen-model decoding for one context: holds E and steps hypotheses.

    Steps run without gradient tape; states are plain arrays so beam rows
    can be gathered and pruned cheaply.
    """

    def __init__(self, model: GeneratorModel, ctx_ids: list[int],
                 facts_ids: list[list[int]] | None = None):
        if not ctx_ids:
            raise ValueError("cannot decode from an empty context")
        facts_ids = [f for f in (facts_ids or []) if f]
        if not model.config.use_facts:
            facts_ids = []
        self.model = model
        example = (list(ctx_ids), facts_ids, [EOS_ID])
        batch = make_batch([example])
        with no_grad():
            e_cols, col_mask, states, att = _encode_for_decoding(model, batch)
        self.e_cols = e_cols.data
        self.col_mask = col_mask
        self._init_state = DecoderState(
            [(h.data.copy(), c.data.copy()) for h, c in states], att.data.copy()
        )

    def initial_state(self) -> DecoderState:
        return self._init_state

    def step(self, state: DecoderState, y_prev: np.ndarray):
        """Advance a batch of hypothesis rows one token.

        y_prev holds each row's previously emitted token (BOS to start).
        Returns (distributions (B, V), new state); the distribution is the
        model's next-token softmax for each row.
        """
        y_prev = np.atleast_1d(np.asarray(y_prev, dtype=np.int64))
        B = y_prev.shape[0]
        e = Tensor(np.broadcast_to(self.e_cols, (B,) + self.e_cols.shape[1:]))
        mask = np.broadcast_to(self.col_mask, (B, self.col_mask.shape[1]))
        with no_grad():
            states = [(Tensor(h), Tensor(c)) for h, c in state.layers]
            logits, states, att = _decoder_step(self.model, e, mask, states, Tensor(state.att),
                                                y_prev)
            probs = ad.softmax(logits, axis=-1)
        return probs.data, DecoderState([(h.data, c.data) for h, c in states], att.data)


@dataclass
class Hypothesis:
    tokens: tuple
    log_likelihood: float
    length: int            # normalization length: tokens emitted incl. EOS

    @property
    def score(self) -> float:
        return self.log_likelihood / self.length


def beam_search(model: GeneratorModel, ctx_ids: list[int], facts_ids: list[list[int]] | None,
                beam_size: int, max_len: int) -> list[tuple[list[int], float]]:
    """Length-normalized beam search.

    Expands breadth-first keeping the beam_size best unfinished hypotheses
    per step by accumulated log-likelihood; a hypothesis finishes on EOS or
    when max_len tokens are reached.  Pruning is exact top-k: every row's
    EOS extension with finite log-likelihood finishes, and the survivors are
    the first beam_size non-EOS extensions in (-ll, row, token) order.
    Finished hypotheses are ranked by log-likelihood divided by
    emitted-token count (EOS included, BOS not).
    PAD, UNK, and BOS are never proposed.  Returns (token ids, score) pairs,
    best first; EOS is stripped from the returned ids.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    session = DecodingSession(model, ctx_ids, facts_ids)
    banned = np.array([PAD_ID, UNK_ID, BOS_ID])
    live_tokens: list[tuple] = [()]
    live_ll = np.zeros(1)
    state = session.initial_state()
    finished: list[Hypothesis] = []
    for step_idx in range(1, max_len + 1):
        y_prev = np.array([t[-1] if t else BOS_ID for t in live_tokens], dtype=np.int64)
        probs, new_state = session.step(state, y_prev)
        with np.errstate(divide="ignore"):
            logp = np.log(probs)
        logp[:, banned] = -np.inf
        total = live_ll[:, None] + logp                      # (B, V)
        eos = total[:, EOS_ID]
        for row in np.argsort(-eos, kind="stable"):
            if eos[row] == -np.inf:
                break
            finished.append(Hypothesis(live_tokens[row], float(eos[row]), step_idx))
        total[:, EOS_ID] = -np.inf
        neg = -total.ravel()
        kth = min(beam_size, neg.size) - 1
        cand = np.flatnonzero(neg <= np.partition(neg, kth)[kth])
        picked = cand[np.argsort(neg[cand], kind="stable")[:beam_size]]
        picked = picked[neg[picked] < np.inf]
        rows, tok_ids = np.divmod(picked, total.shape[1])
        next_tokens = [live_tokens[r] + (t,) for r, t in zip(rows.tolist(), tok_ids.tolist())]
        if not next_tokens:
            break
        live_tokens = next_tokens
        live_ll = -neg[picked]
        state = new_state.reindex(rows)
    else:
        for toks, ll in zip(live_tokens, live_ll):
            finished.append(Hypothesis(toks, float(ll), len(toks)))
    ranked = sorted(finished, key=lambda h: (-h.score, h.tokens))
    return [(list(h.tokens), h.score) for h in ranked]


# -- training -------------------------------------------------------------------


def perplexity(model: GeneratorModel, examples, batch_size: int = 64) -> float:
    """Per-token perplexity of encoded (ctx, facts, target) triples."""
    total_nll = 0.0
    total_tok = 0
    with no_grad():
        for start in range(0, len(examples), batch_size):
            batch = make_batch(examples[start: start + batch_size])
            loss, n_tok = nll_loss(model, batch, training=False)
            total_nll += float(loss.data) * batch.ctx.shape[0]
            total_tok += n_tok
    return float(np.exp(total_nll / max(total_tok, 1)))


def train_generator(
    model: GeneratorModel,
    train_examples: list[tuple[list[int], list[list[int]], list[int]]],
    valid_examples: list[tuple[list[int], list[list[int]], list[int]]],
    tcfg: GeneratorTrainConfig,
    vocab_hash: str = "",
    ckpt_path: str | None = None,
) -> TrainLog:
    """train_loop on the teacher-forced NLL with clipped gradients.

    Validates on per-token perplexity (of the training examples when there
    are no validation examples), decays the learning rate by tcfg.lr_decay
    on a miss, and stops early below tcfg.target_ppl.
    """
    if not train_examples:
        raise ValueError("no training examples")

    def batch_loss(picks, rng):
        batch = make_batch([train_examples[i] for i in picks])
        return nll_loss(model, batch, training=True, rng=rng)[0]

    return train_loop(model, len(train_examples), tcfg, batch_loss,
                      lambda: perplexity(model, valid_examples or train_examples), "valid_ppl",
                      lr_decay=tcfg.lr_decay, target=tcfg.target_ppl, clip=True,
                      vocab_hash=vocab_hash, ckpt_path=ckpt_path)
