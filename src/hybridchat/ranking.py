"""Candidate re-ranking: interaction matrix, CNN scorer, distant supervision.

A context/candidate pair becomes a fixed 30x30 grid of embedding dot
products; alternating valid convolution + non-overlapping max pooling
stages feed an MLP that emits one matching score.  Training is pairwise:
candidate pools are labeled by comparing each candidate to the ground
truth with an automatic metric, and a margin hinge loss pushes positive
candidates above negative ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .metrics import GENERATED, RETRIEVED, SIGNALS
from .nncore import autodiff as ad
from .nncore import Linear, Model, Tensor, init_uniform, no_grad
from .nncore.optim import TrainLog, train_loop
from .textcore import PAD_ID, Vocabulary, encode

logger = logging.getLogger(__name__)


@dataclass
class RankerConfig:
    """Model shape; pipeline.PipelineConfig holds the defaults of every field."""

    vocab_size: int
    embedding_size: int
    matrix_size: int
    conv_kernels: int
    conv_window: tuple
    pool_window: tuple
    conv_stages: int
    mlp_hidden: int
    dropout: float


@dataclass
class RankerTrainConfig:
    learning_rate: float
    batch_size: int
    validate_every: int
    patience: int
    max_steps: int
    margin: float
    l2_coeff: float
    seed: int = 0
    target_accuracy: float | None = None


class RankerModel(Model):
    """Embeddings, convolution stages, and the scoring MLP.

    Stage shapes are checked at build time: every convolution needs at
    least one full window, and so does every pooling step.
    """

    kind = "ranker"
    config_class = RankerConfig

    def __init__(self, config: RankerConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        V, d = config.vocab_size, config.embedding_size
        self.embedding = self.add_param("embedding", init_uniform(rng, (V, d)))
        kh, kw = config.conv_window
        ph, pw = config.pool_window
        self.conv_kernels = []
        self.conv_biases = []
        size_h = size_w = config.matrix_size
        channels = 1
        for stage in range(config.conv_stages):
            if size_h < kh or size_w < kw:
                raise ValueError(
                    f"stage {stage}: map {size_h}x{size_w} smaller than conv window {kh}x{kw}"
                )
            k = self.add_param(
                f"conv{stage}.w",
                init_uniform(rng, (config.conv_kernels, channels, kh, kw)),
            )
            b = self.add_param(f"conv{stage}.b", np.zeros(config.conv_kernels))
            self.conv_kernels.append(k)
            self.conv_biases.append(b)
            size_h, size_w = size_h - kh + 1, size_w - kw + 1
            if size_h < ph or size_w < pw:
                raise ValueError(
                    f"stage {stage}: map {size_h}x{size_w} smaller than pool window {ph}x{pw}"
                )
            size_h, size_w = size_h // ph, size_w // pw
            channels = config.conv_kernels
        self.feature_size = channels * size_h * size_w
        self.hidden = Linear(self, "mlp.hidden", self.feature_size, config.mlp_hidden, rng)
        self.out = Linear(self, "mlp.out", config.mlp_hidden, 1, rng)


def pad_ids(ids: list[int], size: int) -> np.ndarray:
    out = np.full(size, PAD_ID, dtype=np.int64)
    clipped = ids[:size]
    out[: len(clipped)] = clipped
    return out


def _interaction_graph(model: RankerModel, ctx: np.ndarray, cand: np.ndarray) -> Tensor:
    """(B, L) id arrays -> masked dot-product grids (B, 1, L, L)."""
    u = ad.embedding(model.embedding, ctx)                       # (B, L, d)
    y = ad.embedding(model.embedding, cand)                      # (B, L, d)
    m = ad.matmul(u, ad.transpose(y, (0, 2, 1)))                 # (B, L, L)
    mask = (ctx != PAD_ID)[:, :, None] & (cand != PAD_ID)[:, None, :]
    m = m * Tensor(mask.astype(np.float64))
    B, L, _ = m.shape
    return ad.reshape(m, (B, 1, L, L))


def _cnn_graph(model: RankerModel, grid: Tensor) -> Tensor:
    """Alternate convolution (ReLU) and max pooling, then flatten."""
    x = grid
    ph, pw = model.config.pool_window
    for kernel, bias in zip(model.conv_kernels, model.conv_biases):
        conv = ad.conv2d_valid(x, kernel) + ad.reshape(bias, (1, -1, 1, 1))
        x = ad.max_pool2d(ad.relu(conv), ph, pw)
    B = x.shape[0]
    return ad.reshape(x, (B, -1))


def score_batch(model: RankerModel, ctx: np.ndarray, cand: np.ndarray,
                training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Matching scores for (B, L) context/candidate id arrays."""
    feats = _cnn_graph(model, _interaction_graph(model, ctx, cand))
    if training and model.config.dropout > 0.0:
        feats = ad.dropout(feats, model.config.dropout, rng, training=True)
    hidden = ad.relu(model.hidden(feats))
    return ad.reshape(model.out(hidden), (-1,))


def hinge_loss(pos_scores: Tensor, neg_scores: Tensor, margin: float,
               l2_coeff: float = 0.0, params: dict | None = None) -> Tensor:
    """Sum of max(0, margin - s+ + s-) over triples plus l2_coeff * ||params||^2.

    The subgradient at the kink (margin exactly met) is zero.
    """
    total = ad.sum_(ad.relu(margin - pos_scores + neg_scores))
    if l2_coeff > 0.0 and params:
        for p in params.values():
            total = total + l2_coeff * ad.sum_(p * p)
    return total


# -- candidate pools and distant supervision -----------------------------------


@dataclass
class Candidate:
    """One pool member: token sequence plus where it came from."""

    tokens: list[str]
    provenance: str              # "generated" | "retrieved"
    rank: int = 0                # retrieval rank (1-based); 0 for generated
    origin_score: float = 0.0    # BM25 score or normalized beam score

    def sort_key(self):
        # generated first, then ascending retrieval rank
        return (0 if self.provenance == GENERATED else 1, self.rank)


@dataclass
class CandidateSet:
    """The mixed pool for one context: one generated + up to K retrieved."""

    context: list[str]
    candidates: list[Candidate]
    ground_truth: list[str] | None = None

    def validate(self) -> None:
        n_gen = sum(1 for c in self.candidates if c.provenance == GENERATED)
        if n_gen > 1:
            raise ValueError(f"pool holds {n_gen} generated candidates, expected at most 1")
        for c in self.candidates:
            if c.provenance not in (GENERATED, RETRIEVED):
                raise ValueError(f"unknown provenance {c.provenance!r}")


@dataclass
class SupervisionConfig:
    """How distant labels and training triples are built."""

    signal: str                  # bleu1 | bleu2 | rougel | sentbleu
    k_prime: int

    def __post_init__(self):
        if self.signal not in SIGNALS:
            raise ValueError(f"unknown supervision signal {self.signal!r}")
        if self.k_prime < 1:
            raise ValueError(f"k_prime must be >= 1, got {self.k_prime}")


@dataclass
class TrainingTriple:
    context: list[str]
    positive: list[str]
    negative: list[str]


def make_distant_labels(
    pool: CandidateSet,
    ground_truth: list[str],
    config: SupervisionConfig,
) -> tuple[list[Candidate], list[Candidate]]:
    """Split a pool into top-k' positives and the rest by metric score.

    Candidates are compared to the ground truth under config.signal; ties
    break by provenance (generated first, then retrieval rank).  Raises when
    the pool is not strictly larger than k'.
    """
    if len(pool.candidates) <= config.k_prime:
        raise ValueError(
            f"pool of {len(pool.candidates)} cannot yield {config.k_prime} positives "
            "and at least one negative"
        )
    signal = SIGNALS[config.signal]
    scored = [(signal(c.tokens, ground_truth), c) for c in pool.candidates]
    scored.sort(key=lambda item: (-item[0],) + item[1].sort_key())
    ranked = [c for _, c in scored]
    return ranked[: config.k_prime], ranked[config.k_prime:]


def make_training_triples(
    context: list[str],
    ground_truth: list[str],
    positives: list[Candidate],
    negatives: list[Candidate],
    k_prime: int,
) -> list[TrainingTriple]:
    """Cross product of the positive set and the negatives.

    The positive set is the ground-truth response plus the k'-1 best
    distant positives (for k'=1 it is the ground truth alone).  Contexts
    with no negatives are skipped with a warning.
    """
    if not negatives:
        logger.warning("no negative candidates for context %r; skipped", " ".join(context))
        return []
    pos_seqs = [list(ground_truth)] + [list(p.tokens) for p in positives[: k_prime - 1]]
    return [
        TrainingTriple(list(context), pos, list(n.tokens))
        for pos in pos_seqs
        for n in negatives
    ]


# -- re-ranking -----------------------------------------------------------------


@dataclass
class RankedPool:
    """Scored pool, best first, with the chosen response split out."""

    chosen: Candidate
    ranked: list[Candidate]
    scores: list[float]


def rerank(model: RankerModel, vocab: Vocabulary, pool: CandidateSet) -> RankedPool:
    """Order a pool by matching score; ties prefer generated, then low rank."""
    if not pool.candidates:
        raise ValueError("cannot rerank an empty candidate pool")
    pool.validate()
    L = model.config.matrix_size
    ctx = pad_ids(encode(pool.context, vocab, max_len=L), L)
    ctx_arr = np.broadcast_to(ctx, (len(pool.candidates), L))
    cand_arr = np.stack([
        pad_ids(encode(c.tokens, vocab, max_len=L), L) for c in pool.candidates
    ])
    with no_grad():
        scores = score_batch(model, ctx_arr, cand_arr).data
    order = sorted(
        range(len(pool.candidates)),
        key=lambda i: (-scores[i],) + pool.candidates[i].sort_key(),
    )
    ranked = [pool.candidates[i] for i in order]
    return RankedPool(chosen=ranked[0], ranked=ranked, scores=[float(scores[i]) for i in order])


# -- training --------------------------------------------------------------------


def encode_triples(triples: list[TrainingTriple], vocab: Vocabulary, size: int):
    """Triples -> (ctx, pos, neg) id arrays of shape (N, size)."""
    ctx = np.stack([pad_ids(encode(t.context, vocab, max_len=size), size) for t in triples])
    pos = np.stack([pad_ids(encode(t.positive, vocab, max_len=size), size) for t in triples])
    neg = np.stack([pad_ids(encode(t.negative, vocab, max_len=size), size) for t in triples])
    return ctx, pos, neg


def pairwise_accuracy(model: RankerModel, arrays, batch_size: int = 256) -> float:
    """Fraction of triples whose positive outscores its negative."""
    ctx, pos, neg = arrays
    hits = 0
    with no_grad():
        for start in range(0, ctx.shape[0], batch_size):
            sl = slice(start, start + batch_size)
            sp = score_batch(model, ctx[sl], pos[sl]).data
            sn = score_batch(model, ctx[sl], neg[sl]).data
            hits += int((sp > sn).sum())
    return hits / ctx.shape[0]


def train_ranker(
    model: RankerModel,
    triples: list[TrainingTriple],
    valid_triples: list[TrainingTriple],
    vocab: Vocabulary,
    tcfg: RankerTrainConfig,
    vocab_hash: str = "",
    ckpt_path: str | None = None,
) -> TrainLog:
    """train_loop on the pairwise hinge objective, without clipping.

    Validates on held-out pairwise accuracy (maximised; of the training
    triples when there are no held-out ones), halves the learning rate on
    a miss, and stops early at tcfg.target_accuracy.  Dropout is applied
    to the MLP input during training only.
    """
    if not triples:
        raise ValueError("no training triples")
    if tcfg.margin <= 0.0:
        raise ValueError(f"margin must be positive, got {tcfg.margin}")
    if tcfg.l2_coeff < 0.0:
        raise ValueError(f"l2 coefficient must be >= 0, got {tcfg.l2_coeff}")
    size = model.config.matrix_size
    train_arrays = encode_triples(triples, vocab, size)
    valid_arrays = encode_triples(valid_triples or triples, vocab, size)

    def batch_loss(picks, rng):
        ctx, pos, neg = (a[picks] for a in train_arrays)
        sp = score_batch(model, ctx, pos, training=True, rng=rng)
        sn = score_batch(model, ctx, neg, training=True, rng=rng)
        return hinge_loss(sp, sn, tcfg.margin, tcfg.l2_coeff, model.params)

    return train_loop(model, len(triples), tcfg, batch_loss,
                      lambda: pairwise_accuracy(model, valid_arrays), "valid_accuracy",
                      lr_decay=0.5, target=tcfg.target_accuracy, maximize=True,
                      vocab_hash=vocab_hash, ckpt_path=ckpt_path)
