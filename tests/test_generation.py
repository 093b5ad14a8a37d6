import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

from hybridchat.generation import (
    DecodingSession,
    GeneratorConfig,
    GeneratorModel,
    GeneratorTrainConfig,
    Hypothesis,
    _encode_for_decoding,
    _fact_vectors,
    _hidden_at_length,
    _run_encoder,
    beam_search,
    make_batch,
    nll_loss,
    perplexity,
    train_generator,
)
from hybridchat.nncore import (
    Parameter,
    Tensor,
    grad_check,
    layers,
    load_checkpoint,
    lstm_step,
    no_grad,
    save_checkpoint,
)
from hybridchat.nncore import autodiff as ad
from hybridchat.nncore.optim import EarlyStopping
from hybridchat.textcore import BOS_ID, EOS_ID, PAD_ID, UNK_ID

from .test_nncore import interior_nodes, reference_lstm_step


def gen_config(vocab, emb, hidden, use_facts=True, dropout=0.0):
    return GeneratorConfig(vocab, embedding_size=emb, hidden_size=hidden, num_layers=2,
                           use_facts=use_facts, dropout=dropout)


def train_config(**kwargs):
    return GeneratorTrainConfig(**{"lr_decay": 0.5, "patience": 10, **kwargs})


def small_model(vocab=12, emb=6, hidden=5, use_facts=True, seed=0):
    return GeneratorModel(gen_config(vocab, emb, hidden, use_facts), np.random.default_rng(seed))


def context_hiddens(model, ids):
    """Top-layer context hiddens (L, H) and the final hidden (H,) of one context."""
    batch = make_batch([(ids, [], [EOS_ID])])
    with no_grad():
        seq = ad.stack(_run_encoder(model, model.encoder, batch.ctx), axis=1)
        final = _hidden_at_length(seq, batch.ctx_mask)
    return seq.data[0], final.data[0]


def fact_vectors(model, facts):
    """Mean-pooled (F, H) fact vectors of one example, as make_batch pads them."""
    batch = make_batch([([4], facts, [EOS_ID])])
    with no_grad():
        fbar, _ = _fact_vectors(model, batch.facts, batch.facts_mask)
    return fbar.data[0]


def initial_state(model, ctx, facts):
    """Initial top-layer decoder state s0 of one example."""
    with no_grad():
        _, _, states, _ = _encode_for_decoding(model, make_batch([(ctx, facts, [EOS_ID])]))
    return states[-1][0].data[0]


def attend(e_matrix, s_prev):
    """Weights, context and tanh features of one query over the (H, C) columns."""
    e_cols = Tensor(np.asarray(e_matrix, dtype=np.float64).T[None])
    s = Tensor(np.asarray(s_prev, dtype=np.float64)[None])
    with no_grad():
        weights, context = ad.dot_attention(e_cols, np.ones((1, e_cols.shape[1])), s)
        features = ad.tanh(ad.concat([s, context], axis=1))
    return weights.data[0], context.data[0], features.data[0]


def step_one(session, state, y_prev):
    """One DecodingSession.step for a single hypothesis row."""
    probs, new_state = session.step(state, np.asarray([y_prev]))
    return probs[0], new_state


class TestEncodeContext:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DecodingSession(small_model(), [])
        with pytest.raises(ValueError):
            make_batch([([], [], [EOS_ID])])

    def test_length_one_equals_single_lstm_steps(self):
        model = small_model()
        hidden, final = context_hiddens(model, [4])
        with no_grad():
            x = Tensor(model.embedding.data[[4]])
            h0, c0 = model.encoder.cells[0].zero_state(1)
            h1, _ = lstm_step(model.encoder.cells[0], x, h0, c0)
            h0b, c0b = model.encoder.cells[1].zero_state(1)
            h2, _ = lstm_step(model.encoder.cells[1], h1, h0b, c0b)
        np.testing.assert_allclose(hidden[0], h2.data[0], atol=1e-15)
        np.testing.assert_array_equal(hidden[-1], final)

    def test_prefix_property(self):
        model = small_model()
        ids = [4, 7, 5, 9, 6]
        full, _ = context_hiddens(model, ids)
        for k in (1, 2, 4):
            prefix, _ = context_hiddens(model, ids[:k])
            np.testing.assert_array_equal(full[:k], prefix)

    def test_zero_weights_give_zero_hidden(self):
        model = small_model()
        model.set_zero()
        hidden, _ = context_hiddens(model, [4, 5, 6])
        np.testing.assert_allclose(hidden, 0.0, atol=1e-15)

    def test_padded_batch_gathers_each_rows_hidden_at_its_length(self):
        model = small_model(seed=3)
        contexts = [[4, 5], [6, 7, 8, 9, 10], [11], [4, 6, 8]]
        batch = make_batch([(c, [], [EOS_ID]) for c in contexts])
        with no_grad():
            tops = _run_encoder(model, model.encoder, batch.ctx)
            final = _hidden_at_length(ad.stack(tops, axis=1), batch.ctx_mask)
        for row, ctx in enumerate(contexts):
            assert (final.data[row] == tops[len(ctx) - 1].data[row]).all()


class TestEncodeFacts:
    def test_mean_of_one_is_the_hidden_vector(self):
        model = small_model()
        vectors = fact_vectors(model, [[7]])
        with no_grad():
            x = Tensor(model.embedding.data[[7]])
            h0, c0 = model.facts_encoder.cells[0].zero_state(1)
            h1, _ = lstm_step(model.facts_encoder.cells[0], x, h0, c0)
            h0b, c0b = model.facts_encoder.cells[1].zero_state(1)
            h2, _ = lstm_step(model.facts_encoder.cells[1], h1, h0b, c0b)
        np.testing.assert_allclose(vectors[0], h2.data[0], atol=1e-15)

    def test_duplicate_fact_gives_identical_vectors(self):
        vectors = fact_vectors(small_model(), [[4, 5], [4, 5]])
        assert vectors.shape[0] == 2
        np.testing.assert_array_equal(vectors[0], vectors[1])

    def test_zero_facts(self):
        session = DecodingSession(small_model(), [4, 5], [])
        assert session.e_cols.shape[1] == 2        # context columns only

    def test_empty_fact_skipped(self):
        model = small_model()
        skipped = DecodingSession(model, [4, 5], [[], [4]])
        alone = DecodingSession(model, [4, 5], [[4]])
        assert skipped.e_cols.shape[1] == 3
        np.testing.assert_array_equal(skipped.e_cols, alone.e_cols)


class TestAttentionStep:
    def test_identical_columns_uniform(self):
        col = np.array([0.3, -0.8])
        e = np.stack([col, col, col], axis=1)
        a, c, v = attend(e, np.array([0.5, 1.0]))
        np.testing.assert_allclose(a, [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(c, col, atol=1e-12)

    def test_single_column(self):
        e = np.array([[1.5], [-0.2]])
        a, c, _ = attend(e, np.array([0.1, 0.9]))
        np.testing.assert_allclose(a, [1.0], atol=1e-15)
        np.testing.assert_allclose(c, e[:, 0], atol=1e-15)

    def test_identity_columns_closed_form(self):
        # E = I2, s = (ln2, 0): a = softmax((ln2, 0)) = (2/3, 1/3); c = E a = a
        e = np.eye(2)
        s = np.array([math.log(2.0), 0.0])
        a, c, v = attend(e, s)
        np.testing.assert_allclose(a, [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(c, [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(v, np.tanh(np.concatenate([s, c])), atol=1e-15)

    def test_features_strictly_inside_unit_box(self):
        rng = np.random.default_rng(3)
        _, _, v = attend(rng.normal(size=(4, 6)), rng.normal(size=4))
        assert np.all(np.abs(v) < 1.0)

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            attend(np.zeros((3, 0)), np.zeros(3))


class TestDecoderInit:
    def test_no_facts_uses_context_summary_only(self):
        model = small_model()
        _, final = context_hiddens(model, [4, 5])
        s0 = initial_state(model, [4, 5], [])
        want = np.tanh(final) @ model.bridge.w.data + model.bridge.b.data
        np.testing.assert_allclose(s0, want, atol=1e-12)

    def test_zero_inputs_give_bridge_bias(self):
        model = small_model()
        w = model.bridge.w.data.copy()
        model.set_zero()                  # zero encoders: zero final state and fact vector
        model.bridge.w.data[...] = w      # keep the bridge weights: the summary must be zero
        model.bridge.b.data[...] = np.arange(model.config.hidden_size) * 0.1
        s0 = initial_state(model, [4, 5], [[6]])
        np.testing.assert_allclose(s0, model.bridge.b.data, atol=1e-15)

    def test_identity_bridge_scalar_case(self):
        model = GeneratorModel(gen_config(6, 3, 1), np.random.default_rng(0))
        model.bridge.w.data[...] = 1.0
        model.bridge.b.data[...] = 0.0
        _, final = context_hiddens(model, [4])
        fact = fact_vectors(model, [[5]])[0]
        s0 = initial_state(model, [4], [[5]])
        assert s0[0] == pytest.approx(math.tanh(final[0] + fact[0]), abs=1e-12)


class TestDecodeStep:
    def test_zero_model_uniform(self):
        model = small_model()
        model.set_zero()
        session = DecodingSession(model, [4, 5], [[6]])
        probs, _ = step_one(session, session.initial_state(), BOS_ID)
        np.testing.assert_allclose(probs, 1.0 / model.config.vocab_size, atol=1e-12)

    def test_distribution_sums_to_one(self):
        model = small_model(seed=5)
        session = DecodingSession(model, [4, 7, 5], [[6, 8]])
        state = session.initial_state()
        y = BOS_ID
        for _ in range(6):
            probs, state = step_one(session, state, y)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0.0)
            y = int(np.argmax(probs))

    def test_invalid_token_rejected(self):
        model = small_model()
        session = DecodingSession(model, [4])
        with pytest.raises(IndexError):
            step_one(session, session.initial_state(), model.config.vocab_size)

    def test_attention_weights_sum_to_one_and_context_in_hull(self):
        model = small_model(seed=9)
        session = DecodingSession(model, [4, 7, 5], [[6], [8, 9]])
        e = session.e_cols[0].T                                   # (H, L+F)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.normal(size=model.config.hidden_size)
            a, c, _ = attend(e, s)
            assert abs(a.sum() - 1.0) < 1e-9
            assert np.all(c <= e.max(axis=1) + 1e-12)
            assert np.all(c >= e.min(axis=1) - 1e-12)


class TestNllLoss:
    def test_uniform_model_single_token(self):
        model = small_model(vocab=4)
        model.set_zero()
        batch = make_batch([([2], [], [EOS_ID])])  # context BOS-ish id, target = EOS only
        loss, n_tok = nll_loss(model, batch)
        assert n_tok == 1
        assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_near_certain_model_near_zero_loss(self):
        # zero weights + a huge output bias on the target token push its
        # probability to 1 up to float precision, so the loss vanishes
        model = small_model(vocab=6)
        model.set_zero()
        model.out_proj.b.data[4] = 60.0
        batch = make_batch([([5], [], [4])])
        loss, _ = nll_loss(model, batch)
        assert 0.0 <= float(loss.data) < 1e-12

    def test_loss_nonnegative_and_masked(self):
        model = small_model(seed=11)
        batch = make_batch([
            ([4, 5], [[6]], [7, 8, EOS_ID]),
            ([5], [], [9, EOS_ID]),
        ])
        loss, n_tok = nll_loss(model, batch)
        assert float(loss.data) > 0.0
        assert n_tok == 5

    def test_padding_does_not_change_loss(self):
        # same example alone vs padded next to a longer one: per-example loss sums
        model = small_model(seed=13)
        short = ([4, 5], [[6]], [7, EOS_ID])
        long_ = ([5, 6, 7, 8], [[9, 10]], [4, 5, 6, EOS_ID])
        solo, _ = nll_loss(model, make_batch([short]))
        both, _ = nll_loss(model, make_batch([short, long_]))
        other, _ = nll_loss(model, make_batch([long_]))
        assert float(both.data) * 2 == pytest.approx(float(solo.data) + float(other.data),
                                                     rel=1e-10)

    def test_factorization_matches_stepwise_probabilities(self):
        model = small_model(seed=17)
        ctx, facts, tgt = [4, 7], [[5, 6]], [8, 9, 4, EOS_ID]
        loss, _ = nll_loss(model, make_batch([(ctx, facts, tgt)]))
        session = DecodingSession(model, ctx, facts)
        state = session.initial_state()
        logprob = 0.0
        y_prev = BOS_ID
        for y in tgt:
            probs, state = step_one(session, state, y_prev)
            logprob += math.log(probs[y])
            y_prev = y
        assert math.exp(-float(loss.data)) == pytest.approx(math.exp(logprob), rel=1e-10)

    def test_facts_model_with_no_facts_equals_stripped_configuration(self):
        model = small_model(use_facts=True, seed=19)
        examples = [([4, 5, 6], [], [7, EOS_ID]), ([5], [], [8, 9, EOS_ID])]
        with_facts_flag, _ = nll_loss(model, make_batch(examples))
        model.config.use_facts = False
        stripped, _ = nll_loss(model, make_batch(examples))
        model.config.use_facts = True
        assert float(with_facts_flag.data) == float(stripped.data)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([])


class TestGradients:
    def test_nll_gradient_matches_finite_differences(self):
        model = small_model(vocab=10, emb=5, hidden=4, seed=23)
        batch = make_batch([
            ([4, 5, 6], [[7], [8, 9]], [5, 4, EOS_ID]),
            ([6, 7], [[4]], [9, EOS_ID]),
        ])

        def loss():
            out, _ = nll_loss(model, batch)
            return out

        err = grad_check(loss, list(model.params.values()), np.random.default_rng(0),
                         n_samples=80)
        assert err < 1e-4


def _carry_states(new_states, old_states, mask_col):
    m, inv = Tensor(mask_col), Tensor(1.0 - mask_col)
    return [(h2 * m + h1 * inv, c2 * m + c1 * inv)
            for (h2, c2), (h1, c1) in zip(new_states, old_states)]


def reference_fact_vectors(model, facts, facts_mask):
    """The facts encoder run over every padded B x F slot, absent ones included."""
    B, F, Lf = facts.shape
    flat_mask = facts_mask.reshape(B * F, Lf)
    seq = ad.stack(_run_encoder(model, model.facts_encoder, facts.reshape(B * F, Lf)), axis=1)
    counts = flat_mask.sum(axis=1)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    mean = ad.sum_(seq * Tensor(flat_mask[:, :, None]), axis=1) * Tensor(inv[:, None])
    fbar = ad.reshape(mean, (B, F, model.config.hidden_size))
    return fbar, (facts_mask.sum(axis=2) > 0).astype(np.float64)


def reference_nll_loss(model, batch, training=False, rng=None, decoder_carry=True):
    """nll_loss with the padded facts encoder and LSTM states carried over padding.

    The context encoder holds each row's state once its context ends, so the
    last step's state is the final one; with decoder_carry the decoder holds
    it once the target ends.  Returns (loss, e_cols, fbar or None).
    """
    B, Lc = batch.ctx.shape
    H = model.config.hidden_size
    states = model.encoder.zero_state(B)
    tops = []
    for t in range(Lc):
        _, new = model.encoder.step(ad.embedding(model.embedding, batch.ctx[:, t]), states)
        states = _carry_states(new, states, batch.ctx_mask[:, t: t + 1])
        tops.append(states[-1][0])
    ctx_seq, summary = ad.stack(tops, axis=1), tops[-1]
    fbar = None
    e_cols, col_mask = ctx_seq, batch.ctx_mask.copy()
    if model.config.use_facts and batch.facts.size > 0:
        fbar, present = reference_fact_vectors(model, batch.facts, batch.facts_mask)
        e_cols = ad.concat([ctx_seq, fbar], axis=1)
        col_mask = np.concatenate([batch.ctx_mask, present], axis=1)
        n_facts = present.sum(axis=1)
        inv = np.where(n_facts > 0, 1.0 / np.maximum(n_facts, 1.0), 0.0)
        summary = summary + ad.sum_(fbar * Tensor(present[:, :, None]), axis=1) * Tensor(inv[:, None])
    s0 = model.bridge(ad.tanh(summary))
    states = [(s0, Tensor(np.zeros((B, H)))) for _ in range(model.config.num_layers)]
    dropout = model.config.dropout if training else 0.0
    _, att = ad.dot_attention(e_cols, col_mask, states[-1][0])
    total = None
    for t in range(batch.tgt_in.shape[1]):
        v = ad.tanh(ad.concat([states[-1][0], att], axis=1))
        x = ad.concat([v, ad.embedding(model.embedding, batch.tgt_in[:, t])], axis=1)
        _, new = model.decoder.step(x, states, dropout_rate=dropout, rng=rng, training=training)
        states = _carry_states(new, states, batch.tgt_mask[:, t: t + 1]) if decoder_carry else new
        _, att = ad.dot_attention(e_cols, col_mask, states[-1][0])
        feats = ad.concat([states[-1][0], att], axis=1)
        if dropout > 0.0:
            feats = ad.dropout(feats, dropout, rng, training=True)
        nll_t = ad.cross_entropy_logits(model.out_proj(feats), batch.tgt_out[:, t])
        step_loss = ad.sum_(nll_t * Tensor(batch.tgt_mask[:, t]))
        total = step_loss if total is None else total + step_loss
    return total * (1.0 / B), e_cols, fbar


EQUIVALENCE_BATCHES = {
    "zero-to-three-facts": [
        ([4, 5, 6], [[7], [8, 9], [10, 4, 5]], [5, 4, EOS_ID]),
        ([6, 7], [], [9, EOS_ID]),
        ([8], [[4, 5]], [6, 7, 8, 9, EOS_ID]),
        ([9, 10, 11, 4], [[6], [7, 8, 9, 10]], [4, EOS_ID]),
    ],
    "no-facts": [
        ([4, 5, 6], [], [5, 4, EOS_ID]),
        ([6, 7], [], [9, 8, 7, EOS_ID]),
    ],
    "one-example-with-facts": [
        ([4, 5], [], [6, EOS_ID]),
        ([7, 8, 9], [[10, 11], [4]], [5, 6, EOS_ID]),
        ([10], [], [11, 4, 5, EOS_ID]),
    ],
    "empty-fact-slots": [
        ([4, 5], [[], [6, 7]], [8, EOS_ID]),
        ([9, 10, 11], [[4], []], [5, 6, 7, EOS_ID]),
    ],
}


def loss_and_grads(model, loss_fn, dropout_seed):
    """Loss value and the gradient of every parameter the loss reaches."""
    model.zero_grad()
    loss = loss_fn(np.random.default_rng(dropout_seed))
    loss.backward()
    return float(loss.data), {name: p.grad.copy() for name, p in model.params.items()
                              if p.grad is not None}


class TestEncoderEquivalence:
    """The trimmed encoders against the padded, state-carrying reference."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_BATCHES))
    def test_dropping_the_decoder_carry_changes_nothing(self, name, dropout):
        model = GeneratorModel(gen_config(12, 6, 5, dropout=dropout), np.random.default_rng(7))
        batch = make_batch(EQUIVALENCE_BATCHES[name])
        runs = [
            loss_and_grads(model, lambda rng, carry=carry: reference_nll_loss(
                model, batch, training=True, rng=rng, decoder_carry=carry)[0], dropout_seed=5)
            for carry in (True, False)
        ]
        (want_loss, want), (got_loss, got) = runs
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for name_ in want:
            assert (got[name_] == want[name_]).all(), name_

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_BATCHES))
    def test_trimmed_encoders_match_the_padded_reference(self, name, dropout):
        model = GeneratorModel(gen_config(12, 6, 5, dropout=dropout), np.random.default_rng(11))
        batch = make_batch(EQUIVALENCE_BATCHES[name])
        want_loss, want = loss_and_grads(
            model, lambda rng: reference_nll_loss(model, batch, True, rng)[0], dropout_seed=5)
        got_loss, got = loss_and_grads(
            model, lambda rng: nll_loss(model, batch, True, rng)[0], dropout_seed=5)
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for name_ in want:
            np.testing.assert_allclose(got[name_], want[name_], rtol=1e-12, atol=1e-15,
                                       err_msg=name_)
        with no_grad():
            _, ref_cols, ref_fbar = reference_nll_loss(model, batch)
            e_cols, col_mask, _, _ = _encode_for_decoding(model, batch)
        # padded context columns hold run-on states now; attention masks them
        real = col_mask.astype(bool)
        assert (e_cols.data[real] == ref_cols.data[real]).all()
        if ref_fbar is not None:
            with no_grad():
                fbar, _ = _fact_vectors(model, batch.facts, batch.facts_mask)
            assert (fbar.data == ref_fbar.data).all()


def reference_attention(e_cols, col_mask, s_top):
    """The op-by-op attention that autodiff.dot_attention fuses: 9 tape nodes."""
    B, C, H = e_cols.shape
    scores = ad.reshape(ad.matmul(e_cols, ad.reshape(s_top, (B, H, 1))), (B, C))
    masked = scores * Tensor(col_mask) + Tensor((1.0 - col_mask) * ad.NEG_INF)
    weights = ad.softmax(masked, axis=-1)
    ctx = ad.reshape(ad.matmul(ad.reshape(weights, (B, 1, C)), e_cols), (B, H))
    return weights, ctx


def attention_mask(B, C, rng):
    """Random 0/1 column mask with at least one open column per row; the
    first row has exactly one open column."""
    mask = (rng.random((B, C)) < 0.6).astype(np.float64)
    mask[np.arange(B), rng.integers(0, C, size=B)] = 1.0
    mask[0] = 0.0
    mask[0, C // 2] = 1.0
    return mask


def run_attention(attend_fn, B, H, seed, grad_cols=True, grad_query=True, n_queries=3):
    """Several queries against one E, as the decoder's steps make; returns
    each query's weights and context, and the gradients."""
    rng = np.random.default_rng(seed)
    C = 6
    e_cols = Tensor(rng.normal(size=(B, C, H)), requires_grad=grad_cols)
    mask = attention_mask(B, C, rng)
    queries = [Tensor(rng.normal(size=(B, H)) * 2.0, requires_grad=grad_query)
               for _ in range(n_queries)]
    outs, loss = {}, None
    for t, s in enumerate(queries):
        weights, ctx = attend_fn(e_cols, mask, s)
        outs[f"weights{t}"], outs[f"ctx{t}"] = weights.data, ctx.data
        term = ad.sum_(ctx * Tensor(rng.normal(size=(B, H))))
        loss = term if loss is None else loss + term
    if loss.requires_grad:
        loss.backward()
    leaves = {"e_cols": e_cols, **{f"s{t}": s for t, s in enumerate(queries)}}
    return outs, {name: t.grad for name, t in leaves.items() if t.grad is not None}


class TestFusedAttention:
    """ad.dot_attention (one node) against the 9-node composition, bit for bit."""

    @pytest.mark.parametrize("grads", ["both", "columns-only", "query-only"])
    @pytest.mark.parametrize("B,H", [(1, 1), (1, 5), (25, 1), (25, 5)])
    def test_values_and_gradients_equal_the_composition(self, B, H, grads):
        flags = {"grad_cols": grads != "query-only", "grad_query": grads != "columns-only"}
        want, want_grads = run_attention(reference_attention, B, H, seed=B + H, **flags)
        got, got_grads = run_attention(ad.dot_attention, B, H, seed=B + H, **flags)
        for name in want:
            assert (got[name] == want[name]).all(), name
        assert got_grads.keys() == want_grads.keys()
        for name in want_grads:
            assert (got_grads[name] == want_grads[name]).all(), name

    def test_one_open_column_takes_all_the_weight(self):
        got, _ = run_attention(ad.dot_attention, 4, 3, seed=2)
        np.testing.assert_array_equal(got["weights0"][0], np.eye(6)[3])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        e_cols = Parameter(rng.normal(size=(3, 4, 5)), "e_cols")
        s_top = Parameter(rng.normal(size=(3, 5)), "s_top")
        mask = attention_mask(3, 4, rng)
        mix = rng.normal(size=(3, 5))

        def loss():
            return ad.sum_(ad.dot_attention(e_cols, mask, s_top)[1] * Tensor(mix))

        err = grad_check(loss, [e_cols, s_top], rng, n_samples=60)
        assert err < 1e-4

    def test_one_call_adds_one_node_and_backward_releases_it_once(self):
        rng = np.random.default_rng(5)
        e_cols = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        s_top = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        mask = np.ones((2, 4))
        assert interior_nodes(reference_attention(e_cols, mask, s_top)[1]) == 9
        weights, ctx = ad.dot_attention(e_cols, mask, s_top)
        assert interior_nodes(ctx) == 1
        assert not weights.requires_grad and weights.parents == ()
        loss = ad.sum_(ctx)
        loss.backward()
        assert ctx.parents == () and ctx.grad is None
        first = e_cols.grad.copy()
        with pytest.raises(RuntimeError):
            loss.backward()
        with pytest.raises(RuntimeError):
            ad.sum_(ctx * 2.0).backward()
        np.testing.assert_array_equal(e_cols.grad, first)


class TestFusedGenerator:
    """The whole generator loss on the fused ops against the op-by-op ones."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_BATCHES))
    def test_loss_and_every_gradient_equal_the_composition(self, name, dropout, monkeypatch):
        model = GeneratorModel(gen_config(12, 6, 5, dropout=dropout), np.random.default_rng(13))
        batch = make_batch(EQUIVALENCE_BATCHES[name])

        def run():
            return loss_and_grads(model, lambda rng: nll_loss(model, batch, True, rng)[0],
                                  dropout_seed=5)

        got_loss, got = run()
        with monkeypatch.context() as m:
            m.setattr(layers, "lstm_step", reference_lstm_step)
            m.setattr(ad, "dot_attention", reference_attention)
            want_loss, want = run()
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for name_ in want:
            assert (got[name_] == want[name_]).all(), name_

    def test_decoding_equals_the_composition(self, monkeypatch):
        model = small_model(seed=4)

        def decode():
            session = DecodingSession(model, [4, 7, 5], [[6], [8, 9]])
            state = session.initial_state().reindex(np.zeros(3, dtype=np.int64))
            y, out = np.array([BOS_ID, 5, 6]), []
            for _ in range(3):
                probs, state = session.step(state, y)
                out += [probs, state.att] + [a for layer in state.layers for a in layer]
                y = probs.argmax(axis=1)
            return out

        got = decode()
        with monkeypatch.context() as m:
            m.setattr(layers, "lstm_step", reference_lstm_step)
            m.setattr(ad, "dot_attention", reference_attention)
            want = decode()
        for a, b in zip(got, want, strict=True):
            assert (a == b).all()


def enumerate_hypotheses(session, max_len, content_tokens):
    """Exhaustive ≤max_len enumeration under the stepwise model probabilities."""
    results = []
    for length in range(0, max_len + 1):
        for seq in itertools.product(content_tokens, repeat=length):
            state = session.initial_state()
            y_prev = BOS_ID
            ll = 0.0
            for tok in seq:
                probs, state = step_one(session, state, y_prev)
                ll += math.log(probs[tok])
                y_prev = tok
            if length < max_len:
                probs, _ = step_one(session, state, y_prev)
                ll += math.log(probs[EOS_ID])
                norm_len = length + 1
            else:
                norm_len = length
            if norm_len == 0:
                continue
            results.append((list(seq), ll / norm_len))
    results.sort(key=lambda item: (-item[1], tuple(item[0])))
    return results


def reference_beam_search(model, ctx_ids, facts_ids, beam_size, max_len):
    """Beam search pruned by argsorting every beam x V total and walking it.

    The original selection loop, kept as the reference that the array top-k
    of beam_search must reproduce exactly.
    """
    session = DecodingSession(model, ctx_ids, facts_ids)
    banned = np.array([PAD_ID, UNK_ID, BOS_ID])
    live_tokens = [()]
    live_ll = np.zeros(1)
    state = session.initial_state()
    finished = []
    for step_idx in range(1, max_len + 1):
        y_prev = np.array([t[-1] if t else BOS_ID for t in live_tokens], dtype=np.int64)
        probs, new_state = session.step(state, y_prev)
        with np.errstate(divide="ignore"):
            logp = np.log(probs)
        logp[:, banned] = -np.inf
        total = live_ll[:, None] + logp                      # (B, V)
        flat = total.ravel()
        order = np.argsort(-flat, kind="stable")
        next_tokens = []
        next_ll = []
        next_rows = []
        for idx in order:
            ll = flat[idx]
            if ll == -np.inf:
                break
            row, tok = divmod(int(idx), total.shape[1])
            if tok == EOS_ID:
                finished.append(Hypothesis(live_tokens[row], float(ll), step_idx))
                continue
            if len(next_tokens) < beam_size:
                next_tokens.append(live_tokens[row] + (tok,))
                next_ll.append(float(ll))
                next_rows.append(row)
        if not next_tokens:
            break
        live_tokens = next_tokens
        live_ll = np.array(next_ll)
        state = new_state.reindex(np.array(next_rows))
    else:
        for toks, ll in zip(live_tokens, live_ll):
            finished.append(Hypothesis(toks, float(ll), len(toks)))
    ranked = sorted(finished, key=lambda h: (-h.score, h.tokens))
    return [(list(h.tokens), h.score) for h in ranked]


class TestBeamSearch:
    def test_beam_one_equals_argmax_chain(self):
        model = small_model(seed=29)
        ctx, facts = [4, 5], [[6]]
        got = beam_search(model, ctx, facts, beam_size=1, max_len=8)[0][0]
        session = DecodingSession(model, ctx, facts)
        state = session.initial_state()
        y_prev = BOS_ID
        want = []
        for _ in range(8):
            probs, state = step_one(session, state, y_prev)
            probs[[PAD_ID, UNK_ID, BOS_ID]] = -1.0
            tok = int(np.argmax(probs))
            if tok == EOS_ID:
                break
            want.append(tok)
            y_prev = tok
        assert got == want

    def test_matches_exhaustive_enumeration(self):
        # three usable tokens {a=4, b=5, EOS}; all 7 leaves of depth <= 2
        model = small_model(vocab=6, emb=4, hidden=3, seed=31)
        ctx = [4, 5]
        got = beam_search(model, ctx, [[4]], beam_size=9, max_len=2)
        session = DecodingSession(model, ctx, [[4]])
        want = enumerate_hypotheses(session, 2, [4, 5])
        assert len(got) == len(want) == 7
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], atol=1e-12)

    def test_deterministic(self):
        model = small_model(seed=37)
        a = beam_search(model, [4, 5, 6], [[7]], beam_size=4, max_len=6)
        b = beam_search(model, [4, 5, 6], [[7]], beam_size=4, max_len=6)
        assert a == b

    def test_bad_beam_rejected(self):
        with pytest.raises(ValueError):
            beam_search(small_model(), [4], None, beam_size=0, max_len=5)

    @pytest.mark.parametrize("beam_size", [1, 3, 5, 10])
    def test_pruning_equals_reference_loop(self, beam_size):
        # V=300 is far wider than any beam, so every step prunes
        for seed, max_len in ((43, 15), (47, 7), (53, 1)):
            model = small_model(vocab=300, emb=6, hidden=5, seed=seed)
            ctx, facts = [4, 77, 150, 299], [[8, 9], [200]]
            got = beam_search(model, ctx, facts, beam_size, max_len)
            want = reference_beam_search(model, ctx, facts, beam_size, max_len)
            assert got == want   # token lists and float scores, exactly

    @pytest.mark.parametrize("bias_levels", [1, 3])
    def test_pruning_equals_reference_loop_when_tied(self, bias_levels):
        # zero out_proj weights: every step gives the same distribution.  One
        # bias level ties every total within a row; three levels tie totals
        # within and across rows (a then b scores exactly as b then a).
        model = small_model(vocab=60, emb=6, hidden=5, seed=59)
        model.out_proj.w.data[...] = 0.0
        model.out_proj.b.data[...] = np.random.default_rng(bias_levels).integers(0, bias_levels, 60)
        for beam_size, max_len in ((1, 4), (3, 6), (10, 5)):
            got = beam_search(model, [4, 5], [[6]], beam_size, max_len)
            want = reference_beam_search(model, [4, 5], [[6]], beam_size, max_len)
            assert got == want

    def test_pruning_equals_reference_loop_when_beam_exceeds_grid(self):
        # two content tokens: the first steps offer fewer extensions than the beam
        model = small_model(vocab=6, emb=4, hidden=3, seed=61)
        got = beam_search(model, [4, 5], [[4]], beam_size=50, max_len=6)
        want = reference_beam_search(model, [4, 5], [[4]], beam_size=50, max_len=6)
        assert got == want

    @pytest.mark.parametrize("use_facts", [True, False])
    def test_top_beam_score_equals_teacher_forced_nll(self, use_facts):
        model = small_model(use_facts=use_facts, seed=9)
        max_len = 6
        facts = [[5], [7, 8]] if use_facts else None
        ids, score = beam_search(model, [4, 6, 9], facts, beam_size=3, max_len=max_len)[0]
        # a hypothesis shorter than max_len finished on EOS, which its score includes
        target = ids + [EOS_ID] if len(ids) < max_len else ids
        with no_grad():
            loss, _ = nll_loss(model, make_batch([([4, 6, 9], facts or [], target)]))
        assert score * len(target) == pytest.approx(-float(loss.data), rel=1e-9, abs=0.0)

    def test_scores_are_nonpositive(self):
        model = small_model(seed=41)
        for toks, score in beam_search(model, [4, 6], [[5]], beam_size=3, max_len=5):
            assert score <= 0.0
            assert EOS_ID not in toks and BOS_ID not in toks and PAD_ID not in toks


class TestEarlyStopping:
    def test_lr_halves_exactly_on_no_improvement(self):
        stopper = EarlyStopping(patience=10, decay=0.5)
        lr, stop, improved = stopper.update(1.0, 8e-3)
        assert improved and lr == 8e-3
        lr, stop, improved = stopper.update(1.5, lr)
        assert not improved and lr == 4e-3 and not stop

    def test_patience_exhaustion_stops(self):
        stopper = EarlyStopping(patience=3, decay=0.5)
        stopper.update(1.0, 1e-3)
        stops = [stopper.update(2.0, 1e-3)[1] for _ in range(3)]
        assert stops == [False, False, True]

    def test_improvement_resets_patience(self):
        stopper = EarlyStopping(patience=2, decay=0.5)
        stopper.update(1.0, 1e-3)
        stopper.update(2.0, 1e-3)
        stopper.update(0.5, 1e-3)
        assert stopper.bad_count == 0


class TestTrainGenerator:
    def toy_examples(self):
        # 6 deterministic pairs over a 14-token vocab
        data = []
        for i in range(6):
            ctx = [4 + i, 5 + (i % 3)]
            tgt = [6 + (i % 4), 4 + (i % 5), EOS_ID]
            data.append((ctx, [[10 + (i % 3)]], tgt))
        return data

    def test_memorizes_tiny_corpus(self):
        examples = self.toy_examples()
        model = GeneratorModel(gen_config(14, 24, 24), np.random.default_rng(1))
        tcfg = train_config(learning_rate=5e-3, validate_every=50, batch_size=6,
                            max_steps=800, seed=1, target_ppl=1.15)
        log = train_generator(model, examples, examples, tcfg)
        assert log.best_metric < 1.2
        assert perplexity(model, examples) < 1.2

    def test_seeded_runs_bit_identical(self):
        examples = self.toy_examples()

        def run():
            model = GeneratorModel(gen_config(14, 8, 8, dropout=0.1), np.random.default_rng(3))
            tcfg = train_config(learning_rate=2e-3, validate_every=10, batch_size=3,
                                max_steps=30, seed=7)
            return train_generator(model, examples, examples, tcfg).history

        assert run() == run()

    def test_checkpoint_pairs_best_parameters_with_their_step(self, tmp_path):
        # learning rate 0: validation never improves after the first check
        examples = self.toy_examples()
        model = GeneratorModel(gen_config(14, 6, 6), np.random.default_rng(2))
        tcfg = train_config(learning_rate=0.0, validate_every=2, batch_size=3,
                            max_steps=6, seed=2)
        path = str(tmp_path / "gen.ckpt")
        log = train_generator(model, examples, examples, tcfg, vocab_hash="vh", ckpt_path=path)
        assert (log.best_step, log.steps_run) == (2, 6)
        blob = load_checkpoint(path)
        assert blob["optimizer_state"]["t"] == log.best_step
        for name, p in model.params.items():
            np.testing.assert_array_equal(blob["params"][name], p.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        examples = self.toy_examples()
        model = GeneratorModel(gen_config(14, 6, 6), np.random.default_rng(0))
        model.out_proj.b.data[0] = np.inf
        tcfg = train_config(learning_rate=1e-3, validate_every=10, batch_size=2,
                            max_steps=5, seed=0)
        with pytest.raises(RuntimeError, match="diverged"):
            train_generator(model, examples, examples, tcfg)


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        model = small_model(seed=43)
        path = str(tmp_path / "gen.ckpt")
        model.save(path, vocab_hash="abc123")
        loaded = GeneratorModel.load(path, expected_vocab_hash="abc123")
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, loaded.params[name].data)
        assert loaded.config == model.config

    def test_config_with_retired_max_len_loads(self, tmp_path):
        model = small_model(seed=44)
        path = str(tmp_path / "old.ckpt")
        config = {**asdict(model.config), "max_len": 30}
        save_checkpoint(path, "generator", "vh", config,
                        {name: p.data for name, p in model.params.items()})
        loaded = GeneratorModel.load(path, expected_vocab_hash="vh")
        assert loaded.config == model.config
        assert loaded.params.keys() == model.params.keys()
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, loaded.params[name].data)

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        model = small_model()
        path = str(tmp_path / "gen.ckpt")
        model.save(path, vocab_hash="abc")
        with pytest.raises(ValueError, match="hash"):
            GeneratorModel.load(path, expected_vocab_hash="different")
