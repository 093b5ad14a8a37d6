import gc
import math
import os
import re
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import hybridchat
from hybridchat import nncore
from hybridchat.nncore import autodiff as ad
from hybridchat.nncore import (
    Adam,
    LstmCell,
    Model,
    Parameter,
    Tensor,
    clip_global_norm,
    grad_check,
    load_checkpoint,
    lstm_step,
    save_checkpoint,
)
from hybridchat.nncore.optim import train_loop


def tape_softmax(v):
    """The tape softmax of a plain vector, as an array."""
    return ad.softmax(Tensor(np.asarray(v, dtype=np.float64))).data


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(tape_softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_singleton(self):
        np.testing.assert_allclose(tape_softmax([3.7]), [1.0], atol=1e-15)

    def test_closed_form(self):
        # e^{ln 2} / (e^{ln 2} + 1) = 2/3
        np.testing.assert_allclose(tape_softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tape_softmax(np.array([]))

    def test_valid_distribution_at_large_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(-1e3, 1e3, size=rng.integers(1, 20))
            p = tape_softmax(v)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-9

    def test_monotone(self):
        p = tape_softmax([1.0, 2.0, 0.5])
        assert p[1] > p[0] > p[2]

    def test_shift_invariance(self):
        v = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(tape_softmax(v), tape_softmax(v + 123.0), atol=1e-12)


def reference_sigmoid(x):
    """Stable logistic by boolean-mask indexing, one formula per sign."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    y[~pos] = e / (1.0 + e)
    return y


class TestSigmoid:
    def test_equals_masked_reference_at_edges_and_random_values(self):
        edges = [0.0, 1e-300, 36.7, 709.0, 745.0, 1e308, np.inf]
        x = np.concatenate([edges, np.negative(edges),
                            np.random.default_rng(0).normal(scale=20.0, size=1000)])
        got = ad.sigmoid(Tensor(x)).data
        assert (got == reference_sigmoid(x)).all()
        assert got[0] == got[len(edges)] == 0.5                # +0 and -0
        assert got[6] == 1.0 and got[len(edges) + 6] == 0.0     # +inf and -inf

    def test_nan_stays_nan(self):
        got = ad.sigmoid(Tensor(np.array([np.nan, 1.0, -np.nan]))).data
        assert np.isnan(got[0]) and np.isnan(got[2]) and not np.isnan(got[1])


def scalar_lstm_oracle(wx, wh, b, x, h_prev, c_prev):
    """Independent scalar evaluation of the four-gate equations."""
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    zi = x * wx[0] + h_prev * wh[0] + b[0]
    zf = x * wx[1] + h_prev * wh[1] + b[1]
    zg = x * wx[2] + h_prev * wh[2] + b[2]
    zo = x * wx[3] + h_prev * wh[3] + b[3]
    c = sig(zf) * c_prev + sig(zi) * math.tanh(zg)
    h = sig(zo) * math.tanh(c)
    return h, c


class TestLstmStep:
    def make_cell(self, n_in, n_hidden, seed=0):
        model = Model()
        rng = np.random.default_rng(seed)
        return model, LstmCell(model, "cell", n_in, n_hidden, rng)

    def test_zero_params_zero_state_gives_zero(self):
        model, cell = self.make_cell(3, 4)
        model.set_zero()
        h, c = lstm_step(cell, Tensor(np.array([[5.0, -2.0, 1.0]])), *cell.zero_state(1))
        np.testing.assert_allclose(h.data, 0.0, atol=1e-15)

    def test_hidden_bounded_by_one(self):
        rng = np.random.default_rng(1)
        model = Model()
        cell = LstmCell(model, "cell", 5, 7, rng)
        for p in model.params.values():
            p.data[...] = rng.uniform(-1, 1, size=p.data.shape)
        h = Tensor(np.zeros((1, 7)))
        c = Tensor(np.zeros((1, 7)))
        for _ in range(20):
            h, c = lstm_step(cell, Tensor(rng.uniform(-1, 1, size=(1, 5))), h, c)
            assert np.all(np.abs(h.data) < 1.0)

    def test_single_unit_matches_hand_computation(self):
        model, cell = self.make_cell(1, 1, seed=3)
        wx = np.array([0.3, -0.7, 1.1, 0.25])
        wh = np.array([-0.2, 0.9, -1.3, 0.5])
        b = np.array([0.05, -0.4, 0.8, -0.15])
        cell.wx.data[...] = wx.reshape(1, 4)
        cell.wh.data[...] = wh.reshape(1, 4)
        cell.b.data[...] = b
        x, h_prev, c_prev = 0.6, -0.35, 0.42
        h, c = lstm_step(cell, Tensor(np.array([[x]])), Tensor(np.array([[h_prev]])),
                         Tensor(np.array([[c_prev]])))
        eh, ec = scalar_lstm_oracle(wx, wh, b, x, h_prev, c_prev)
        assert abs(h.data[0, 0] - eh) < 1e-12
        assert abs(c.data[0, 0] - ec) < 1e-12

    def test_dimension_mismatch_rejected(self):
        _, cell = self.make_cell(3, 4)
        with pytest.raises(ValueError):
            lstm_step(cell, Tensor(np.zeros((1, 2))), *cell.zero_state(1))
        with pytest.raises(ValueError):
            lstm_step(cell, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 5))),
                      Tensor(np.zeros((1, 5))))


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        p = Parameter(np.array([1.0, -2.0]), "w")
        opt = Adam({"w": p}, lr=0.01)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0], atol=0.0)

    def test_first_step_closed_form(self):
        # m̂ = v̂ = g on step 1, so the update is -lr * g/(|g| + eps) = -lr for g=1
        p = Parameter(np.array([0.5]), "w")
        opt = Adam({"w": p}, lr=1e-4)
        p.grad = np.array([1.0])
        opt.step()
        assert abs((p.data[0] - 0.5) + 1e-4) < 1e-11

    def test_constant_gradient_strict_descent(self):
        p = Parameter(np.array([2.0]), "w")
        opt = Adam({"w": p}, lr=1e-3)
        prev = p.data[0]
        for _ in range(50):
            p.grad = np.array([0.7])
            opt.step()
            assert p.data[0] < prev
            prev = p.data[0]

    def test_nan_gradient_names_parameter(self):
        p = Parameter(np.array([1.0]), "encoder.wx")
        opt = Adam({"encoder.wx": p}, lr=1e-3)
        p.grad = np.array([np.nan])
        with pytest.raises(ValueError, match="encoder.wx"):
            opt.step()

    def test_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(42)
            p = Parameter(rng.normal(size=8), "w")
            opt = Adam({"w": p}, lr=3e-3)
            for _ in range(25):
                p.grad = rng.normal(size=8)
                opt.step()
            return p.data.copy()

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_state_dict_roundtrip(self):
        p = Parameter(np.array([1.0, 2.0]), "w")
        opt = Adam({"w": p}, lr=1e-2)
        p.grad = np.array([0.3, -0.1])
        opt.step()
        state = opt.state_dict()
        p2 = Parameter(np.array([1.0, 2.0]), "w")
        opt2 = Adam({"w": p2}, lr=1e-2)
        opt2.load_state_dict(state)
        assert opt2.t == opt.t
        np.testing.assert_array_equal(opt2.m["w"], opt.m["w"])


class TestGradCheck:
    def test_quadratic(self):
        x = Parameter(np.array([3.0]), "x")

        def loss():
            return ad.sum_(x * x * 0.5)

        err = grad_check(loss, [x], np.random.default_rng(0), n_samples=1)
        assert err < 1e-8
        assert abs(x.grad[0] - 3.0) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_rejected(self):
        x = Parameter(np.array([0.0]), "x")

        def loss():
            return ad.sum_(x) + Tensor(np.array(np.inf))

        with pytest.raises(ValueError):
            grad_check(loss, [x], np.random.default_rng(0), n_samples=1)


def _op_grad_harness(build_loss, shapes, seed, n_samples=40, tol=1e-6):
    """Gradient-check an op: build_loss gets Parameters of the given shapes."""
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=s) * 0.7, f"p{i}") for i, s in enumerate(shapes)]
    err = grad_check(lambda: build_loss(*params), params, rng, n_samples=n_samples)
    assert err < tol, f"max relative error {err}"


class TestOpGradients:
    def test_matmul_add_tanh(self):
        mix = np.random.default_rng(9).normal(size=(4, 3))
        _op_grad_harness(
            lambda a, b, c: ad.sum_(ad.tanh(ad.matmul(a, b) + c) * Tensor(mix)),
            [(4, 5), (5, 3), (3,)],
            seed=1,
        )

    def test_batched_matmul(self):
        mix = np.random.default_rng(10).normal(size=(2, 4, 3))
        _op_grad_harness(
            lambda a, b: ad.sum_(ad.matmul(a, b) * Tensor(mix)),
            [(2, 4, 5), (2, 5, 3)],
            seed=2,
        )

    def test_softmax_op(self):
        mix = np.random.default_rng(11).normal(size=(3, 6))
        _op_grad_harness(
            lambda a: ad.sum_(ad.softmax(a, axis=-1) * Tensor(mix)),
            [(3, 6)],
            seed=3,
        )

    def test_cross_entropy(self):
        targets = np.array([1, 0, 3])
        _op_grad_harness(
            lambda a: ad.sum_(ad.cross_entropy_logits(a, targets)),
            [(3, 4)],
            seed=4,
        )

    def test_embedding_scatter(self):
        ids = np.array([[0, 2, 2], [1, 0, 3]])
        mix = np.random.default_rng(12).normal(size=(2, 3, 5))
        _op_grad_harness(
            lambda w: ad.sum_(ad.embedding(w, ids) * Tensor(mix)),
            [(4, 5)],
            seed=5,
        )

    def test_concat_narrow_stack(self):
        mix = np.random.default_rng(13).normal(size=(2, 2, 3))

        def loss(a, b):
            cat = ad.concat([a, b], axis=1)          # (2, 5)
            sliced = ad.narrow(cat, 1, 1, 3)         # (2, 3)
            piled = ad.stack([sliced, sliced * 2.0], axis=0)
            return ad.sum_(piled * Tensor(mix))

        _op_grad_harness(loss, [(2, 2), (2, 3)], seed=6)

    def test_conv2d(self):
        mix = np.random.default_rng(14).normal(size=(2, 3, 2, 3))
        _op_grad_harness(
            lambda x, w: ad.sum_(ad.conv2d_valid(x, w) * Tensor(mix)),
            [(2, 2, 4, 5), (3, 2, 3, 3)],
            seed=7,
        )

    def test_conv2d_weight_gradient_matches_einsum(self):
        rng = np.random.default_rng(16)
        x, w = rng.normal(size=(4, 2, 9, 8)), Parameter(rng.normal(size=(5, 2, 3, 2)), "w")
        g = rng.normal(size=(4, 5, 7, 7))
        ad.sum_(ad.conv2d_valid(Tensor(x), w) * Tensor(g)).backward()
        view = np.lib.stride_tricks.sliding_window_view(x, (3, 2), axis=(2, 3))
        cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(4, 49, 12)
        want = np.einsum("bpk,bpc->kc", g.reshape(4, 5, 49).transpose(0, 2, 1), cols)
        np.testing.assert_allclose(w.grad, want.reshape(5, 2, 3, 2), rtol=0, atol=1e-10)

    def test_maxpool(self):
        # distinct values so no pooling ties at the evaluation point
        rng = np.random.default_rng(15)
        base = rng.permutation(6 * 6).reshape(1, 1, 6, 6) * 0.1
        x = Parameter(base, "x")
        mix = Tensor(rng.normal(size=(1, 1, 3, 3)))
        err = grad_check(
            lambda: ad.sum_(ad.max_pool2d(x, 2, 2) * mix),
            [x],
            rng,
            n_samples=36,
        )
        assert err < 1e-6

    def test_mean_and_reshape(self):
        _op_grad_harness(
            lambda a: ad.sum_(ad.reshape(ad.sigmoid(a), (6,))),
            [(2, 3)],
            seed=8,
        )

    def test_relu_subgradient_zero_at_origin(self):
        x = Parameter(np.array([0.0, -1.0, 2.0]), "x")
        out = ad.sum_(ad.relu(x))
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestBackwardRelease:
    def test_interior_node_freed_without_cyclic_gc(self):
        w = Parameter(np.array([0.5, -1.0, 2.0]), "w")
        gc.disable()
        try:
            h = ad.tanh(w * Tensor(np.arange(3.0)))
            ref = weakref.ref(h.data)
            loss = ad.sum_(h)
            del h
            loss.backward()
            del loss
            assert ref() is None
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        w = Parameter(np.array([1.0, 2.0]), "w")
        h = ad.sigmoid(w)
        loss = ad.sum_(h)
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError):
            loss.backward()
        with pytest.raises(RuntimeError):
            ad.sum_(h * 2.0).backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_shared_node_sums_children_gradients(self):
        rng = np.random.default_rng(17)
        w = Parameter(rng.normal(size=4), "w")
        a = Tensor(rng.normal(size=4))
        branches = [
            lambda h: ad.sum_(h * a),
            lambda h: ad.sum_(h * h),
            lambda h: ad.sum_(ad.tanh(h)),
        ]
        by_hand = np.zeros(4)
        for branch in branches:
            w.grad = None
            branch(ad.tanh(w)).backward()
            by_hand += w.grad
        w.grad = None
        h = ad.tanh(w)
        (branches[0](h) + branches[1](h) + branches[2](h)).backward()
        np.testing.assert_allclose(w.grad, by_hand, rtol=1e-12, atol=0.0)

    def test_leaves_keep_grad_interior_nodes_drop_it(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Parameter(np.array([3.0, -1.0]), "w")
        h = x * w
        loss = ad.sum_(h * h)
        loss.backward()
        np.testing.assert_array_equal(x.grad, [18.0, 4.0])
        np.testing.assert_array_equal(w.grad, [6.0, -8.0])
        assert h.grad is None and loss.grad is None
        assert h.parents == () and loss.parents == ()


FAULTS_SCRIPT = """
import resource
import numpy as np
import hybridchat.nncore

N_ARRAYS, ROUNDS = {n_arrays}, {rounds}

def one_round():
    arrays = [np.ones(6 * 2**20 // 8) for _ in range(N_ARRAYS)]    # 6 MiB each, every page written
    del arrays

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(ROUNDS):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def minor_faults_of_rounds(n_arrays: int, rounds: int) -> int:
    """Minor faults of `rounds` rounds that allocate and free n_arrays x 6 MiB,
    in a fresh process that imports hybridchat.nncore."""
    src = os.path.dirname(os.path.dirname(hybridchat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    script = FAULTS_SCRIPT.replace("{n_arrays}", str(n_arrays)).replace("{rounds}", str(rounds))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(out.stdout.strip())


@pytest.mark.skipif(not _glibc(), reason="malloc thresholds are set on glibc only")
class TestHeapThresholds:
    def test_freed_training_sized_arrays_stay_mapped(self):
        # without pinned thresholds glibc trims the freed heap top every
        # round and the next round faults the same pages back in
        one_round_pages = 4 * 6 * 2**20 // os.sysconf("SC_PAGE_SIZE")
        assert minor_faults_of_rounds(4, 20) < one_round_pages

    def test_freed_heap_top_above_64_mib_stays_mapped(self):
        # 72 MiB freed at once: a fixed 64 MiB trim threshold hands it back
        # every round
        one_round_pages = 12 * 6 * 2**20 // os.sysconf("SC_PAGE_SIZE")
        assert minor_faults_of_rounds(12, 5) < one_round_pages


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_inference_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = ad.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_expectation_preserved(self, rate):
        rng = np.random.default_rng(123)
        n = 100_000
        x = Tensor(np.ones(n))
        out = ad.dropout(x, rate, rng, training=True)
        mean = out.data.mean()
        # each kept unit contributes 1/(1-rate) w.p. (1-rate): var = rate/(1-rate)
        sigma = math.sqrt(rate / (1.0 - rate) / n)
        assert abs(mean - 1.0) < 3.0 * sigma

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0), training=True)


class TestClipGlobalNorm:
    def test_scales_down_to_max(self):
        p1 = Parameter(np.zeros(3), "a")
        p2 = Parameter(np.zeros(4), "b")
        p1.grad = np.full(3, 2.0)
        p2.grad = np.full(4, 2.0)
        norm = clip_global_norm({"a": p1, "b": p2}, max_norm=1.0)
        assert abs(norm - 2.0 * math.sqrt(7)) < 1e-12
        total = (p1.grad ** 2).sum() + (p2.grad ** 2).sum()
        assert abs(math.sqrt(total) - 1.0) < 1e-12

    def test_small_gradients_untouched(self):
        p = Parameter(np.zeros(2), "a")
        p.grad = np.array([0.1, 0.1])
        clip_global_norm({"a": p}, max_norm=5.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.1])


class TestTrainLoop:
    def test_each_epoch_walks_a_fresh_permutation_in_batch_slices(self):
        model = Model()
        w = model.add_param("w", np.ones(1))
        taken = []

        def batch_loss(picks, rng):
            taken.append(picks.tolist())
            return ad.sum_(w * w)

        tcfg = SimpleNamespace(learning_rate=1e-3, batch_size=4, max_steps=6,
                               validate_every=6, patience=1, seed=0)
        log = train_loop(model, 10, tcfg, batch_loss, lambda: 1.0, "metric", lr_decay=0.5)
        assert log.steps_run == 6
        assert [len(p) for p in taken] == [4, 4, 2, 4, 4, 2]
        epochs = [sum(taken[:3], []), sum(taken[3:], [])]
        for picks in epochs:
            assert sorted(picks) == list(range(10))
        assert epochs[0] != epochs[1]


def small_checkpoint_bytes(tmp_path):
    """A saved checkpoint with two dtypes and optimizer state, as bytes."""
    full = tmp_path / "full.ckpt"
    params = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2, dtype=np.float32)}
    opt_state = {"t": 3, "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                 "m": {k: np.zeros_like(v) for k, v in params.items()},
                 "v": {k: np.ones_like(v) for k, v in params.items()}}
    save_checkpoint(str(full), "ranker", "cafe", {"k": 2}, params, opt_state)
    return full.read_bytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        params = {
            "emb.w": rng.normal(size=(7, 4)),
            "out.b": rng.normal(size=3).astype(np.float32),
        }
        opt_state = {
            "t": 12,
            "lr": 1e-3,
            "beta1": 0.9,
            "beta2": 0.999,
            "eps": 1e-8,
            "m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.ones_like(v) for k, v in params.items()},
        }
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(str(p1), "generator", "deadbeef", {"hidden": 4}, params, opt_state)
        loaded = load_checkpoint(str(p1))
        assert loaded["kind"] == "generator"
        assert loaded["config"] == {"hidden": 4}
        np.testing.assert_array_equal(loaded["params"]["emb.w"], params["emb.w"])
        assert loaded["params"]["out.b"].dtype == np.float32
        save_checkpoint(str(p2), loaded["kind"], loaded["vocab_hash"], loaded["config"],
                        loaded["params"], loaded["optimizer_state"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(str(p))

    def test_every_truncation_names_the_file(self, tmp_path):
        raw = small_checkpoint_bytes(tmp_path)
        cut = tmp_path / "cut.ckpt"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "):
                load_checkpoint(str(cut))
        cut.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: .*trailing"):
            load_checkpoint(str(cut))

    def test_every_byte_flip_loads_or_names_the_file(self, tmp_path):
        raw = small_checkpoint_bytes(tmp_path)
        bad = tmp_path / "bad.ckpt"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            try:
                load_checkpoint(str(bad))
            except ValueError as exc:
                assert str(exc).startswith(f"{bad}: "), (i, str(exc))


class TestLstmGradient:
    def test_small_lstm_chain_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        model = Model()
        cell = LstmCell(model, "cell", 3, 4, rng)
        xs = [rng.normal(size=(2, 3)) for _ in range(5)]
        mix = rng.normal(size=(2, 4))

        def loss():
            h, c = cell.zero_state(2)
            for x in xs:
                h, c = cell.step(Tensor(x), h, c)
            return ad.sum_(h * Tensor(mix))

        err = grad_check(loss, list(model.params.values()), rng, n_samples=60)
        assert err < 1e-6


def reference_lstm_step(cell, x, h_prev, c_prev):
    """The op-by-op LSTM step that autodiff.lstm_cell fuses: 17 tape nodes."""
    H = cell.n_hidden
    gates = ad.matmul(x, cell.wx) + ad.matmul(h_prev, cell.wh) + cell.b
    i = ad.sigmoid(ad.narrow(gates, 1, 0, H))
    f = ad.sigmoid(ad.narrow(gates, 1, H, H))
    g = ad.tanh(ad.narrow(gates, 1, 2 * H, H))
    o = ad.sigmoid(ad.narrow(gates, 1, 3 * H, H))
    c = f * c_prev + i * g
    h = o * ad.tanh(c)
    return h, c


def interior_nodes(root) -> int:
    """Tape nodes reachable from root that carry a backward (leaves excluded)."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


def run_lstm_chain(step, B, H, seed, case, n_in=3, n_steps=3, gate_bias=None):
    """Unroll `step` over n_steps inputs, backpropagate, return values and gradients.

    The loss reads every step's h in time order, as the encoders' stacked
    hiddens and the decoder's per-step loss terms do, plus the last c.
    case "h-and-c" is that loss; "c-only" leaves out the last h, which is
    then unreachable; "zero-c0" starts from the constant zero cell state;
    "constant-inputs" leaves only the cell's parameters requiring grad.
    gate_bias, when given, zeroes both weight matrices so that the gate
    pre-activations are exactly the bias.
    """
    rng = np.random.default_rng(seed)
    model = Model()
    cell = LstmCell(model, "cell", n_in, H, rng)
    for p in model.params.values():
        p.data[...] = rng.normal(size=p.data.shape)
    if gate_bias is not None:
        cell.wx.data[...] = 0.0
        cell.wh.data[...] = 0.0
        cell.b.data[...] = gate_bias
    grad_in = case != "constant-inputs"
    xs = [Tensor(rng.normal(size=(B, n_in)), requires_grad=grad_in) for _ in range(n_steps)]
    h0 = Tensor(rng.normal(size=(B, H)), requires_grad=grad_in)
    c0 = (Tensor(np.zeros((B, H))) if case == "zero-c0"
          else Tensor(rng.normal(size=(B, H)), requires_grad=grad_in))
    mix_h = rng.normal(size=(n_steps, B, H))
    mix_c = rng.normal(size=(B, H))
    h, c = h0, c0
    loss = None
    for t, x in enumerate(xs):
        h, c = step(cell, x, h, c)
        if t + 1 < n_steps or case != "c-only":
            term = ad.sum_(h * Tensor(mix_h[t]))
            loss = term if loss is None else loss + term
    loss = loss + ad.sum_(c * Tensor(mix_c))
    loss.backward()
    leaves = {f"x{t}": x for t, x in enumerate(xs)}
    leaves.update({"h0": h0, "c0": c0, **model.params})
    grads = {name: t.grad for name, t in leaves.items() if t.grad is not None}
    return {"h": h.data, "c": c.data, "loss": loss.data}, grads


class TestFusedLstmCell:
    """lstm_step (one fused op) against the 15-node composition, bit for bit."""

    @pytest.mark.parametrize("case", ["h-and-c", "c-only", "zero-c0", "constant-inputs"])
    @pytest.mark.parametrize("B,H", [(1, 1), (1, 7), (25, 1), (25, 7)])
    def test_values_and_gradients_equal_the_composition(self, B, H, case):
        want, want_grads = run_lstm_chain(reference_lstm_step, B, H, seed=B + H, case=case)
        got, got_grads = run_lstm_chain(lstm_step, B, H, seed=B + H, case=case)
        for name in want:
            assert (got[name] == want[name]).all(), name
        assert got_grads.keys() == want_grads.keys()
        for name in want_grads:
            assert (got_grads[name] == want_grads[name]).all(), name
        if case == "constant-inputs":
            assert set(got_grads) == {"cell.wx", "cell.wh", "cell.b"}
        if case == "zero-c0":
            assert "c0" not in got_grads

    def test_saturated_and_infinite_gates_equal_the_composition(self):
        # i, f, g, o pre-activations at +-745 and +-inf, exactly
        bias = np.array([745.0, -np.inf, -745.0, np.inf, np.inf, -745.0, -np.inf, 745.0])
        want, want_grads = run_lstm_chain(reference_lstm_step, 4, 2, seed=3, case="h-and-c",
                                          gate_bias=bias)
        got, got_grads = run_lstm_chain(lstm_step, 4, 2, seed=3, case="h-and-c",
                                        gate_bias=bias)
        for name in want:
            assert np.isfinite(got[name]).all() and (got[name] == want[name]).all(), name
        assert got_grads.keys() == want_grads.keys()
        for name in want_grads:
            assert np.isfinite(got_grads[name]).all(), name
            assert (got_grads[name] == want_grads[name]).all(), name

    def test_last_hidden_only_loss_agrees_to_rounding(self):
        # earlier steps reached only through h_prev: the composition pushes
        # the wx terms after the earlier steps' and the fused op before
        runs = []
        for step in (reference_lstm_step, lstm_step):
            rng = np.random.default_rng(8)
            model = Model()
            cell = LstmCell(model, "cell", 3, 7, rng)
            h, c = cell.zero_state(25)
            for _ in range(4):
                h, c = step(cell, Tensor(rng.normal(size=(25, 3))), h, c)
            ad.sum_(h * Tensor(rng.normal(size=(25, 7)))).backward()
            runs.append({name: p.grad for name, p in model.params.items()})
        for name, want in runs[0].items():
            np.testing.assert_allclose(runs[1][name], want, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_input_and_state_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        model = Model()
        cell = LstmCell(model, "cell", 3, 4, rng)
        xs = [Parameter(rng.normal(size=(2, 3)), f"x{t}") for t in range(3)]
        h0 = Parameter(rng.normal(size=(2, 4)), "h0")
        c0 = Parameter(rng.normal(size=(2, 4)), "c0")
        mix_h, mix_c = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))

        def loss():
            h, c = h0, c0
            for x in xs:
                h, c = cell.step(x, h, c)
            return ad.sum_(h * Tensor(mix_h)) + ad.sum_(c * Tensor(mix_c))

        err = grad_check(loss, xs + [h0, c0], rng, n_samples=60)
        assert err < 1e-4


class TestLstmTape:
    def make_step(self, seed=0):
        rng = np.random.default_rng(seed)
        model = Model()
        cell = LstmCell(model, "cell", 3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        c0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        return cell, x, h0, c0

    def test_one_step_adds_two_nodes(self):
        cell, x, h0, c0 = self.make_step()
        h, c = lstm_step(cell, x, h0, c0)
        assert interior_nodes(h) == 2 and interior_nodes(c) == 1
        assert interior_nodes(reference_lstm_step(cell, x, h0, c0)[0]) == 17
        h2, _ = lstm_step(cell, x, h, c)
        assert interior_nodes(h2) == 4

    def test_no_grad_returns_plain_tensors(self):
        cell, x, h0, c0 = self.make_step()
        with nncore.no_grad():
            h, c = lstm_step(cell, x, h0, c0)
        assert not h.requires_grad and not c.requires_grad
        assert h.parents == () and c.parents == ()

    def test_backward_releases_both_nodes_once(self):
        cell, x, h0, c0 = self.make_step()
        h, c = lstm_step(cell, x, h0, c0)
        loss = ad.sum_(h) + ad.sum_(c)
        loss.backward()
        assert h.parents == () and c.parents == ()
        assert h.grad is None and c.grad is None
        first = cell.wx.grad.copy()
        with pytest.raises(RuntimeError):
            loss.backward()
        with pytest.raises(RuntimeError):
            ad.sum_(h * 2.0).backward()
        np.testing.assert_array_equal(cell.wx.grad, first)
