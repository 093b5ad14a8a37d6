"""Adam, gradient clipping, the shared training loop, and finite-difference gradient checking."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import Parameter, Tensor

logger = logging.getLogger(__name__)

# Joint L2 bound on the gradients of a clipped training step.
CLIP_NORM = 5.0


class Adam:
    """Bias-corrected Adam over a name->Parameter dict.

    Deterministic: identical parameters, gradients, and state produce
    bit-identical updates.  Raises on non-finite gradients (naming the
    parameter) and verifies parameters stay finite after each step.
    """

    def __init__(self, params: dict[str, Parameter], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient in parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if not np.all(np.isfinite(p.data)):
                raise ValueError(f"non-finite values in parameter {name!r} after update")

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "m": self.m,
            "v": self.v,
        }

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        for name in self.params:
            self.m[name] = np.array(state["m"][name])
            self.v[name] = np.array(state["v"][name])


class EarlyStopping:
    """Validation-driven schedule: decay lr on no improvement, stop at patience.

    Metrics are minimized.  Every non-improving validation multiplies the
    learning rate by `decay`; `patience` consecutive non-improving
    validations request a stop.
    """

    def __init__(self, patience: int, decay: float):
        self.patience = patience
        self.decay = decay
        self.best = float("inf")
        self.bad_count = 0

    def update(self, metric: float, lr: float) -> tuple[float, bool, bool]:
        """Returns (new lr, should_stop, improved)."""
        if metric < self.best:
            self.best = metric
            self.bad_count = 0
            return lr, False, True
        self.bad_count += 1
        return lr * self.decay, self.bad_count >= self.patience, False


def clip_global_norm(params: dict[str, Parameter], max_norm: float = CLIP_NORM) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class TrainLog:
    """One history row per validation, and the best validation's metric and step."""

    history: list[dict] = field(default_factory=list)
    best_metric: float = float("inf")
    best_step: int = 0
    steps_run: int = 0

    @property
    def best_accuracy(self) -> float:
        """The ranker's best pairwise accuracy; 0.0 before any validation improved."""
        return self.best_metric if self.best_step else 0.0


def train_loop(model, n_examples: int, tcfg,
               batch_loss: Callable[[np.ndarray, np.random.Generator], Tensor],
               validate: Callable[[], float], metric: str, *, lr_decay: float,
               target: float | None = None, maximize: bool = False, clip: bool = False,
               vocab_hash: str = "", ckpt_path: str | None = None) -> TrainLog:
    """Adam over shuffled mini-batches with validation-driven decay and early stop.

    tcfg supplies learning_rate, batch_size, max_steps, validate_every,
    patience and seed.  Each epoch visits a fresh permutation of the
    n_examples indices in slices of batch_size (the last slice may be
    short); batch_loss(picks, dropout_rng) builds the loss of one slice.
    With clip, gradients are clipped to CLIP_NORM before each Adam step.
    Every validate_every steps and at the last step, validate() gives the
    metric (maximised when maximize is set), logged under `metric`; a miss
    multiplies the learning rate by lr_decay, patience misses in a row stop
    the run, and so does reaching target.  The best parameters are restored
    at the end; with ckpt_path, each improving validation writes its
    parameters and that step's optimizer state there.  Raises RuntimeError
    on a non-finite loss.
    """
    seed_seq = np.random.SeedSequence(tcfg.seed)
    shuffle_rng, dropout_rng = [np.random.default_rng(s) for s in seed_seq.spawn(2)]
    opt = Adam(model.params, lr=tcfg.learning_rate)
    stopper = EarlyStopping(tcfg.patience, lr_decay)
    log = TrainLog()
    best_params = {k: p.data.copy() for k, p in model.params.items()}

    order = shuffle_rng.permutation(n_examples)
    cursor = 0
    for step in range(1, tcfg.max_steps + 1):
        if cursor >= n_examples:
            order = shuffle_rng.permutation(n_examples)
            cursor = 0
        picks = order[cursor: cursor + tcfg.batch_size]
        cursor += tcfg.batch_size
        model.zero_grad()
        loss = batch_loss(picks, dropout_rng)
        if not np.isfinite(loss.data):
            raise RuntimeError(f"training diverged: non-finite loss at step {step}")
        loss.backward()
        if clip:
            clip_global_norm(model.params)
        opt.step()
        log.steps_run = step
        if step % tcfg.validate_every == 0 or step == tcfg.max_steps:
            value = validate()
            opt.lr, should_stop, improved = stopper.update(-value if maximize else value, opt.lr)
            log.history.append({"step": step, "train_loss": float(loss.data),
                                metric: value, "lr": opt.lr})
            if improved:
                log.best_metric = value
                log.best_step = step
                best_params = {k: p.data.copy() for k, p in model.params.items()}
                if ckpt_path:
                    model.save(ckpt_path, vocab_hash, opt)
            if should_stop:
                logger.info("early stop at step %d (best %s %.4f)", step, metric,
                            log.best_metric)
                break
            if target is not None and (value >= target if maximize else value < target):
                logger.info("target %s reached at step %d (%.4f)", metric, step, value)
                break
    for name, p in model.params.items():
        p.data[...] = best_params[name]
    return log


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    rng: np.random.Generator,
    n_samples: int = 200,
    step: float = 1e-4,
) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn must rebuild and return the scalar loss from current parameter
    values, deterministically.  Samples n_samples coordinates across all
    parameters and returns the maximum relative error
    |a - n| / max(|a| + |n|, 1e-6) over the sample.
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise ValueError("loss is not finite at the evaluation point")
    loss.backward()
    analytic = [p.grad.copy() for p in params]

    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = 0.0
    for flat in sorted(int(i) for i in picks):
        pi = int(np.searchsorted(offsets, flat, side="right") - 1)
        ci = flat - offsets[pi]
        p = params[pi]
        orig = p.data.flat[ci]
        p.data.flat[ci] = orig + step
        f_plus = float(loss_fn().data)
        p.data.flat[ci] = orig - step
        f_minus = float(loss_fn().data)
        p.data.flat[ci] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        ana = float(analytic[pi].flat[ci])
        rel = abs(ana - numeric) / max(abs(ana) + abs(numeric), 1e-6)
        worst = max(worst, rel)
    return worst
