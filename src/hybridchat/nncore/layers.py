"""Parameter containers and the recurrent/dense building blocks.

Models register every trainable array in an ordered dict so optimizer
state, checkpoints, and gradient checks can address parameters by name.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .optim import Adam

INIT_SCALE = 0.08


def init_uniform(rng: np.random.Generator, shape, scale: float = INIT_SCALE, dtype=np.float64):
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


class Model:
    """Base class holding a name->Parameter registry and its checkpoint I/O.

    Training owns a model exclusively: updates mutate parameter arrays in
    place.  A subclass names its checkpoint `kind` and its `config_class`
    (the dataclass its constructor takes as `config`, next to an rng).
    """

    kind: str
    config_class: type

    def __init__(self):
        self.params: dict[str, Parameter] = {}

    def save(self, path: str, vocab_hash: str, optimizer: Adam | None = None) -> None:
        arrays = {name: p.data for name, p in self.params.items()}
        save_checkpoint(path, self.kind, vocab_hash, asdict(self.config), arrays,
                        optimizer.state_dict() if optimizer else None)

    @classmethod
    def load(cls, path: str, expected_vocab_hash: str | None = None):
        """Rebuild a saved model; keys the config dataclass no longer has are ignored."""
        blob = load_checkpoint(path)
        if blob["kind"] != cls.kind:
            raise ValueError(f"{path} holds a {blob['kind']!r} checkpoint, not a {cls.kind}")
        if expected_vocab_hash is not None and blob["vocab_hash"] != expected_vocab_hash:
            raise ValueError(f"{path}: vocabulary hash mismatch")
        values = {f.name: blob["config"][f.name] for f in fields(cls.config_class)}
        config = cls.config_class(**{k: tuple(v) if isinstance(v, list) else v
                                     for k, v in values.items()})
        model = cls(config, np.random.default_rng(0))
        for name, p in model.params.items():
            p.data[...] = blob["params"][name]
        return model

    def add_param(self, name: str, data: np.ndarray) -> Parameter:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(data, name)
        self.params[name] = p
        return p

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def set_zero(self) -> None:
        """Zero every parameter in place (degenerate-model tests)."""
        for p in self.params.values():
            p.data[...] = 0.0


class Linear:
    """Affine map x @ W + b with parameters registered on the owning model."""

    def __init__(self, model: Model, name: str, n_in: int, n_out: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.w = model.add_param(f"{name}.w", init_uniform(rng, (n_in, n_out), dtype=dtype))
        self.b = model.add_param(f"{name}.b", np.zeros(n_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b


class LstmCell:
    """Single LSTM cell; gate order in the fused weight matrices is i, f, g, o."""

    def __init__(self, model: Model, name: str, n_in: int, n_hidden: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.wx = model.add_param(f"{name}.wx", init_uniform(rng, (n_in, 4 * n_hidden), dtype=dtype))
        self.wh = model.add_param(f"{name}.wh", init_uniform(rng, (n_hidden, 4 * n_hidden), dtype=dtype))
        self.b = model.add_param(f"{name}.b", np.zeros(4 * n_hidden, dtype=dtype))

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        return lstm_step(self, x, h_prev, c_prev)

    def zero_state(self, batch: int, dtype=np.float64) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.n_hidden), dtype=dtype)
        return Tensor(z), Tensor(z.copy())


def lstm_step(cell: LstmCell, x: Tensor, h_prev: Tensor,
              c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One step of the standard four-gate LSTM on (B, n_in)/(B, H) tensors.

    Returns (h, c), built as one fused tape op (autodiff.lstm_cell).
    Raises on dimension mismatch.
    """
    H = cell.n_hidden
    if x.shape[1] != cell.n_in:
        raise ValueError(f"lstm_step: input size {x.shape[1]} != cell input size {cell.n_in}")
    if h_prev.shape[1] != H or c_prev.shape[1] != H:
        raise ValueError(f"lstm_step: state size mismatch (expected hidden size {H})")
    return ad.lstm_cell(x, h_prev, c_prev, cell.wx, cell.wh, cell.b)


class StackedLstm:
    """Stack of LSTM cells; layer l feeds its hidden sequence to layer l+1."""

    def __init__(self, model: Model, name: str, n_in: int, n_hidden: int, n_layers: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.cells = []
        for layer in range(n_layers):
            size_in = n_in if layer == 0 else n_hidden
            self.cells.append(LstmCell(model, f"{name}.l{layer}", size_in, n_hidden, rng, dtype=dtype))
        self.n_hidden = n_hidden

    def zero_state(self, batch: int, dtype=np.float64) -> list[tuple[Tensor, Tensor]]:
        return [cell.zero_state(batch, dtype=dtype) for cell in self.cells]

    def step(self, x: Tensor, states: list[tuple[Tensor, Tensor]],
             dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
             training: bool = False):
        """Advance all layers one step; returns (top hidden, new states).

        Inter-layer dropout is applied to each hidden vector before it feeds
        the next layer (never to recurrent connections).
        """
        new_states = []
        inp = x
        for layer, (cell, (h, c)) in enumerate(zip(self.cells, states)):
            h2, c2 = cell.step(inp, h, c)
            new_states.append((h2, c2))
            inp = h2
            if layer + 1 < len(self.cells) and dropout_rate > 0.0 and training:
                inp = ad.dropout(inp, dropout_rate, rng, training=True)
        return new_states[-1][0], new_states

