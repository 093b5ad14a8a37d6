"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray plus a gradient slot and a backward
closure; ops build a tape implicitly through parent links.  Only the
operations the two models in this package need are provided.  Gradients
are accumulated into leaf :class:`Parameter` objects until explicitly
cleared, mirroring the usual train-step pattern.

A graph backpropagates once.  :meth:`Tensor.backward` releases each node
as soon as its gradient has been pushed to its parents, so after the call
``.grad`` is set on leaves only (parameters and ``requires_grad`` inputs)
and the tape is freed by reference counting; a second ``backward()``
through the same graph raises ``RuntimeError``.

Importing this module pins glibc's malloc thresholds for the whole
process (see :func:`_keep_freed_heap_mapped`).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

_grad_enabled = True

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Stop glibc unmapping the arrays each training step frees.

    glibc serves blocks above its mmap threshold by mmap and returns free
    heap top above its trim threshold to the OS; both thresholds start low
    and only grow as mmapped blocks are freed.  A training step frees tens
    of MB of tape arrays at once; left to that rule, glibc hands part of
    them back and the next step faults the same pages in again, as often
    as the heap layout left by earlier work decides.  Setting the
    thresholds switches the dynamic rule off: blocks up to 32 MiB (its
    64-bit ceiling) come from the heap, and free heap top is never
    trimmed (M_TRIM_THRESHOLD -1, see mallopt(3)), since one step can free
    more than any fixed trim threshold.  Does nothing where the C library
    is not glibc.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_heap_mapped()


class no_grad:
    """Context manager that stops tape construction (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "parents", "requires_grad", "_backward")

    def __init__(self, data, parents=(), requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.parents = parents
        self.requires_grad = requires_grad
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"

    # -- graph traversal ---------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar into the leaves' .grad, freeing the graph.

        Gradients are allocated just before the first contribution to them.
        Each interior node is released once its backward closure has run:
        its closure and parent links are dropped and its .grad is cleared,
        so only leaves keep a gradient and the graph cannot be walked again.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if self._backward is _released:
            _released()
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, object]] = [(self, iter(self.parents))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for p in it:
                if p.requires_grad and id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p.parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()
        ones = np.ones_like(self.data)
        self.grad = ones if self.grad is None else self.grad + ones
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            for p in node.parents:
                if p.grad is None:
                    p.grad = np.zeros(p.data.shape, p.data.dtype)
            node._backward()
            node._backward = _released
            node.parents = ()
            node.grad = None

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)


class Parameter(Tensor):
    """Trainable leaf tensor with a unique name inside its model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _released() -> None:
    raise RuntimeError(
        "backward() through a graph that was already backpropagated; "
        "rebuild the loss to backpropagate again"
    )


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _node(data, parents) -> Tensor:
    if not _grad_enabled:
        return Tensor(data)
    req = any(p.requires_grad for p in parents)
    live = tuple(p for p in parents if p.requires_grad)
    return Tensor(data, parents=live, requires_grad=req)


# -- elementwise -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a.grad += _unbroadcast(out.grad, a.data.shape)
            if b.requires_grad:
                b.grad += _unbroadcast(out.grad, b.data.shape)
        out._backward = _bw
    return out


def neg(a: Tensor) -> Tensor:
    out = _node(-a.data, (a,))
    if out.requires_grad:
        def _bw():
            a.grad += -out.grad
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def _bw():
            if a.requires_grad:
                a.grad += _unbroadcast(out.grad * b_data, a.data.shape)
            if b.requires_grad:
                b.grad += _unbroadcast(out.grad * a_data, b.data.shape)
        out._backward = _bw
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw():
            a.grad += (1.0 - y * y) * out.grad
        out._backward = _bw
    return out


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic of an array, one formula per sign so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    y = _stable_sigmoid(a.data)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw():
            a.grad += y * (1.0 - y) * out.grad
        out._backward = _bw
    return out


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    out = _node(y, (a,))
    if out.requires_grad:
        mask = a.data > 0
        def _bw():
            a.grad += mask * out.grad
        out._backward = _bw
    return out


# -- reductions and shape ----------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            a.grad += np.broadcast_to(g, a.data.shape)
        out._backward = _bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _node(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def _bw():
            a.grad += out.grad.reshape(a.data.shape)
        out._backward = _bw
    return out


def transpose(a: Tensor, axes) -> Tensor:
    out = _node(a.data.transpose(axes), (a,))
    if out.requires_grad:
        inv = np.argsort(axes)
        def _bw():
            a.grad += out.grad.transpose(inv)
        out._backward = _bw
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def _bw():
            pieces = np.split(out.grad, splits, axis=axis)
            for t, g in zip(tensors, pieces):
                if t.requires_grad:
                    t.grad += g
        out._backward = _bw
    return out


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = _node(np.stack([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        def _bw():
            pieces = np.moveaxis(out.grad, axis, 0)
            for t, g in zip(tensors, pieces):
                if t.requires_grad:
                    t.grad += g
        out._backward = _bw
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = _node(a.data[index], (a,))
    if out.requires_grad:
        def _bw():
            a.grad[index] += out.grad
        out._backward = _bw
    return out


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not (a.data.ndim == b.data.ndim and a.data.ndim in (2, 3)) and not (
        a.data.ndim == 2 and b.data.ndim == 2
    ):
        raise ValueError(
            f"matmul supports 2Dx2D or equal-batch 3Dx3D, got {a.data.shape} @ {b.data.shape}"
        )
    out = _node(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def _bw():
            if a.requires_grad:
                a.grad += np.matmul(out.grad, b_data.swapaxes(-1, -2))
            if b.requires_grad:
                b.grad += np.matmul(a_data.swapaxes(-1, -2), out.grad)
        out._backward = _bw
    return out


# -- nonlinear blocks ----------------------------------------------------------


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    if x.size == 0:
        raise ValueError("softmax of an empty tensor")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along one axis (max subtracted for stability)."""
    y = _softmax(a.data, axis)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw():
            g = out.grad
            dot = (g * y).sum(axis=axis, keepdims=True)
            a.grad += y * (g - dot)
        out._backward = _bw
    return out


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, wx: Tensor, wh: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One four-gate LSTM step as two tape nodes; gate order i, f, g, o.

    gates = x @ wx + h_prev @ wh + b, c = f * c_prev + i * g and
    h = o * tanh(c).  The c node (parents x, h_prev, c_prev, wx, wh, b)
    backpropagates the gates and both matmuls; the h node (parent c) adds
    its share into c.grad and leaves the o-gate gradient for c, which is
    zero when no loss reaches h.  Every expression is the one the op-by-op
    composition (two matmuls, narrows, gate ops, mul/add) evaluates, so the
    values are bit-identical to it.  So are the gradients whenever the tape
    reaches each step before the next, as the generator's encoders and
    decoder do; where a loss reaches earlier steps only through h_prev, the
    per-step terms of the weight gradients are summed in another order.
    """
    H = h_prev.data.shape[1]
    x_data, h_data, c_data = x.data, h_prev.data, c_prev.data
    wx_data, wh_data = wx.data, wh.data
    gates = np.matmul(x_data, wx_data) + np.matmul(h_data, wh_data) + b.data
    act = _stable_sigmoid(gates)          # the g block is unused: g takes tanh
    i, f, o = act[:, :H], act[:, H:2 * H], act[:, 3 * H:]
    g = np.tanh(gates[:, 2 * H:3 * H])
    c = _node(f * c_data + i * g, (x, h_prev, c_prev, wx, wh, b))
    tc = np.tanh(c.data)
    h = _node(o * tc, (c,))
    if not c.requires_grad:
        return h, c
    d_o = [None]

    def _bw_h():
        dh = h.grad
        c.grad += (1.0 - tc * tc) * (dh * o)
        d_o[0] = o * (1.0 - o) * (dh * tc)

    def _bw_c():
        dc = c.grad
        dgates = np.empty_like(act)
        dgates[:, :H] = i * (1.0 - i) * (dc * g)
        dgates[:, H:2 * H] = f * (1.0 - f) * (dc * c_data)
        dgates[:, 2 * H:3 * H] = (1.0 - g * g) * (dc * i)
        dgates[:, 3 * H:] = 0.0 if d_o[0] is None else d_o[0]
        if c_prev.requires_grad:
            c_prev.grad += dc * f
        if b.requires_grad:
            b.grad += _unbroadcast(dgates, b.data.shape)
        if h_prev.requires_grad:
            h_prev.grad += np.matmul(dgates, wh_data.swapaxes(-1, -2))
        if wh.requires_grad:
            wh.grad += np.matmul(h_data.swapaxes(-1, -2), dgates)
        if x.requires_grad:
            x.grad += np.matmul(dgates, wx_data.swapaxes(-1, -2))
        if wx.requires_grad:
            wx.grad += np.matmul(x_data.swapaxes(-1, -2), dgates)

    h._backward = _bw_h
    c._backward = _bw_c
    return h, c


NEG_INF = -1e30


def dot_attention(e_cols: Tensor, col_mask: np.ndarray,
                  s_top: Tensor) -> tuple[Tensor, Tensor]:
    """Dot-product attention of (B, H) queries over (B, C, H) columns as one node.

    Scores of masked-out columns (col_mask 0) are pinned to NEG_INF before a
    max-shifted softmax.  Returns (weights, context): the (B, C) weights as a
    constant Tensor, which no gradient flows through, and the (B, H)
    weighted sum of the columns, with parents e_cols and s_top.  Forward and
    backward evaluate the same expressions, in the same order, as the
    composition of batched matmuls, mask, softmax and reshapes.
    """
    B, C, H = e_cols.data.shape
    e_data = e_cols.data
    s_col = s_top.data.reshape((B, H, 1))
    scores = np.matmul(e_data, s_col).reshape((B, C))
    y = _softmax(scores * col_mask + (1.0 - col_mask) * NEG_INF, -1)
    y_row = y.reshape((B, 1, C))
    ctx = _node(np.matmul(y_row, e_data).reshape((B, H)), (e_cols, s_top))
    if ctx.requires_grad:
        def _bw():
            d_ctx = ctx.grad.reshape((B, 1, H))
            if e_cols.requires_grad:
                e_cols.grad += np.matmul(y_row.swapaxes(-1, -2), d_ctx)
            g = np.matmul(d_ctx, e_data.swapaxes(-1, -2)).reshape((B, C))
            dot = (g * y).sum(axis=-1, keepdims=True)
            d_scores = (y * (g - dot) * col_mask).reshape((B, C, 1))
            if e_cols.requires_grad:
                e_cols.grad += np.matmul(d_scores, s_col.swapaxes(-1, -2))
            if s_top.requires_grad:
                s_top.grad += np.matmul(e_data.swapaxes(-1, -2), d_scores).reshape((B, H))
        ctx._backward = _bw
    return Tensor(y), ctx


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row negative log-likelihood of integer targets under softmax(logits).

    logits: (N, V); targets: int array (N,).  Returns (N,).  Fused for
    numerical stability: works directly on shifted logits.
    """
    targets = np.asarray(targets)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    nll = (lse[:, 0] - z[rows, targets])
    out = _node(nll, (logits,))
    if out.requires_grad:
        def _bw():
            p = np.exp(z - lse)
            p[rows, targets] -= 1.0
            logits.grad += p * out.grad[:, None]
        out._backward = _bw
    return out


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: (…) int ids against a (V, d) table -> (…, d)."""
    ids = np.asarray(ids)
    out = _node(weight.data[ids], (weight,))
    if out.requires_grad:
        d = weight.data.shape[1]
        def _bw():
            np.add.at(weight.grad, ids.reshape(-1), out.grad.reshape(-1, d))
        out._backward = _bw
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate) so inference is identity."""
    if not training or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return mul(a, Tensor(mask.astype(a.data.dtype)))


# -- convolution and pooling ---------------------------------------------------


def conv2d_valid(x: Tensor, w: Tensor) -> Tensor:
    """Valid 2-D convolution: x (B, C, H, W) with kernels w (K, C, kh, kw)."""
    B, C, H, W = x.data.shape
    K, C2, kh, kw = w.data.shape
    if C != C2:
        raise ValueError(f"channel mismatch: input {C} vs kernel {C2}")
    if H < kh or W < kw:
        raise ValueError(f"input {H}x{W} smaller than kernel {kh}x{kw}")
    oh, ow = H - kh + 1, W - kw + 1
    sB, sC, sH, sW = x.data.strides
    view = np.lib.stride_tricks.as_strided(
        x.data, shape=(B, C, oh, ow, kh, kw), strides=(sB, sC, sH, sW, sH, sW)
    )
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 1, 4, 5)).reshape(B, oh * ow, C * kh * kw)
    wmat = w.data.reshape(K, C * kh * kw)
    y = np.matmul(cols, wmat.T)                      # (B, oh*ow, K)
    out = _node(y.transpose(0, 2, 1).reshape(B, K, oh, ow), (x, w))
    if out.requires_grad:
        def _bw():
            gk = out.grad.reshape(B, K, oh * ow)
            g = gk.transpose(0, 2, 1)                              # (B, oh*ow, K)
            if w.requires_grad:
                dw = np.matmul(gk, cols).sum(axis=0)               # (K, C*kh*kw)
                w.grad += dw.reshape(K, C, kh, kw)
            if x.requires_grad:
                gcols = np.matmul(g, wmat).reshape(B, oh, ow, C, kh, kw)
                gx = np.zeros_like(x.data)
                for s in range(kh):
                    for t in range(kw):
                        gx[:, :, s:s + oh, t:t + ow] += gcols[:, :, :, :, s, t].transpose(0, 3, 1, 2)
                x.grad += gx
        out._backward = _bw
    return out


def max_pool2d(x: Tensor, ph: int, pw: int) -> Tensor:
    """Non-overlapping (ph, pw) max pooling; trailing remainder rows/cols dropped.

    Gradient routes to the first maximal element of each window.
    """
    B, C, H, W = x.data.shape
    nh, nw = H // ph, W // pw
    if nh == 0 or nw == 0:
        raise ValueError(f"input {H}x{W} smaller than pooling window {ph}x{pw}")
    cropped = x.data[:, :, : nh * ph, : nw * pw]
    windows = cropped.reshape(B, C, nh, ph, nw, pw).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(B, C, nh, nw, ph * pw)
    out = _node(flat.max(axis=-1), (x,))
    if out.requires_grad:
        idx = flat.argmax(axis=-1)
        def _bw():
            gwin = np.zeros_like(flat)
            np.put_along_axis(gwin, idx[..., None], out.grad[..., None], axis=-1)
            gfull = np.zeros_like(x.data)
            gfull[:, :, : nh * ph, : nw * pw] = (
                gwin.reshape(B, C, nh, nw, ph, pw).transpose(0, 1, 2, 4, 3, 5).reshape(
                    B, C, nh * ph, nw * pw
                )
            )
            x.grad += gfull
        out._backward = _bw
    return out
