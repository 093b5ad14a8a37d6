"""Versioned binary checkpoints for model parameters and optimizer state.

The format is deliberately plain (struct-packed, little-endian, fixed
field order) so that save -> load -> save reproduces the file byte for
byte.  Layout:

    magic "HYCHCKP1" | u32 version | str kind | str vocab_hash |
    str config_json | u32 n_params |
    n_params * (str name | u8 dtype | u32 ndim | u64 dims... | raw bytes) |
    u8 has_opt [| u64 t | f64 lr beta1 beta2 eps | per-param m,v arrays]

Strings are u32 length + UTF-8 bytes; arrays are C-order raw bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct

import numpy as np

MAGIC = b"HYCHCKP1"
VERSION = 1

_DTYPES = {0: np.float64, 1: np.float32}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


def _write_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


class BinaryReader:
    """Reads the fields of a binary file, never past its end.

    Each read is checked against the bytes left in the file, so a
    truncated file raises EOFError, and a corrupt length field never makes
    the reader allocate more than the file holds.
    """

    def __init__(self, fh):
        self._fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise EOFError(f"needed {n} bytes, {self.left} left")
        raw = self._fh.read(n)
        if len(raw) != n:
            raise EOFError(f"needed {n} bytes, file ended after {len(raw)}")
        self.left -= n
        return raw

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<I")
        return self.read(n).decode("utf-8")


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
    fh.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(np.ascontiguousarray(arr).tobytes())


def _read_array(reader: BinaryReader) -> np.ndarray:
    (code,) = reader.unpack("<B")
    (ndim,) = reader.unpack("<I")
    shape = reader.unpack(f"<{ndim}Q")
    dtype = np.dtype(_DTYPES[code])
    count = math.prod(shape)
    data = np.frombuffer(reader.read(count * dtype.itemsize), dtype=dtype)
    return data.reshape(shape).copy()


def save_checkpoint(
    path: str,
    kind: str,
    vocab_hash: str,
    config: dict,
    params: dict[str, np.ndarray],
    optimizer_state: dict | None = None,
) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    _write_str(buf, kind)
    _write_str(buf, vocab_hash)
    _write_str(buf, json.dumps(config, sort_keys=True))
    buf.write(struct.pack("<I", len(params)))
    for name in params:
        _write_str(buf, name)
        _write_array(buf, params[name])
    if optimizer_state is None:
        buf.write(struct.pack("<B", 0))
    else:
        buf.write(struct.pack("<B", 1))
        buf.write(struct.pack("<Q", optimizer_state["t"]))
        buf.write(struct.pack("<dddd", optimizer_state["lr"], optimizer_state["beta1"],
                              optimizer_state["beta2"], optimizer_state["eps"]))
        for name in params:
            _write_array(buf, optimizer_state["m"][name])
            _write_array(buf, optimizer_state["v"][name])
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path: str) -> dict:
    """Returns {kind, vocab_hash, config, params, optimizer_state or None}.

    Raises ValueError naming `path` when the file is not a checkpoint, has
    another version, or is truncated or corrupt.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        reader = BinaryReader(fh)
        try:
            (version,) = reader.unpack("<I")
            if version != VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            blob = _read_body(reader)
        except (EOFError, KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: truncated or corrupt checkpoint ({exc!r})") from exc
    if reader.left:
        raise ValueError(f"{path}: truncated or corrupt checkpoint (trailing bytes)")
    return blob


def _read_body(reader: BinaryReader) -> dict:
    kind = reader.read_str()
    vocab_hash = reader.read_str()
    config = json.loads(reader.read_str())
    (n_params,) = reader.unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        name = reader.read_str()
        params[name] = _read_array(reader)
    (has_opt,) = reader.unpack("<B")
    opt = None
    if has_opt:
        (t,) = reader.unpack("<Q")
        lr, beta1, beta2, eps = reader.unpack("<dddd")
        m = {}
        v = {}
        for name in params:
            m[name] = _read_array(reader)
            v[name] = _read_array(reader)
        opt = {"t": t, "lr": lr, "beta1": beta1, "beta2": beta2, "eps": eps, "m": m, "v": v}
    return {"kind": kind, "vocab_hash": vocab_hash, "config": config,
            "params": params, "optimizer_state": opt}


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
