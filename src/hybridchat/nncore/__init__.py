"""Differentiable-computation core shared by the generator and the ranker."""

from . import autodiff
from .autodiff import Parameter, Tensor, no_grad
from .checkpoint import file_sha256, load_checkpoint, save_checkpoint
from .layers import (
    Linear,
    LstmCell,
    Model,
    StackedLstm,
    init_uniform,
    lstm_step,
)
from .optim import Adam, clip_global_norm, grad_check

__all__ = [
    "Adam",
    "Linear",
    "LstmCell",
    "Model",
    "Parameter",
    "StackedLstm",
    "Tensor",
    "autodiff",
    "clip_global_norm",
    "file_sha256",
    "grad_check",
    "init_uniform",
    "load_checkpoint",
    "lstm_step",
    "no_grad",
    "save_checkpoint",
]
