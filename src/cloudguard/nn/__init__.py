"""From-scratch differentiable kernel: 1-D conv/pool, LSTM, dense layers,
softmax cross-entropy, SGD/Adam, finite-difference gradient checking, and
npz checkpoints. Everything computes in float64 on numpy arrays.
"""

from .checkpoint import load_params, map_params, save_params
from .gradcheck import grad_check
from .layers import (
    PROB_FLOOR,
    ConvParams,
    DenseParams,
    LstmParams,
    conv1d_forward,
    cross_entropy_batch,
    dense_forward,
    maxpool1d_forward,
    softmax,
)
from .model import (Conv1dLayer, DenseLayer, LstmLayer, MaxPool1dLayer, ModelGraph,
                    one_blas_thread)
from .optim import Adam, Sgd

__all__ = [
    "PROB_FLOOR",
    "Adam",
    "Conv1dLayer",
    "ConvParams",
    "DenseLayer",
    "DenseParams",
    "LstmLayer",
    "LstmParams",
    "MaxPool1dLayer",
    "ModelGraph",
    "Sgd",
    "conv1d_forward",
    "cross_entropy_batch",
    "dense_forward",
    "grad_check",
    "load_params",
    "map_params",
    "maxpool1d_forward",
    "one_blas_thread",
    "save_params",
    "softmax",
]
