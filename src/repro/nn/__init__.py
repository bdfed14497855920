"""``repro.nn`` — a from-scratch deep-learning substrate on numpy.

The paper's implementation relies on PyTorch; this package replaces it with
a compact reverse-mode autograd engine plus the layers, losses and
optimizers the EcoFusion architecture needs.  The public surface
intentionally mirrors PyTorch naming.
"""

from . import functional
from .attention import SpatialSelfAttention, scaled_dot_product_attention
from .flops import count_model_flops, module_flops
from .gradcheck import check_gradients, numerical_gradient
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    huber_vector,
    mse,
    smooth_l1,
)
from .optim import SGD, Adam, CosineLR, StepLR, clip_grad_norm
from .serialization import load_module, load_state, save_module, save_state
from .functional import batch_invariant
from .tensor import Tensor, as_tensor, no_grad
from . import engine

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "batch_invariant",
    "engine",
    "functional",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "SpatialSelfAttention",
    "scaled_dot_product_attention",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "smooth_l1",
    "mse",
    "huber_vector",
    "SGD",
    "Adam",
    "StepLR",
    "CosineLR",
    "clip_grad_norm",
    "save_module",
    "load_module",
    "save_state",
    "load_state",
    "count_model_flops",
    "module_flops",
    "check_gradients",
    "numerical_gradient",
]
