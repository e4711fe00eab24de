"""Shared building blocks: parameter containers and the conv-BN-relu unit.

Initialization convention used everywhere: He-normal weights with
std = sqrt(2 / fan_in), zero biases, BN gamma 1 and beta 0. All randomness
is drawn from an explicit Prng so construction order fixes the weights.
"""

import numpy as np

from .prng import Prng
from .tensor import Tensor, activation, batch_norm, conv2d

__all__ = ["zeros_param", "BnParams", "ConvBnRelu", "Conv"]


def _he_normal(prng: Prng | None, shape: tuple) -> Tensor:
    """He-normal weight; fan_in is the product of the trailing dims. With no
    prng it draws nothing and returns zeros."""
    if prng is None:
        return zeros_param(shape)
    std = float(np.sqrt(2.0 / np.prod(shape[1:])))
    return Tensor(prng.normal(shape, std=std), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


class BnParams:
    """Affine parameters plus running-statistics buffers for one BN layer."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = zeros_param(channels)
        self.running_mean = Tensor(np.zeros(channels, dtype=np.float32))
        self.running_var = Tensor(np.ones(channels, dtype=np.float32))

    def apply(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean,
                          self.running_var, training=training)

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.g": self.gamma,
            f"{prefix}.b": self.beta,
            f"{prefix}.rm": self.running_mean,
            f"{prefix}.rv": self.running_var,
        }

    def trainables(self) -> list:
        return [self.gamma, self.beta]


class ConvBnRelu:
    """3x3 (or kxk) conv -> batch norm -> relu, the basic unit of every block.

    Padding is dilation * (k // 2), so spatial size is preserved at stride 1
    for any dilation rate.
    """

    def __init__(self, prng: Prng, cin: int, cout: int, k: int = 3,
                 dilation: int = 1, with_relu: bool = True):
        self.w = _he_normal(prng, (cout, cin, k, k))
        self.b = zeros_param(cout)
        self.bn = BnParams(cout)
        self.dilation = dilation
        self.pad = dilation * (k // 2)
        self.with_relu = with_relu

    def apply(self, x: Tensor, training: bool) -> Tensor:
        y = conv2d(x, self.w, self.b, stride=1, pad=self.pad, dilation=self.dilation)
        y = self.bn.apply(y, training)
        if self.with_relu:
            y = activation(y, "relu")
        return y

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.w": self.w, f"{prefix}.b": self.b}
        out.update(self.bn.named(f"{prefix}.bn"))
        return out

    def trainables(self) -> list:
        return [self.w, self.b] + self.bn.trainables()


class Conv:
    """Bare conv with bias, no normalization (side heads, fusion, projections)."""

    def __init__(self, prng: Prng, cin: int, cout: int, k: int = 1):
        self.w = _he_normal(prng, (cout, cin, k, k))
        self.b = zeros_param(cout)
        self.pad = k // 2

    def apply(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b, stride=1, pad=self.pad)

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def trainables(self) -> list:
        return [self.w, self.b]
