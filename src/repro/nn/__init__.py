"""The victim's network engine.

This package runs the C&W-style CNNs the fault-sneaking attack targets
(:mod:`repro.zoo.architectures`): forward inference, backpropagation,
training and (de)serialisation, with the parameter access hooks the attack
needs (named parameters, per-parameter gradients, logits before the softmax
layer, stacked solve lanes).  It holds only the layers, losses and metrics
those networks and their training use, and the one optimizer they train
with, Adam.
"""

from repro.nn.initializers import (
    glorot_uniform,
    he_normal,
    he_uniform,
    normal_init,
    zeros_init,
)
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.metrics import accuracy
from repro.nn.serialization import load_model, save_model, model_to_arrays, model_from_arrays
from repro.nn.quantization import QuantizationSpec, dequantize, quantize

__all__ = [
    # initializers
    "glorot_uniform",
    "he_normal",
    "he_uniform",
    "normal_init",
    "zeros_init",
    # layers
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "Softmax",
    "Dropout",
    # losses
    "Loss",
    "CrossEntropyLoss",
    # model / optim
    "Sequential",
    "Adam",
    # metrics
    "accuracy",
    # serialization
    "save_model",
    "load_model",
    "model_to_arrays",
    "model_from_arrays",
    # quantization
    "QuantizationSpec",
    "quantize",
    "dequantize",
]
