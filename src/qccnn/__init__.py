"""Hybrid quantum-classical CNN lab with quantum pooling circuits.

Quantum convolution kernels simulated on dense statevectors (with four pooling
families), adjoint-gradient training against a classical baseline, and
Fisher-information effective-dimension analysis of every circuit.
"""

from .circuits import ANSATZ_KEYS, Ansatz, build_ansatz
from .data import Dataset, DataError, SyntheticSpec, generate_synthetic, load_dataset
from .nn import HybridModel, fit, make_model
from .sim import Circuit, GateOp, MidMeasure

__version__ = "0.1.0"

__all__ = [
    "ANSATZ_KEYS",
    "Ansatz",
    "Circuit",
    "DataError",
    "Dataset",
    "GateOp",
    "HybridModel",
    "MidMeasure",
    "SyntheticSpec",
    "build_ansatz",
    "fit",
    "generate_synthetic",
    "load_dataset",
    "make_model",
    "__version__",
]
