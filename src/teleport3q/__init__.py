"""Verification toolkit for two-party quantum teleportation over shared states whose last qubit is the receiver's."""

__version__ = "0.5.0"

from . import feasibility, linalg, protocols, states
from .linalg import *
from .states import *
from .protocols import *
from .feasibility import *

__all__ = ["__version__", *linalg.__all__, *states.__all__, *protocols.__all__, *feasibility.__all__]
