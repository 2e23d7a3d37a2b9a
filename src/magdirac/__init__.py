"""Exact spectra of magnetic Dirac operators on round 3-spheres and
flat tori, matrix oracles that cross-validate the closed forms, and
evaluators for the associated eigenvalue bounds."""

from . import bounds, clifford, oracle, sphere, torus
from .lattice import Lattice
from .spectrum import Spectrum, SpectrumEntry, merge_tolerance
from .torus import SpinCData

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "clifford",
    "oracle",
    "sphere",
    "torus",
    "Lattice",
    "Spectrum",
    "SpectrumEntry",
    "SpinCData",
    "merge_tolerance",
    "__version__",
]
