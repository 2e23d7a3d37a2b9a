"""Exact spectra of magnetic Dirac operators on round 3-spheres and
flat tori, matrix oracles that cross-validate the closed forms, and
evaluators for the associated eigenvalue bounds."""

import importlib

# public name -> the submodule that defines it (a submodule, itself); each is
# imported on first use (PEP 562), so `import magdirac` loads no submodule
_HOMES = {"bounds": "bounds", "clifford": "clifford", "oracle": "oracle", "sphere": "sphere",
          "torus": "torus", "Lattice": "lattice", "Spectrum": "spectrum", "SpinCData": "torus",
          "merge_tolerance": "spectrum"}

__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    return module if name == _HOMES[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
