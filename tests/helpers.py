"""Test-side views of library objects, built from their public arrays."""

import os
from unittest import mock

import numpy as np

from magdirac.oracle import _scatter
from magdirac.spectrum import merge_tolerance


def entries(spec) -> list:
    """(value, multiplicity, label tuples) of each entry of ``spec``."""
    labels, offsets = spec.members()
    rows, bounds = list(map(tuple, labels.tolist())), offsets.tolist()
    return [(v, m, tuple(rows[a:b])) for v, m, a, b in
            zip(spec.values().tolist(), spec.multiplicities().tolist(), bounds, bounds[1:])]


def multiplicity_at(spec, value: float) -> int:
    """Total multiplicity of ``spec`` within the merge tolerance of ``value``."""
    return int(spec.multiplicities()[np.abs(spec.values() - value) <= merge_tolerance()].sum())


def tolerance(tol: float):
    """Context in which the merge tolerance is ``tol`` (> 0)."""
    return mock.patch.dict(os.environ, {"MAGDIRAC_TOLERANCE": repr(tol)})


def as_dense(H) -> np.ndarray:
    """The dense array of a ``HermitianMatrix``."""
    return _scatter((H.rows, H.cols), H.values, (H.dim, H.dim))
