"""Test-side views of library objects, built from their public arrays."""

import math
import os
from unittest import mock

import numpy as np

from magdirac.bounds import GeometricData
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


def odd_sphere_data(m: int) -> GeometricData:
    """Round S^(2m+1) of curvature one with the unit Hopf one-form eta(x) = Jx:
    d(eta) = 2 Phi, Phi the transverse Kaehler form, so |d eta| = 2 sqrt(m);
    vol = 2 pi^(m+1) / m!, and by Obata Y = n(n - 1) vol^(2/n).  At m = 1 it
    is ``bounds.sphere3_data()``."""
    n, vol = 2 * m + 1, 2.0 * np.pi ** (m + 1) / math.factorial(m)
    return GeometricData(n=n, S=n * (n - 1.0), dEta_norm=2.0 * math.sqrt(m),
                         yamabe=n * (n - 1.0) * vol ** (2.0 / n), vol=vol,
                         eta_Ln=vol ** (1.0 / n), eta_Linf=1.0, oneill_b=1.0)
