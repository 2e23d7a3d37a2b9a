"""Test-side views of library objects, built from their public arrays."""

import argparse
import math
import os
import shlex
from pathlib import Path
from unittest import mock

import numpy as np

from magdirac import bounds, cli
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


def readme_examples() -> list:
    """The argv of each ``magdirac`` line of the README's command-line examples."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("magdirac ")]


def sphere_basic(t: float) -> float:
    """The reference ``bounds --model sphere`` checks ``basic`` against at
    coupling t: LAPACK's least positive eigenvalue of the weight-0 rows of
    the level matrices."""
    return cli._sphere_model(bounds, argparse.Namespace(t=t))[4]


def landau_rows(t: float, k_max: int) -> tuple:
    """The S^3 members of levels 0..k_max by fibre charge q and base Landau
    level l, k + 1 = 2l + |q|, as arrays (values, multiplicities, l).

    A branch row (l >= 1) is the pair 1/2 +- sqrt((t + q)^2 + 4l(l + |q|)),
    each with multiplicity 2l + |q|; an end (l = 0, q != 0) is the single
    value 1/2 + sgn(q)(t + q), with multiplicity |q|."""
    q, l = np.array([(q, l) for q in range(-k_max - 1, k_max + 2)
                     for l in range((k_max + 3 - abs(q)) // 2) if q or l]).T
    end = l == 0
    root = np.sqrt((t + q[~end]) ** 2 + 4.0 * l[~end] * (l[~end] + np.abs(q[~end])))
    values = np.concatenate([0.5 + np.sign(q[end]) * (t + q[end]), 0.5 - root, 0.5 + root])
    mults = np.concatenate([np.abs(q[end]), *2 * [2 * l[~end] + np.abs(q[~end])]])
    return values, mults, np.concatenate([l[end], l[~end], l[~end]])
