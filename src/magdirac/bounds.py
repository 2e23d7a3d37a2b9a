"""Eigenvalue bounds for magnetic Dirac operators D + i t eta.

``BOUNDS`` maps each bound name, in report order, to its evaluator.  An
evaluator takes geometric data for the *unit* one-form eta and the coupling
t, and returns a BoundValue recording the numeric bound together with what
it bounds:

* ``squared``       -- lower bound on (lambda)^2 for every eigenvalue;
* ``absolute``      -- lower bound on |lambda| for every eigenvalue;
* ``upper_squared`` -- upper bound on the square of the smallest eigenvalue.

A bound whose hypotheses fail (wrong dimension, negative scalar
curvature, negative Yamabe invariant, ...) comes back flagged vacuous
with the reason, never silently evaluated.  No model module is imported.
"""

from dataclasses import dataclass

import numpy as np

OMEGA3 = 2.0 * np.pi**2
YAMABE_S3 = 6.0 * OMEGA3 ** (2.0 / 3.0)

SOUNDNESS_TOL = 1e-9


@dataclass
class GeometricData:
    """Scalar geometric inputs for the bound evaluators.

    All norms refer to the unit-coupling one-form eta; the evaluators scale
    them by |t| themselves.  Constant-curvature data is assumed (the infima
    in the statements are then the plain values).
    """

    n: int
    S: float           # infimum of the scalar curvature
    dEta_norm: float   # sup norm |d eta| (two-form norm)
    yamabe: float      # Yamabe invariant Y(M, [g])
    vol: float         # volume
    eta_Ln: float      # L^n norm of eta
    eta_Linf: float    # L^infinity norm of eta
    oneill_b: float    # O'Neill function b, n = 3 fibrations


@dataclass
class BoundValue:
    """One evaluated bound."""

    name: str
    value: float | None
    form: str
    vacuous: bool = False
    reason: str = ""


def friedrich(data: GeometricData, t: float) -> BoundValue:
    """Curvature lower bound on the squared eigenvalues.

    (lambda)^2 >= n/(4(n-1)) (S - 4|t| floor(n/2)^(1/2) |d eta|); the
    statement assumes a nonnegative coupling, so it is applied to |t| (the
    operator for -t is the one for +t with eta negated).
    """
    n = data.n
    if n < 2:
        return BoundValue("friedrich", None, "squared", True,
                          f"needs dimension >= 2, got n={n}")
    value = n / (4.0 * (n - 1.0)) * (
        data.S - 4.0 * abs(t) * np.sqrt(n // 2) * data.dEta_norm
    )
    return BoundValue("friedrich", float(value), "squared")


def hijazi(data: GeometricData, t: float) -> BoundValue:
    """Conformal (Yamabe) lower bound on |lambda|.

    |lambda| Vol^(1/n) >= sqrt(n Y / (4(n-1))) - || t eta ||_{L^n},
    for n >= 3 and Y >= 0.
    """
    n = data.n
    if n < 3:
        return BoundValue("hijazi", None, "absolute", True,
                          f"needs dimension >= 3, got n={n}")
    if data.yamabe < 0.0:
        return BoundValue("hijazi", None, "absolute", True,
                          f"needs a nonnegative Yamabe invariant, got {data.yamabe}")
    value = (
        np.sqrt(n * data.yamabe / (4.0 * (n - 1.0))) - abs(t) * data.eta_Ln
    ) / data.vol ** (1.0 / n)
    return BoundValue("hijazi", float(value), "absolute")


def basic(data: GeometricData, t: float) -> BoundValue:
    """Lower bound on the first positive basic (flow-invariant) eigenvalue
    over a unit Killing field on a 3-manifold with S >= 0:
    b/2 + sqrt(t^2 + (S + 2b^2)/2)."""
    if data.n != 3:
        return BoundValue("basic", None, "first_positive", True,
                          f"needs dimension 3, got n={data.n}")
    if data.S < 0.0:
        return BoundValue("basic", None, "first_positive", True,
                          f"needs nonnegative scalar curvature, got {data.S}")
    b = data.oneill_b
    value = b / 2.0 + np.sqrt(t * t + 0.5 * (data.S + 2.0 * b * b))
    return BoundValue("basic", float(value), "first_positive")


def diamagnetic_upper(
    lam: float, q_ratio: float, eta_Linf: float, t: float
) -> BoundValue:
    """Variational upper bound on the smallest squared magnetic eigenvalue.

    From a lambda-eigenspinor psi of the plain Dirac operator:
    (lambda_1^{t eta})^2 <= lambda^2 - t q + t^2 ||eta||_inf^2, where
    q = Im <d(eta).psi - 2 grad_eta psi, psi> / ||psi||^2.
    """
    value = lam * lam - t * q_ratio + t * t * eta_Linf * eta_Linf
    return BoundValue("diamagnetic", float(value), "upper_squared")


def diamagnetic(data: GeometricData, t: float) -> BoundValue:
    """``diamagnetic_upper`` on the Berger 3-sphere of scalar curvature S with
    the unit Hopf form.  Its quasi-Killing sectors have lambda = 3/4 + S/8 and
    +-q, q = 3/2 + S/4; the one whose q has the sign of t gives the smaller
    bound, lambda^2 - |t| q + t^2 |eta|^2, which is one call at |t|."""
    return diamagnetic_upper(0.75 + data.S / 8.0, 1.5 + data.S / 4.0, data.eta_Linf, abs(t))


# bound name -> evaluator (GeometricData, coupling t) -> BoundValue, in report order
BOUNDS = {f.__name__: f for f in (friedrich, hijazi, basic, diamagnetic)}


def compare(bound: BoundValue, reference: float) -> dict:
    """Check a bound against a reference eigenvalue, to ``SOUNDNESS_TOL``.

    ``reference`` is the relevant exact quantity: the squared eigenvalue
    for ``squared``/``upper_squared`` forms, |lambda| for ``absolute``,
    the first positive basic eigenvalue for ``first_positive``.  Returns
    the report ``magdirac bounds`` prints: name, form, bound, reference,
    satisfied, equality and margin, in that order.
    """
    if bound.vacuous:
        raise ValueError(f"cannot compare vacuous bound {bound.name}: {bound.reason}")
    if bound.form in ("squared", "absolute", "first_positive"):
        satisfied, margin = reference >= bound.value - SOUNDNESS_TOL, reference - bound.value
    elif bound.form == "upper_squared":
        satisfied, margin = reference <= bound.value + SOUNDNESS_TOL, bound.value - reference
    else:
        raise ValueError(f"unknown bound form {bound.form!r}")
    equality = abs(reference - bound.value) <= SOUNDNESS_TOL * (1.0 + abs(bound.value))
    return {"name": bound.name, "form": bound.form, "bound": float(bound.value),
            "reference": float(reference), "satisfied": bool(satisfied),
            "equality": bool(equality), "margin": float(margin)}


def sphere3_data() -> GeometricData:
    """Round 3-sphere of curvature one with the unit Hopf one-form."""
    return GeometricData(
        n=3,
        S=6.0,
        dEta_norm=2.0,
        yamabe=YAMABE_S3,
        vol=OMEGA3,
        eta_Ln=OMEGA3 ** (1.0 / 3.0),
        eta_Linf=1.0,
        oneill_b=1.0,
    )


def torus_data(lattice_basis: np.ndarray, eta: np.ndarray) -> GeometricData:
    """Flat torus R^n / Gamma with a constant (parallel) one-form eta."""
    basis = np.asarray(lattice_basis, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    n = basis.shape[0]
    vol = float(abs(np.linalg.det(basis)))
    norm = float(np.linalg.norm(eta))
    return GeometricData(
        n=n,
        S=0.0,
        dEta_norm=0.0,
        yamabe=0.0,
        vol=vol,
        eta_Ln=norm * vol ** (1.0 / n),
        eta_Linf=norm,
        oneill_b=0.0,  # parallel eta: vanishing O'Neill tensor
    )
