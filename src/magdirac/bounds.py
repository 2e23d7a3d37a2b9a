"""Eigenvalue bounds for magnetic Dirac operators D + i t eta.

Each evaluator takes geometric data for the *unit* one-form eta and the
coupling t, and returns a BoundValue recording the numeric bound together
with what it bounds:

* ``squared``       -- lower bound on (lambda)^2 for every eigenvalue;
* ``absolute``      -- lower bound on |lambda| for every eigenvalue;
* ``upper_squared`` -- upper bound on the square of the smallest eigenvalue.

A bound whose hypotheses fail (wrong dimension, negative Euler
characteristic, negative Yamabe invariant, ...) comes back flagged vacuous
with the reason, never silently evaluated.
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
    them by |t| themselves.  Fields that a bound does not use may stay
    None; an evaluator raises ValueError when a field it needs is missing.
    Constant-curvature data is assumed (the infima in the statements are
    then the plain values).
    """

    n: int
    S: float | None = None           # infimum of the scalar curvature
    dEta_norm: float | None = None   # sup norm |d eta| (two-form norm)
    yamabe: float | None = None      # Yamabe invariant Y(M, [g])
    vol: float | None = None         # volume
    eta_Ln: float | None = None      # L^n norm of eta
    eta_Linf: float | None = None    # L^infinity norm of eta
    chi: int | None = None           # Euler characteristic (surfaces)
    area: float | None = None        # area (surfaces)
    int_dEta: float | None = None    # integral of |d eta| (surfaces)
    nodal_count: int | None = None   # vanishing order sum N_k of an eigenspinor
    oneill_b: float | None = None    # O'Neill function b, n = 3 fibrations
    omega_norm: float | None = None  # norm |Omega| of the curvature two-form


@dataclass
class BoundValue:
    """One evaluated bound."""

    name: str
    value: float | None
    form: str
    vacuous: bool = False
    reason: str = ""


@dataclass
class BoundReport:
    """A bound checked against a reference eigenvalue."""

    name: str
    form: str
    bound: float
    reference: float
    satisfied: bool
    equality: bool
    margin: float


def _need(data: GeometricData, *fields):
    missing = [f for f in fields if getattr(data, f) is None]
    if missing:
        raise ValueError(f"geometric data lacks required fields: {missing}")


def friedrich(data: GeometricData, t: float) -> BoundValue:
    """Curvature lower bound on the squared eigenvalues.

    (lambda)^2 >= n/(4(n-1)) (S - 4|t| floor(n/2)^(1/2) |d eta|); the
    statement assumes a nonnegative coupling, so it is applied to |t| (the
    operator for -t is the one for +t with eta negated).
    """
    _need(data, "S", "dEta_norm")
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
    _need(data, "yamabe", "vol", "eta_Ln")
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


def baer(data: GeometricData, t: float) -> BoundValue:
    """Surface lower bound |lambda| >= sqrt(2 pi chi / Area) - ||t eta||_inf.

    Only for n = 2 with nonnegative Euler characteristic.
    """
    _need(data, "chi", "area", "eta_Linf")
    if data.n != 2:
        return BoundValue("baer", None, "absolute", True,
                          f"needs dimension 2, got n={data.n}")
    if data.chi < 0:
        return BoundValue("baer", None, "absolute", True,
                          f"needs nonnegative Euler characteristic, got {data.chi}")
    value = np.sqrt(2.0 * np.pi * data.chi / data.area) - abs(t) * data.eta_Linf
    return BoundValue("baer", float(value), "absolute")


def nodal(data: GeometricData, t: float, nodal_count: int | None = None) -> BoundValue:
    """Surface lower bound on the k-th squared eigenvalue via vanishing orders.

    lambda_k^2 >= (2 pi chi - |t| int |d eta| + 4 pi N_k) / vol, where N_k
    sums the vanishing orders of a k-th eigenspinor.
    """
    if nodal_count is None:
        nodal_count = data.nodal_count
    if nodal_count is None:
        raise ValueError("nodal bound needs the vanishing-order sum N_k")
    _need(data, "chi", "area", "int_dEta")
    if data.n != 2:
        return BoundValue("nodal", None, "squared", True,
                          f"needs dimension 2, got n={data.n}")
    value = (
        2.0 * np.pi * data.chi - abs(t) * data.int_dEta + 4.0 * np.pi * nodal_count
    ) / data.area
    return BoundValue("nodal", float(value), "squared")


def kernel_nodal(chi: int) -> float:
    """Vanishing-order sum of a half-spinor in the kernel: -chi/2."""
    return -float(chi) / 2.0


def basic(data: GeometricData, t: float) -> BoundValue:
    """Lower bound on basic (flow-invariant) eigenvalues over a unit
    Killing field.

    For n = 3 the bound b/2 + sqrt(t^2 + (S + 2b^2)/2) controls the first
    *positive* basic eigenvalue; for n > 3,
    -floor((n-1)/2)^(1/2) |Omega| / 2 + sqrt(t^2 + (n-1)(S + 2|Omega|^2)/(4(n-2)))
    bounds |lambda| on basic spinors.  Requires S >= 0.
    """
    n = data.n
    _need(data, "S")
    if data.S < 0.0:
        return BoundValue("basic", None, "first_positive", True,
                          f"needs nonnegative scalar curvature, got {data.S}")
    if n == 3:
        _need(data, "oneill_b")
        b = data.oneill_b
        value = b / 2.0 + np.sqrt(t * t + 0.5 * (data.S + 2.0 * b * b))
        return BoundValue("basic", float(value), "first_positive")
    if n > 3:
        _need(data, "omega_norm")
        om = data.omega_norm
        value = -np.sqrt((n - 1) // 2) * om / 2.0 + np.sqrt(
            t * t + (n - 1.0) / (4.0 * (n - 2.0)) * (data.S + 2.0 * om * om)
        )
        return BoundValue("basic", float(value), "absolute")
    return BoundValue("basic", None, "absolute", True,
                      f"needs dimension >= 3, got n={n}")


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


def sasaki_q(m: int, b: float, sector: str = "top") -> tuple[float, float]:
    """(lambda, q) pair of the Sasakian quasi-Killing spinor of type (-1/2, b).

    On an eta-Einstein Sasakian (2m+1)-manifold of scalar curvature
    2m(2m - 4b + 1), the spinor in the top sector Sigma_m gives
    q = 2m + 1 - 2b; the bottom sector Sigma_0 (odd m only) flips the sign.
    """
    lam = (2 * m + 1) / 2.0 - b
    q = 2 * m + 1 - 2.0 * b
    if sector == "top":
        return lam, q
    if sector == "bottom":
        if m % 2 == 0:
            raise ValueError("bottom-sector quasi-Killing spinor needs odd m")
        return lam, -q
    raise ValueError(f"sector must be 'top' or 'bottom', got {sector!r}")


def berger_q(S: float, sector: str = "top") -> tuple[float, float]:
    """(lambda, q) for the squashed 3-sphere of scalar curvature S.

    Both quasi-Killing spinors have eigenvalue 3/4 + S/8 and
    q = +-(3/2 + S/4) according to the sector.
    """
    lam = 0.75 + S / 8.0
    q = 1.5 + S / 4.0
    if sector == "top":
        return lam, q
    if sector == "bottom":
        return lam, -q
    raise ValueError(f"sector must be 'top' or 'bottom', got {sector!r}")


def compare(
    bound: BoundValue, reference: float, tolerance: float = SOUNDNESS_TOL
) -> BoundReport:
    """Check a bound against a reference eigenvalue.

    ``reference`` is the relevant exact quantity: the squared eigenvalue
    for ``squared``/``upper_squared`` forms, |lambda| for ``absolute``,
    the first positive basic eigenvalue for ``first_positive``.
    """
    if bound.vacuous:
        raise ValueError(f"cannot compare vacuous bound {bound.name}: {bound.reason}")
    if bound.form in ("squared", "absolute", "first_positive"):
        satisfied, margin = reference >= bound.value - tolerance, reference - bound.value
    elif bound.form == "upper_squared":
        satisfied, margin = reference <= bound.value + tolerance, bound.value - reference
    else:
        raise ValueError(f"unknown bound form {bound.form!r}")
    equality = abs(reference - bound.value) <= tolerance * (1.0 + abs(bound.value))
    return BoundReport(
        name=bound.name,
        form=bound.form,
        bound=float(bound.value),
        reference=float(reference),
        satisfied=bool(satisfied),
        equality=bool(equality),
        margin=float(margin),
    )


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
        omega_norm=1.0,
    )


def sphere_odd_data(n: int) -> GeometricData:
    """Round S^n (odd n = 2m+1 > 3) with the Reeb one-form of the Hopf
    fibration: S = n(n-1) and |Omega| = sqrt((n-1)/2)."""
    if n <= 3 or n % 2 == 0:
        raise ValueError(f"expected odd dimension > 3, got {n}")
    return GeometricData(
        n=n,
        S=float(n * (n - 1)),
        omega_norm=float(np.sqrt((n - 1) / 2.0)),
        eta_Linf=1.0,
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
    )
