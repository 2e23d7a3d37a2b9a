"""Exact spectrum of the magnetic Dirac operator on flat tori R^n / Gamma.

A spin-c structure on the torus is described by a spin structure delta in
{0, 1}^n, flat connection parameters theta in [0, 1)^n, and a harmonic
(constant-coefficient) magnetic potential A, stored as a covector in
standard coordinates.  Each dual-lattice mode gamma* = dual_basis @ m is
shifted twice,

    theta_mode  = gamma* + (1/2) sum_j (delta_j + theta_j) gamma_j*
    theta_prime = theta_mode + A / (4 pi),

and contributes eigenvalues +-2 pi |theta_prime|, each of multiplicity
N / 2 = 2^(floor(n/2) - 1) when n >= 2.  A mode with theta_prime = 0
contributes the single eigenvalue 0 with full multiplicity N; this happens
exactly when A = -4 pi theta_mode.  For n = 1 the spinor space is
one-dimensional and each mode contributes the single *signed* eigenvalue
2 pi theta_prime, so the one-dimensional spectrum is asymmetric unless
delta + theta + L A / (2 pi) is an integer.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, check_centre
from .spectrum import Spectrum, check_size

ZERO_MODE_TOL = 1e-10


@dataclass
class SpinCData:
    """Spin-c structure data on a flat torus."""

    lattice: Lattice
    delta: np.ndarray
    theta: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        n = self.lattice.n
        delta = np.asarray(self.delta, dtype=np.int64)
        theta = np.asarray(self.theta, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        for name, arr in (("delta", delta), ("theta", theta), ("A", A)):
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError(f"delta entries must be 0 or 1, got {delta.tolist()}")
        if np.any(theta < 0.0) or np.any(theta >= 1.0):
            warnings.warn(
                "theta reduced into [0, 1); an odd integer part flips delta "
                "(the mode shift (delta + theta)/2 has period 2 in theta)",
                stacklevel=3,
            )
            delta = (delta + np.mod(np.floor(theta), 2.0).astype(np.int64)) % 2
            theta = np.mod(theta, 1.0)
        for arr in (delta, theta, A):
            arr.setflags(write=False)
        self.delta, self.theta, self.A = delta, theta, A

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def spinor_dim(self) -> int:
        return 2 ** (self.n // 2)

    def base_shift(self) -> np.ndarray:
        """Shift common to all modes: dual @ (delta + theta)/2 + A/(4 pi)."""
        half = (self.delta + self.theta) / 2.0
        return self.lattice.dual_basis @ half + self.A / (4.0 * np.pi)

    def theta_mode(self, m) -> np.ndarray:
        """Dual point shifted by spin structure and holonomy only (no A).

        ``m`` is one mode (n,) or a stack (..., n); every row is rounded
        exactly as a single mode is.
        """
        half = (self.delta + self.theta) / 2.0
        x = np.asarray(m, dtype=np.float64) + half
        return (self.lattice.dual_basis @ x[..., None])[..., 0]

    def theta_prime(self, m) -> np.ndarray:
        """Shifted dual point(s) of the mode(s) with integer coordinates m."""
        return self.theta_mode(m) + self.A / (4.0 * np.pi)


def potential_from_fluxes(lattice: Lattice, fluxes) -> np.ndarray:
    """Harmonic potential with prescribed holonomies over the generators.

    The line integral of the returned covector along generator gamma_j
    equals fluxes[j], since A = sum_j fluxes[j] gamma_j*.
    """
    fluxes = np.asarray(fluxes, dtype=np.float64)
    if fluxes.shape != (lattice.n,):
        raise ValueError(f"fluxes has shape {fluxes.shape}, expected ({lattice.n},)")
    return lattice.dual_basis @ fluxes


def mode_values(tp) -> tuple[np.ndarray, np.ndarray]:
    """(values, mults) of the modes with shifted dual points ``tp`` (K, n),
    each (K, 2): -2 pi |theta'| then 2 pi |theta'| (N/2 each), or 0 (N) if
    |theta'| <= ZERO_MODE_TOL; for n = 1, (K, 1): the signed 2 pi theta'."""
    if tp.shape[1] == 1:
        return 2.0 * np.pi * tp, np.ones(tp.shape, np.int64)
    # row-wise dot products, rounded like np.linalg.norm of one row
    r = np.sqrt(np.matmul(tp[:, None, :], tp[:, :, None])[:, 0, 0])
    zero = (r <= ZERO_MODE_TOL)[:, None]
    N = 2 ** (tp.shape[1] // 2)
    values = np.where(zero, 0.0, 2.0 * np.pi * np.stack([-r, r], axis=1))
    return values, np.where(zero, [N, 0], N // 2)


def mode_count_estimate(lattice: Lattice, cutoff: float) -> float:
    """Weyl estimate of the modes below the cutoff: the dual points in a
    ball of radius cutoff / 2 pi, vol(B_n) * |det basis|."""
    n = lattice.n
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)  # unit ball volume
    # a product, not a power: it overflows to inf instead of raising
    radius_n = math.prod([cutoff / (2.0 * math.pi)] * n)
    return ball * radius_n * abs(float(np.linalg.det(lattice.basis)))


def spectrum(data: SpinCData, cutoff: float) -> Spectrum:
    """All eigenvalues with |value| <= cutoff, merged across modes.

    The triples come from ``mode_values`` of the modes' ``theta_prime``,
    masked to the cutoff and sorted before the mode labels are attached.
    Labels are the integer mode coordinates; a merged entry lists every
    contributing mode.  Refused (ValueError) before any work when the mode
    count estimate exceeds ``spectrum.MAX_SPECTRUM_SIZE``.
    """
    cutoff = float(cutoff)
    if not np.isfinite(cutoff) or cutoff <= 0.0:
        raise ValueError(f"cutoff must be a positive number, got {cutoff!r}")
    check_size(mode_count_estimate(data.lattice, cutoff), "modes", "--cutoff")
    radius = cutoff / (2.0 * np.pi)
    modes = data.lattice.dual().enumerate_shifted(data.base_shift(), radius)
    values, mults = mode_values(data.theta_prime(modes))
    kept = np.flatnonzero((mults > 0) & (np.abs(values) <= cutoff + 1e-12))
    width, values, mults = values.shape[1], values.take(kept), mults.take(kept)
    order = np.argsort(values)  # then runs of equal values in input order: the stable order
    tie = np.diff(values.take(order)) == 0  # finite values differ by 0 only if equal
    if tie.any():  # the keys run * len + index are unique, so any sort is stable
        run = np.concatenate(([0], np.cumsum(~tie))) * len(order)
        run += order
        order = order.take(np.argsort(run))
        del run
    del tie
    labels = modes.take(kept.take(order) // width, axis=0)
    del modes, kept
    values, mults = values.take(order), mults.take(order)
    del order
    return Spectrum.from_triples(values, mults, labels)


def zero_mode(data: SpinCData) -> np.ndarray | None:
    """Integer coordinates of the zero mode, or None.

    A zero mode exists exactly when the potential cancels one shifted dual
    point, A = -4 pi theta_mode; the candidate is found by rounding the
    real solution of dual_basis @ m = -base_shift (``check_centre`` refuses
    it past 2**52) and accepted when |theta_prime| <= 1e-10.
    """
    centre = check_centre(np.linalg.solve(data.lattice.dual_basis, data.base_shift()))
    m_int = np.rint(-centre).astype(np.int64)
    if np.linalg.norm(data.theta_prime(m_int)) <= ZERO_MODE_TOL:
        return m_int
    return None

