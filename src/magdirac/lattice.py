"""Full-rank lattices in R^n: basis/dual bookkeeping and shifted-ball
enumeration.

A lattice is stored by its basis matrix whose *columns* are the generators.
The dual basis columns gamma_j* satisfy <gamma_i, gamma_j*> = delta_ij.
Enumeration of {m in Z^n : |basis @ m + shift| <= radius} runs on the
Cholesky factor of the coordinate-reversed Gram matrix and is complete by
construction (every candidate is membership-checked exactly at the
boundary, inclusive up to an absolute 1e-9 slack on the radius).  It is the
level-synchronous form of Fincke-Pohst enumeration (Math. Comp. 44, 1985):
coordinates are fixed one at a time for all partial points at once, so
memory is O(points at the widest level).  On the reversed coordinates m[0]
is fixed first and m[n-1] last, so the points come out in row-lexicographic
order with no sort.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np


def enumerate_core(R, center, r_eff):
    """All integer vectors m with |R @ (m + center)| <= r_eff.

    ``R`` is the upper-triangular Cholesky factor (positive diagonal) of the
    quadratic form.  Level i expands every partial point (coordinates
    i+1..n-1 fixed) over its interval [lo, hi] for coordinate i, the budget
    left over from the fixed levels.  Interval bounds and pruning carry a
    1e-7 slack and every candidate is re-checked exactly against r_eff at
    the leaf, so slack never admits a wrong point and pruning never loses a
    right one.  Partial points are the columns of an (n, count) array, so
    each level's partial sums and the leaf check are matrix products.
    Returns a (count, n) int64 array, ordered lexicographically by
    (m[n-1], ..., m[0]): each level expands its parents in order.
    """
    n = R.shape[0]
    r2 = r_eff * r_eff
    slack = 1e-7
    m = np.zeros((n, 1), dtype=np.int64)  # one column per partial point
    rem = np.array([r2])
    spart = np.zeros(1)
    for i in range(n - 1, -1, -1):
        t = np.sqrt(rem) + slack
        lo = np.ceil((-t - spart) / R[i, i] - center[i]).astype(np.int64)
        hi = np.floor((t - spart) / R[i, i] - center[i]).astype(np.int64)
        width = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(lo.size), width)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
        mi = lo[parent] + offset
        ui = R[i, i] * (mi + center[i]) + spart[parent]
        contrib = ui * ui
        keep = contrib <= rem[parent] + slack
        parent, mi, contrib = parent[keep], mi[keep], contrib[keep]
        m = m.take(parent, axis=1)
        m[i] = mi
        rem = np.maximum(rem[parent] - contrib, 0.0)
        if i > 0:
            spart = R[i - 1, i:] @ (m[i:] + center[i:, None])
    # exact membership check, independent of the pruning slack
    u = R @ (m + center[:, None])
    return m.compress(np.einsum("ij,ij->j", u, u) <= r2, axis=1).T


def check_centre(center) -> np.ndarray:
    """``center``, refused (ValueError) if a coordinate is 2**52 or more in
    size: float64 spacing there is 1 or more, so its fraction is lost."""
    far = np.flatnonzero(~(np.abs(center) < 2.0 ** 52))
    if far.size:
        raise ValueError(f"centre coordinate {center[far[0]]:.6g} is 2**52 or more in size; "
                         "float64 cannot hold its fractional part")
    return center


@dataclass
class Lattice:
    """Full-rank lattice given by generator columns."""

    basis: np.ndarray
    n: int = field(init=False)
    gram: np.ndarray = field(init=False)
    dual_basis: np.ndarray = field(init=False)

    def __post_init__(self):
        basis = self._set_basis(self.basis)
        cond = np.linalg.cond(basis)
        if cond > 1e6:
            warnings.warn(
                f"lattice basis is badly conditioned (cond = {cond:.3e}); "
                "enumeration accuracy may degrade",
                stacklevel=3,
            )
        self.dual_basis = np.linalg.inv(basis).T
        pairing = basis.T @ self.dual_basis
        # the inverse is accurate to about eps * cond, so is the pairing
        if not np.abs(pairing - np.eye(self.n)).max() <= 1e-12 * cond:  # NaN fails
            raise ValueError("dual pairing failed to reproduce the identity")
        self.dual_basis.setflags(write=False)

    def _set_basis(self, basis) -> np.ndarray:
        """Set ``basis``, ``n`` and ``gram``, refusing (ValueError) a basis
        that is not square, not finite, or whose Gram matrix overflows or
        is not positive definite."""
        basis = np.array(basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError(f"basis must be square, got shape {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis contains non-finite entries")
        self.n = basis.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            self.gram = basis.T @ basis
        if not np.all(np.isfinite(self.gram)):
            raise ValueError("the Gram matrix overflows float64: the basis scale is out of range")
        try:
            np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            raise ValueError("basis is singular (Gram matrix not positive definite)")
        basis.setflags(write=False)
        self.gram.setflags(write=False)
        self.basis = basis
        return basis

    @classmethod
    def from_rows(cls, rows) -> "Lattice":
        """Lattice whose generators are the *rows* of the given matrix."""
        lattice = object.__new__(cls)  # no __init__ frame: the warning names our caller
        lattice.basis = np.array(rows, dtype=np.float64).T
        lattice.__post_init__()
        return lattice

    def dual(self) -> "Lattice":
        """The dual lattice, generated by the dual basis columns.  Its basis
        and Gram matrix are those of ``Lattice(self.dual_basis)``; the
        conditioning and pairing checks are not repeated, since
        cond(B^-T) = cond(B) and the dual of the dual is B."""
        dual = object.__new__(Lattice)
        dual._set_basis(self.dual_basis)
        dual.dual_basis = self.basis
        return dual

    def enumerate_shifted(self, shift, radius: float) -> np.ndarray:
        """Integer vectors m with |basis @ m + shift| <= radius (+1e-9).

        Returns an (count, n) int64 array in lexicographic row order, the
        order ``enumerate_core`` emits on the reversed coordinates.  The
        boundary is inclusive: points at distance exactly ``radius`` are
        always returned.  ``check_centre`` refuses (ValueError) a centre
        solve(basis, shift) with a coordinate of 2**52 or more in size.
        """
        shift = np.asarray(shift, dtype=np.float64)
        if shift.shape != (self.n,):
            raise ValueError(f"shift has shape {shift.shape}, expected ({self.n},)")
        radius = float(radius)
        if not np.isfinite(radius):
            raise ValueError(f"radius must be finite, got {radius!r}")
        center = check_centre(np.linalg.solve(self.basis, shift))
        if radius < 0.0:
            return np.empty((0, self.n), dtype=np.int64)
        upper = np.linalg.cholesky(self.gram[::-1, ::-1]).T.copy()
        return enumerate_core(upper, center[::-1], radius + 1e-9)[:, ::-1]
