"""Independent matrix oracles for the closed-form spectra.

Three matrix routes cross-check the formulas:

* Peter-Weyl level matrices of the 3-sphere operator, built from spin
  ladder entries and Pauli matrices and solved per weight block;
* single-mode Clifford matrices 2 pi i c(theta') for flat-torus modes;
* a truncated Fourier-mode assembly of the full operator for oscillating
  potentials, used for gauge-invariance and curvature-identity checks.

Eigenvalues of oracle matrices come from LAPACK (``numpy.linalg.eigvalsh``,
or the singular values of the chiral block of an even-dimensional torus
operator), which never sees the closed forms, so they are never compared
against themselves.
"""

import numpy as np

from .clifford import (PAULI_X, PAULI_Y, PAULI_Z, build_rep, two_form_action,
                       vector_action, volume_element)
from .lattice import Lattice
from .sphere import curve_samples
from .torus import SpinCData, mode_eigenvalues

MAX_OPERATOR_DIM = 4096
GAUGE_TOL = 1e-6


class HermitianMatrix:
    """Dense Hermitian matrix, validated as such at construction; an optional
    ``grading`` gives each row a chirality +-1 that the matrix reverses."""

    def __init__(self, data, grading=None):
        data = np.array(data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"matrix must be square, got shape {data.shape}")
        scale = float(np.max(np.abs(data))) if data.size else 0.0
        defect = float(np.max(np.abs(data - data.conj().T))) if data.size else 0.0
        if defect > 1e-12 * (1.0 + scale):
            raise ValueError(
                f"matrix is not Hermitian: max |H - H^*| = {defect:.3e} "
                f"at scale {scale:.3e}"
            )
        if grading is not None:
            grading = np.asarray(grading, dtype=np.float64)
            if grading.shape != data.shape[:1] or not np.all(np.abs(grading) == 1.0):
                raise ValueError(f"grading must be {data.shape[0]} entries +-1")
        data.setflags(write=False)
        self.data = data
        self.grading = grading
        self.hermiticity_defect = defect

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def hermitian_eigs(H) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, by LAPACK.

    A graded matrix is [[0, B], [B^*, 0]] up to row order: its eigenvalues are
    +-the singular values of B, plus a 0 per unpaired row.  Raises ValueError
    if it couples two rows of equal chirality.
    """
    if not isinstance(H, HermitianMatrix):
        H = HermitianMatrix(H)
    if H.grading is None:
        return np.linalg.eigvalsh(H.data)
    plus, minus = H.grading > 0, H.grading < 0
    if (np.count_nonzero(H.data[np.ix_(plus, plus)])
            or np.count_nonzero(H.data[np.ix_(minus, minus)])):
        raise ValueError("graded matrix couples two rows of equal chirality")
    s = np.linalg.svd(H.data[np.ix_(plus, minus)], compute_uv=False)
    return np.sort(np.concatenate([-s, s, np.zeros(int(abs(H.grading.sum())))]))


# ---------------------------------------------------------------------------
# 3-sphere levels (Peter-Weyl)


def sphere_level_matrix(k: int):
    """Level k of the sphere operator, on C^2 (x) V_k with V_k of spin k/2.

    Peter-Weyl splits L^2(S^3) = L^2(SU(2)) into levels V_k (x) V_k*, each
    carried k + 1 times.  In a left-invariant frame (X_a = -2i J_a,
    c(e_a) = i sigma_a; Milnor 1976, Baer 1992) one copy of level k carries
    H0 + t S, with H0 = 2 sum_a sigma_a (x) J_a + 3/2 and S = sigma_3 (x) I,
    built from the ladder entries sqrt(j(j+1) - m(m+1)) and the Pauli
    matrices alone.  Returns (H0, S, weight), with the weight
    sigma_3/2 + J_3 of each basis vector, which both matrices preserve.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    j = k / 2.0
    m = np.arange(k + 1) - j
    up = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)  # J_+
    spin = ((up + up.T) / 2, (up - up.T) / 2j, np.diag(m))
    H0 = 2.0 * sum(np.kron(s, J) for s, J in zip((PAULI_X, PAULI_Y, PAULI_Z), spin))
    H0 += 1.5 * np.eye(2 * k + 2)
    S = np.kron(PAULI_Z, np.eye(k + 1))
    return H0, S, np.add.outer([0.5, -0.5], m).ravel()


def verify_sphere_blocks(k_max: int = 30, t_values=None) -> dict:
    """Cross-check every closed-form sphere eigenvalue against the levels.

    Sorted by weight, level k splits into 1x1 ends (lowest weight: minus,
    highest: plus) and k 2x2 blocks whose ascending pairs are the branch
    members (k, p, -1), (k, p, +1); all blocks are solved at every coupling
    by one batched LAPACK call.  Every row of ``sphere.curve_samples``
    (k <= k_max; default grid 17 points on [-4, 4]) is compared with the
    member of its label, relative to 1 + |value|; a member no row reaches
    fails too.  Raises ValueError if a level couples two different weights.
    """
    if t_values is None:
        t_values = np.linspace(-4.0, 4.0, 17)
    rows = curve_samples(t_values, k_max)  # validates, refuses oversized grids
    ts = np.unique(np.asarray(t_values, dtype=np.float64))
    labels, ends, blocks = [], [], []
    for k in range(k_max + 1):
        H0, S, w = sphere_level_matrix(k)
        HS = np.stack([H0, S])
        order = np.argsort(w, kind="stable")  # minus end, k pairs, plus end
        tips, pairs = order[[0, -1]], order[1:-1].reshape(k, 2, 1)
        end, pair = HS[:, tips, tips], HS[:, pairs, pairs.transpose(0, 2, 1)]
        # the split is exact only if every nonzero entry lies in an end or a pair
        if np.count_nonzero(HS) != np.count_nonzero(end) + np.count_nonzero(pair):
            raise ValueError(f"level {k} couples two different weights")
        ends.append(end.real)
        blocks.append(pair)
        labels += [("minus", k, None, None), ("plus", k, None, None)]
    labels += [("branch", k, p, s) for k in range(k_max + 1) for p in range(k) for s in (-1, 1)]
    ends, blocks = np.concatenate(ends, axis=1), np.concatenate(blocks, axis=1)
    branch = np.linalg.eigvalsh(blocks[0] + ts[:, None, None, None] * blocks[1])
    got = np.hstack([ends[0] + ts[:, None] * ends[1], branch.reshape(len(ts), 2 * blocks.shape[1])])

    t_at = {t: i * len(labels) for i, t in enumerate(ts.tolist())}
    column = {label: c for c, label in enumerate(labels)}
    at = np.array([t_at[r[0]] + column[r[1:5]] for r in rows], dtype=np.int64)
    closed = np.array([r[5] for r in rows], dtype=np.float64)
    rel = np.abs(got.flat[at] - closed) / (1.0 + np.abs(closed))
    missing = np.setdiff1d(np.arange(got.size), at)  # members no row reaches
    keys = ("t", "family", "k", "p", "sign", "closed")
    failures = [{**dict(zip(keys, rows[i])), "oracle": got.flat[at[i]]}
                for i in np.flatnonzero(~(rel <= 1e-12))[:20]]
    failures += [{**dict(zip(keys, (ts[i // len(labels)], *labels[i % len(labels)], None))),
                  "oracle": got.flat[i]} for i in missing[:20]]
    return {
        "checks": len(rows),
        "max_residual": float(np.max(rel, initial=0.0)),
        "pass": not failures,
        "failures": failures[:20],
    }


# ---------------------------------------------------------------------------
# flat-torus single modes


def torus_mode_matrix(data: SpinCData, m) -> HermitianMatrix:
    """Restriction of the operator to one Fourier mode: 2 pi i c(theta')."""
    return HermitianMatrix(_mode_blocks(data, m))


def _random_spinc(rng, n: int) -> SpinCData:
    """Well-conditioned random torus data for sampling checks."""
    while True:
        basis = np.eye(n) + 0.4 * rng.uniform(-1.0, 1.0, size=(n, n))
        if abs(np.linalg.det(basis)) > 0.2 and np.linalg.cond(basis) < 50.0:
            break
    lat = Lattice(basis)
    delta = rng.integers(0, 2, size=n)
    theta = rng.uniform(0.0, 1.0, size=n)
    A = rng.normal(0.0, 3.0, size=n)
    return SpinCData(lat, delta, theta, A)


def verify_torus_modes(n: int = 3, samples: int = 200, seed: int = 7) -> dict:
    """Cross-check closed per-mode eigenvalues against Clifford matrices.

    Draws random lattices, spin-c data, and modes; compares the sorted
    closed-form eigenvalue list (with multiplicity) to the LAPACK spectrum
    of 2 pi i c(theta').
    """
    rng = np.random.default_rng(seed)
    residuals, failures = [], []
    for _ in range(samples):
        data = _random_spinc(rng, n)
        m = rng.integers(-6, 7, size=n)
        closed = np.sort(np.repeat(*zip(*mode_eigenvalues(data, m))))
        got = hermitian_eigs(torus_mode_matrix(data, m))
        scale = 1.0 + float(np.max(np.abs(closed))) if closed.size else 1.0
        residuals.append(float(np.max(np.abs(got - closed))) / scale)
        if residuals[-1] > 1e-12:
            failures.append({
                "mode": [int(c) for c in m],
                "theta_prime": data.theta_prime(m).tolist(),
                "closed": closed.tolist(),
                "oracle": got.tolist(),
            })
    worst = max(residuals, default=0.0)
    return {
        "checks": len(residuals),
        "max_residual": worst,
        "pass": worst <= 1e-12,
        "failures": failures[:20],
    }


# ---------------------------------------------------------------------------
# truncated Fourier assembly for oscillating potentials


def _nu_hat(lattice: Lattice, nu) -> np.ndarray:
    """Frequency nu in standard coordinates: dual_basis @ nu."""
    return lattice.dual_basis @ np.array(nu, dtype=np.float64)


class FourierPotential:
    """Oscillating one-form sum_nu a_nu exp(2 pi i <nu_hat, x>) on a torus.

    Frequencies nu are nonzero integer vectors (dual coordinates,
    nu_hat = dual_basis @ nu); coefficients are complex covectors in
    standard coordinates.  Realness requires the -nu term to carry the
    conjugate coefficient and is enforced at construction.
    """

    def __init__(self, lattice: Lattice, terms):
        self.lattice = lattice
        table = {}
        for nu, coeff in terms:
            nu = tuple(int(c) for c in nu)
            if len(nu) != lattice.n:
                raise ValueError(f"frequency {nu} has wrong length for n={lattice.n}")
            if all(c == 0 for c in nu):
                raise ValueError("zero frequency belongs in the harmonic part")
            if nu in table:
                raise ValueError(f"duplicate frequency {nu}")
            coeff = np.asarray(coeff, dtype=np.complex128)
            if coeff.shape != (lattice.n,):
                raise ValueError(
                    f"coefficient for {nu} has shape {coeff.shape}, "
                    f"expected ({lattice.n},)"
                )
            if not np.isfinite(coeff).all():
                raise ValueError(f"coefficient for {nu} is not finite")
            table[nu] = coeff
        for nu, coeff in table.items():
            mirror = tuple(-c for c in nu)
            if mirror not in table:
                raise ValueError(
                    f"realness requires a term at {mirror} conjugate to {nu}"
                )
            if np.max(np.abs(table[mirror] - np.conj(coeff))) > 1e-12:
                raise ValueError(
                    f"coefficients at {nu} and {mirror} are not conjugate"
                )
        self.table = table

    @classmethod
    def from_gradient(cls, lattice: Lattice, f_terms) -> "FourierPotential":
        """Exact one-form df of f = sum_nu c_nu exp(2 pi i <nu_hat, x>).

        ``f_terms`` is an iterable of (nu, c_nu); missing mirror frequencies
        are filled in with conjugate coefficients so f is real.
        """
        coeffs = {}
        for nu, c in f_terms:
            nu = tuple(int(x) for x in nu)
            coeffs[nu] = coeffs.get(nu, 0.0) + complex(c)
        for nu in list(coeffs):
            mirror = tuple(-c for c in nu)
            if mirror not in coeffs:
                coeffs[mirror] = np.conj(coeffs[nu])
        terms = [(nu, 2j * np.pi * c * _nu_hat(lattice, nu))
                 for nu, c in coeffs.items()]
        return cls(lattice, terms)

    def bandwidth(self) -> int:
        """Largest sup-norm of any frequency (0 when empty)."""
        return max((max(abs(c) for c in nu) for nu in self.table), default=0)

    def is_closed(self, tol: float = 1e-10) -> bool:
        """Whether every coefficient is parallel to its own frequency."""
        for nu, coeff in self.table.items():
            nu_hat = _nu_hat(self.lattice, nu)
            proj = (coeff @ nu_hat) / (nu_hat @ nu_hat) * nu_hat
            if np.max(np.abs(coeff - proj)) > tol * (1.0 + np.max(np.abs(coeff))):
                return False
        return True

    def evaluate(self, x) -> np.ndarray:
        """Pointwise value of the one-form (real by construction)."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.lattice.n, dtype=np.complex128)
        for nu, coeff in self.table.items():
            out += coeff * np.exp(2j * np.pi * (_nu_hat(self.lattice, nu) @ x))
        return out.real


def _operator_window(data: SpinCData, cutoff: int) -> np.ndarray:
    """Modes with sup-norm <= cutoff, in row-major order of m + cutoff."""
    side = 2 * int(cutoff) + 1
    dim = side ** data.n * data.spinor_dim
    if dim > MAX_OPERATOR_DIM:
        raise ValueError(
            f"operator dimension {dim} exceeds the cap {MAX_OPERATOR_DIM}; "
            "reduce the cutoff"
        )
    return np.indices((side,) * data.n).reshape(data.n, -1).T - int(cutoff)


def _assemble(modes, terms):
    """Dense operator of a convolution over shifts on the window ``modes``.

    ``terms`` maps a shift nu to the blocks placed at (m + nu, m) for every
    mode m whose image stays in the window: one (N, N) block for all modes,
    or a (len(modes), N, N) stack with one block per source mode.
    """
    K, n = modes.shape
    cutoff = int(np.max(np.abs(modes)))
    N = next(iter(terms.values())).shape[-1]
    H = np.zeros((K, N, K, N), dtype=np.complex128)
    for nu, blocks in terms.items():
        target = modes + np.asarray(nu, dtype=np.int64)
        inside = np.max(np.abs(target), axis=1) <= cutoff
        dest = np.ravel_multi_index((target[inside] + cutoff).T,
                                    (2 * cutoff + 1,) * n)
        H[dest, :, np.flatnonzero(inside), :] = (
            np.broadcast_to(blocks, (K, N, N))[inside]
        )
    return H.reshape(K * N, K * N)


def _mode_blocks(data: SpinCData, modes) -> np.ndarray:
    """Blocks 2 pi i c(theta'(m)) of the operator without oscillating part.

    ``modes`` is one mode (n,) or a stack (K, n); the blocks of a stack come
    from one contraction over the generators.
    """
    return 2j * np.pi * vector_action(data.theta_prime(modes), build_rep(data.n))


def torus_fourier_operator(
    data: SpinCData, potential: FourierPotential | None, cutoff: int
) -> tuple[HermitianMatrix, np.ndarray]:
    """Truncated matrix of the operator on modes with sup-norm <= cutoff.

    The harmonic part of the potential lives in ``data.A``; ``potential``
    holds the oscillating part (may be None).  Returns the matrix and the
    mode list in assembly order.  In even dimension the matrix carries the
    chirality grading: the diagonal of i^(n/2) g_1...g_n, tiled over the
    modes, which every block reverses.
    """
    modes = _operator_window(data, cutoff)
    terms = {(0,) * data.n: _mode_blocks(data, modes)}
    if potential is not None:
        if potential.lattice is not data.lattice and not np.allclose(
            potential.lattice.basis, data.lattice.basis, atol=1e-12
        ):
            raise ValueError("potential and spin-c data use different lattices")
        gens = build_rep(data.n)
        for nu, coeff in potential.table.items():
            terms[nu] = 0.5j * vector_action(coeff, gens)
    grading = None
    if data.n % 2 == 0:
        gamma = 1j ** (data.n // 2) * volume_element(build_rep(data.n))
        if np.count_nonzero(gamma - np.diag(np.diag(gamma))):
            raise AssertionError("the volume element is not diagonal")
        grading = np.tile(np.diag(gamma).real, len(modes))
    return HermitianMatrix(_assemble(modes, terms), grading), modes


def identity_checks(
    data: SpinCData, potential: FourierPotential | None, cutoff: int
) -> dict:
    """Structural and curvature identities of the truncated operator.

    With eta = (h + a)/2 (h = data.A, a the oscillating part), checks on
    interior rows (sup-norm <= cutoff - 2 * bandwidth, so no truncation
    error enters the products):

    * hermitian          -- assembled matrix equals its conjugate transpose;
    * covariant_skew     -- each covariant component M_j = d_j + i eta_j is
                            skew-Hermitian;
    * lichnerowicz_flat  -- (D^eta)^2 = -sum_j M_j^2 + i d(eta);
    * square_expansion   -- (D^eta)^2 = D^2 + i d(eta) + i div(eta)
                            - 2i eta.grad + |eta|^2, with D the operator
                            without any potential;
    * volume_anticommute -- in even dimension the volume element
                            anti-commutes with the operator (whole window).

    Residuals are max-entry, relative to 1 + max |lhs|; the product checks
    pass at 1e-10, the structural ones at 1e-12.
    """
    modes = _operator_window(data, cutoff)
    n, N, h = data.n, data.spinor_dim, data.A
    bw = potential.bandwidth() if potential is not None else 0
    margin = int(cutoff) - 2 * bw
    interior = np.flatnonzero(np.max(np.abs(modes), axis=1) <= margin)
    if not interior.size:
        raise ValueError(
            f"cutoff {cutoff} leaves no interior rows at bandwidth {bw}; "
            "increase the cutoff"
        )
    rows = (N * interior[:, None] + np.arange(N)).ravel()

    big, _ = torus_fourier_operator(data, potential, cutoff)
    H = big.data
    gens = build_rep(n)
    zero = (0,) * n
    tm = data.theta_mode(modes)  # shifted dual points without A
    # per shift: the covariant components (scalar, one column per j), the
    # div, grad and |eta|^2 terms of the square (scalar), and i d(eta)
    cov = {zero: 2j * np.pi * tm + 0.5j * h}
    scal = {zero: 2.0 * np.pi * (tm @ h) + (h @ h) / 4.0}
    curl = {zero: np.zeros((N, N))}  # no zero-shift part; fixes N if a is 0
    terms = potential.table if potential is not None else {}
    for nu, a in terms.items():
        nh = _nu_hat(data.lattice, nu)
        cov[nu] = 0.5j * a
        scal[nu] = (scal.get(nu, 0.0) + np.pi * (nh @ a + 2.0 * (tm @ a))
                    + (h @ a) / 2.0)
        omega = 1j * np.pi * (np.outer(nh, a) - np.outer(a, nh))
        curl[nu] = 1j * two_form_action(omega, gens)
        for nu2, a2 in terms.items():
            rho = tuple(x + y for x, y in zip(nu, nu2))
            scal[rho] = scal.get(rho, 0.0) + (a @ a2) / 4.0

    def scalar_op(table):  # (len(modes), len(modes)): one entry per block
        return _assemble(
            modes, {nu: np.reshape(s, (-1, 1, 1)) for nu, s in table.items()}
        )

    M = [scalar_op({nu: c[..., j] for nu, c in cov.items()}) for j in range(n)]
    plain = 2j * np.pi * vector_action(tm, gens)  # blocks of D: block-diagonal
    lhs = H[rows] @ H
    scale = 1.0 + float(np.max(np.abs(lhs)))
    curl_rows = _assemble(modes, curl)[rows]
    square_rows = _assemble(modes, {**curl, zero: plain @ plain})[rows]
    eye = np.eye(N)

    def product_residual(rhs):
        return float(np.max(np.abs(lhs - rhs))) / scale

    checks = {
        "hermitian": big.hermiticity_defect / (1.0 + float(np.max(np.abs(H)))),
        "covariant_skew": max(
            float(np.max(np.abs(Mj + Mj.conj().T)))
            / (1.0 + float(np.max(np.abs(Mj))))
            for Mj in M
        ),
        "lichnerowicz_flat": product_residual(
            curl_rows - np.kron(sum(Mj[interior] @ Mj for Mj in M), eye)
        ),
        "square_expansion": product_residual(
            square_rows + np.kron(scalar_op(scal)[interior], eye)
        ),
    }
    if n % 2 == 0:
        blocks = H.reshape(len(modes), N, len(modes), N).transpose(0, 2, 1, 3)
        vol = volume_element(gens)
        checks["volume_anticommute"] = float(
            np.max(np.abs(vol @ blocks + blocks @ vol))
        ) / (1.0 + float(np.max(np.abs(H))))

    structural = ("hermitian", "covariant_skew", "volume_anticommute")
    passed = all(
        r <= (1e-12 if name in structural else 1e-10)
        for name, r in checks.items()
    )
    return {
        "checks": checks,
        "interior_rows": len(interior),
        "max_residual": max(checks.values()),
        "pass": passed,
    }


def _lowest_by_abs(values: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` eigenvalues closest to zero, in ascending order.

    Selecting by |v| first (stably) and only then sorting by value keeps
    the pairing stable when the spectrum contains +-pairs that are equal
    in magnitude only up to rounding.
    """
    return np.sort(values[np.argsort(np.abs(values), kind="stable")[:count]])


def _stable_low_count(values: np.ndarray, count: int, gap: float = 1e-3) -> int:
    """Extend ``count`` so the |value| selection boundary sits at a gap.

    Degenerate clusters must never be split between the two operators
    being compared (the members picked near the boundary would then
    differ by rounding noise), so grow the selection until the next
    |value| is at least ``gap`` away; capped at 4 * count entries.
    """
    a = np.sort(np.abs(np.asarray(values, dtype=np.float64)))
    cap = min(len(a), 4 * count)
    j = min(count, len(a))
    while j < cap and a[j] - a[j - 1] <= gap:
        j += 1
    return j


def verify_gauge(
    data: SpinCData, f_terms, cutoffs=(4, 8, 12), n_low: int = 10
) -> dict:
    """Isospectrality of the operator under adding an exact form df.

    Assembles the truncated operator with the gradient potential at each
    cutoff and solves it densely; the window spectrum without it comes from
    the per-mode blocks (the operator is block-diagonal there), also by
    LAPACK.  Pairs the ``n_low`` eigenvalues closest to zero and reports
    the largest pairwise distance per cutoff.  Truncation breaks exact
    gauge invariance, so the residual must decrease as the window grows
    and fall below 1e-6 at the last cutoff.
    """
    pot = FourierPotential.from_gradient(data.lattice, f_terms)
    residuals = []
    for cutoff in cutoffs:
        with_f, modes = torus_fourier_operator(data, pot, cutoff)
        ef_all = hermitian_eigs(with_f)
        # without the potential the operator is block-diagonal by mode
        e0_all = np.sort(np.linalg.eigvalsh(_mode_blocks(data, modes)), axis=None)
        j = _stable_low_count(e0_all, n_low)
        ef = _lowest_by_abs(ef_all, j)
        e0 = _lowest_by_abs(e0_all, j)
        residuals.append(float(np.max(np.abs(ef - e0))))
    monotone = all(
        residuals[i + 1] <= residuals[i] + 1e-12 for i in range(len(residuals) - 1)
    )
    passed = bool(residuals[-1] <= GAUGE_TOL and monotone)
    return {
        "checks": len(residuals) * n_low,
        "cutoffs": [int(c) for c in cutoffs],
        "residuals": residuals,
        "monotone": monotone,
        "max_residual": residuals[-1],
        "pass": passed,
    }
