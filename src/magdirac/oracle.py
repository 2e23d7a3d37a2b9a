"""Independent matrix oracles for the closed-form spectra.

Three matrix routes cross-check the formulas:

* 2x2 (and degenerate 1x1) coupling blocks for the 3-sphere families,
  assembled directly from the recursion coefficients;
* single-mode Clifford matrices 2 pi i c(theta') for flat-torus modes;
* a truncated Fourier-mode assembly of the full operator for oscillating
  potentials, used for gauge-invariance and curvature-identity checks.

Eigenvalues of oracle matrices come from LAPACK (``numpy.linalg.eigvalsh``),
which never sees the closed forms, so they are never compared against
themselves.
"""

import itertools

import numpy as np

from .clifford import build_rep, two_form_action, vector_action, volume_element
from .lattice import Lattice
from .sphere import f0
from .torus import SpinCData, mode_eigenvalues

MAX_OPERATOR_DIM = 4096
GAUGE_TOL = 1e-6


class HermitianMatrix:
    """Dense Hermitian matrix, validated as such at construction."""

    def __init__(self, data):
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
        data.setflags(write=False)
        self.data = data
        self.hermiticity_defect = defect

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eigs(self)


def hermitian_eigs(H) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, by LAPACK."""
    if not isinstance(H, HermitianMatrix):
        H = HermitianMatrix(H)
    return np.linalg.eigvalsh(H.data)


# ---------------------------------------------------------------------------
# 3-sphere blocks


def _check_block_indices(k, p):
    k, p = int(k), int(p)
    if k < 0 or not 0 <= p < k:
        raise ValueError(f"block indices need 0 <= p < k, got k={k}, p={p}")
    return k, p


def sphere_block(k: int, p: int, t: float) -> HermitianMatrix:
    """Traceless 2x2 coupling block of the sphere operator at (k, p).

    In the orthonormalized pair basis the block is

        [[1 + t + 2p - k,          -2i sqrt((p+1)(k-p))],
         [2i sqrt((p+1)(k-p)),      k - t - 2p - 1     ]],

    with eigenvalues +-sqrt(f0(k, p, t)); the operator itself acts as
    1/2 + block, giving the branch values 1/2 +- sqrt(f0).
    """
    k, p = _check_block_indices(k, p)
    a = 1.0 + t + 2 * p - k
    off = 2.0 * np.sqrt((p + 1) * (k - p))
    return HermitianMatrix([[a, -1j * off], [1j * off, -a]])


def sphere_block_raw(k: int, p: int, t: float) -> np.ndarray:
    """Coupling block in the unnormalized pair basis.

    Not Hermitian unless k - p = p + 1, but similar to the balanced block:
    same trace (0), determinant (-f0), and eigenvalues.
    """
    k, p = _check_block_indices(k, p)
    a = 1.0 + t + 2 * p - k
    return np.array(
        [[a, -2j * (p + 1)], [2j * (k - p), -a]], dtype=np.complex128
    )


def sphere_family_scalar(k: int, t: float, family: str) -> HermitianMatrix:
    """Degenerate 1x1 block of the plus (p = k) / minus (p = -1) families.

    The coupling coefficient vanishes at the chain ends, leaving the single
    diagonal entry; the operator value is 1/2 + entry.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    if family == "plus":
        return HermitianMatrix([[1.0 + t + k]])
    if family == "minus":
        return HermitianMatrix([[1.0 - t + k]])
    raise ValueError(f"family must be 'plus' or 'minus', got {family!r}")


def sphere_block_eigenvalues(k: int, p: int, t: float) -> np.ndarray:
    """Branch pair at (k, p) via the matrix route: 1/2 + eig(block)."""
    return 0.5 + hermitian_eigs(sphere_block(k, p, t))


def verify_sphere_blocks(k_max: int = 30, t_values=None) -> dict:
    """Cross-check every closed-form sphere eigenvalue against its block.

    Covers all branch pairs 0 <= p < k and both scalar families for
    k <= k_max on the coupling grid (default 17 points on [-4, 4]).
    Relative residuals are measured against 1 + |value|.
    """
    if t_values is None:
        t_values = np.linspace(-4.0, 4.0, 17)
    checks = 0
    worst = 0.0
    failures = []

    def record(closed, got, where):
        nonlocal checks, worst
        checks += 1
        rel = abs(got - closed) / (1.0 + abs(closed))
        if rel > worst:
            worst = rel
        if rel > 1e-12:
            failures.append({**where, "closed": closed, "oracle": got})

    for t in t_values:
        t = float(t)
        for k in range(k_max + 1):
            for family in ("plus", "minus"):
                sgn = 1.0 if family == "plus" else -1.0
                closed = 1.5 + sgn * t + k
                got = 0.5 + hermitian_eigs(sphere_family_scalar(k, t, family))[0]
                record(closed, float(got), {"t": t, "k": k, "family": family})
            for p in range(k):
                root = np.sqrt(f0(k, p, t))
                got = sphere_block_eigenvalues(k, p, t)
                record(0.5 - root, float(got[0]),
                       {"t": t, "k": k, "p": p, "sign": -1})
                record(0.5 + root, float(got[1]),
                       {"t": t, "k": k, "p": p, "sign": 1})

    return {
        "checks": checks,
        "max_residual": worst,
        "pass": worst <= 1e-12,
        "failures": failures[:20],
    }


# ---------------------------------------------------------------------------
# flat-torus single modes


def torus_mode_matrix(data: SpinCData, m) -> HermitianMatrix:
    """Restriction of the operator to one Fourier mode: 2 pi i c(theta')."""
    gens = build_rep(data.n)
    return HermitianMatrix(2j * np.pi * vector_action(data.theta_prime(m), gens))


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
    checks = 0
    worst = 0.0
    failures = []
    for _ in range(samples):
        data = _random_spinc(rng, n)
        m = rng.integers(-6, 7, size=n)
        closed = np.sort(np.repeat(*zip(*mode_eigenvalues(data, m))))
        got = hermitian_eigs(torus_mode_matrix(data, m))
        scale = 1.0 + float(np.max(np.abs(closed))) if closed.size else 1.0
        rel = float(np.max(np.abs(got - closed))) / scale
        checks += 1
        if rel > worst:
            worst = rel
        if rel > 1e-12:
            failures.append({
                "mode": [int(c) for c in m],
                "theta_prime": data.theta_prime(m).tolist(),
                "closed": closed.tolist(),
                "oracle": got.tolist(),
            })
    return {
        "checks": checks,
        "max_residual": worst,
        "pass": worst <= 1e-12,
        "failures": failures[:20],
    }


# ---------------------------------------------------------------------------
# truncated Fourier assembly for oscillating potentials


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
        terms = []
        for nu, c in coeffs.items():
            nu_hat = lattice.dual_basis @ np.array(nu, dtype=np.float64)
            terms.append((nu, 2j * np.pi * c * nu_hat))
        return cls(lattice, terms)

    def bandwidth(self) -> int:
        """Largest sup-norm of any frequency (0 when empty)."""
        if not self.table:
            return 0
        return max(max(abs(c) for c in nu) for nu in self.table)

    def is_closed(self, tol: float = 1e-10) -> bool:
        """Whether every coefficient is parallel to its own frequency."""
        for nu, coeff in self.table.items():
            nu_hat = self.lattice.dual_basis @ np.array(nu, dtype=np.float64)
            proj = (coeff @ nu_hat) / (nu_hat @ nu_hat) * nu_hat
            if np.max(np.abs(coeff - proj)) > tol * (1.0 + np.max(np.abs(coeff))):
                return False
        return True

    def evaluate(self, x) -> np.ndarray:
        """Pointwise value of the one-form (real by construction)."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.lattice.n, dtype=np.complex128)
        for nu, coeff in self.table.items():
            nu_hat = self.lattice.dual_basis @ np.array(nu, dtype=np.float64)
            out += coeff * np.exp(2j * np.pi * (nu_hat @ x))
        return out.real


def _window_modes(n: int, cutoff: int) -> np.ndarray:
    rng = range(-cutoff, cutoff + 1)
    return np.array(list(itertools.product(rng, repeat=n)), dtype=np.int64)


def _assemble(modes, index, N, diag_block, couplings):
    """Dense banded operator from diagonal and shifted blocks.

    ``diag_block(m)`` gives the (N, N) block at (m, m); ``couplings`` is a
    list of (nu, block_fn) placing block_fn(m) at (m + nu, m).
    """
    dim = len(modes) * N
    H = np.zeros((dim, dim), dtype=np.complex128)
    for i, m in enumerate(modes):
        blk = diag_block(m)
        if blk is not None:
            H[i * N:(i + 1) * N, i * N:(i + 1) * N] += blk
    for nu, block_fn in couplings:
        nu = np.asarray(nu, dtype=np.int64)
        for i, m in enumerate(modes):
            j = index.get(tuple(m + nu))
            if j is not None:
                H[j * N:(j + 1) * N, i * N:(i + 1) * N] += block_fn(m)
    return H


def _operator_window(data: SpinCData, cutoff: int):
    modes = _window_modes(data.n, int(cutoff))
    dim = len(modes) * data.spinor_dim
    if dim > MAX_OPERATOR_DIM:
        raise ValueError(
            f"operator dimension {dim} exceeds the cap {MAX_OPERATOR_DIM}; "
            "reduce the cutoff"
        )
    index = {tuple(m): i for i, m in enumerate(modes)}
    return modes, index


def torus_fourier_operator(
    data: SpinCData, potential: FourierPotential | None, cutoff: int
) -> tuple[HermitianMatrix, np.ndarray]:
    """Truncated matrix of the operator on modes with sup-norm <= cutoff.

    The harmonic part of the potential lives in ``data.A``; ``potential``
    holds the oscillating part (may be None).  Returns the matrix and the
    mode list in assembly order.
    """
    modes, index = _operator_window(data, cutoff)
    gens = build_rep(data.n)

    def diag(m):
        return 2j * np.pi * vector_action(data.theta_prime(m), gens)

    couplings = []
    if potential is not None:
        if potential.lattice is not data.lattice and not np.allclose(
            potential.lattice.basis, data.lattice.basis, atol=1e-12
        ):
            raise ValueError("potential and spin-c data use different lattices")
        for nu, coeff in potential.table.items():
            blk = 0.5j * vector_action(coeff, gens)
            couplings.append((nu, lambda m, blk=blk: blk))

    H = _assemble(modes, index, data.spinor_dim, diag, couplings)
    return HermitianMatrix(H), modes


def identity_checks(
    data: SpinCData, potential: FourierPotential | None, cutoff: int
) -> dict:
    """Structural and curvature identities of the truncated operator.

    Checks, on interior rows (sup-norm <= cutoff - 2 * bandwidth, so no
    truncation error enters the products):

    * hermitian          -- assembled matrix equals its conjugate transpose;
    * covariant_skew     -- each covariant component M_j = d_j + i eta_j is
                            skew-Hermitian;
    * lichnerowicz_flat  -- (D^eta)^2 = -sum_j M_j^2 + i d(eta).
    * square_expansion   -- (D^eta)^2 = D^2 + i d(eta). + i div-term
                            - 2i grad-term + |eta|^2;
    * volume_anticommute -- in even dimension the volume element
                            anti-commutes with the operator (whole window).

    Residuals are max-entry, relative to 1 + max |lhs|; the product checks
    pass at 1e-10, the structural ones at 1e-12.
    """
    modes, index = _operator_window(data, cutoff)
    gens = build_rep(data.n)
    N = data.spinor_dim
    n = data.n
    h = data.A
    terms = dict(potential.table) if potential is not None else {}
    bw = max((max(abs(c) for c in nu) for nu in terms), default=0)
    margin = int(cutoff) - 2 * bw
    interior = [i for i, m in enumerate(modes) if np.max(np.abs(m)) <= margin]
    if not interior:
        raise ValueError(
            f"cutoff {cutoff} leaves no interior rows at bandwidth {bw}; "
            "increase the cutoff"
        )
    rows = np.concatenate(
        [np.arange(i * N, (i + 1) * N) for i in interior]
    )

    big, _ = torus_fourier_operator(data, potential, cutoff)
    H = big.data

    def nu_hat(nu):
        return data.lattice.dual_basis @ np.array(nu, dtype=np.float64)

    # plain Dirac operator (no magnetic potential at all)
    D_plain = _assemble(
        modes, index, N,
        lambda m: 2j * np.pi * vector_action(data.theta_mode(m), gens),
        [],
    )

    # i d(eta) with eta = (h + a)/2: only the oscillating part contributes
    curv_couplings = []
    for nu, coeff in terms.items():
        om = np.zeros((n, n), dtype=np.complex128)
        nh = nu_hat(nu)
        for j in range(n):
            for l in range(n):
                om[j, l] = 1j * np.pi * (nh[j] * coeff[l] - nh[l] * coeff[j])
        blk = 1j * two_form_action(om, gens)
        curv_couplings.append((nu, lambda m, blk=blk: blk))
    T_curl = _assemble(modes, index, N, lambda m: None, curv_couplings)

    # i (div eta). : scalar -i pi <nu_hat, a_nu> per shift, times i
    div_couplings = []
    for nu, coeff in terms.items():
        scalar = np.pi * (nu_hat(nu) @ coeff)
        blk = scalar * np.eye(N, dtype=np.complex128)
        div_couplings.append((nu, lambda m, blk=blk: blk))
    T_div = _assemble(modes, index, N, lambda m: None, div_couplings)

    # -2i (directional derivative along eta)
    def grad_diag(m):
        return 2.0 * np.pi * (h @ data.theta_mode(m)) * np.eye(N, dtype=np.complex128)

    grad_couplings = []
    for nu, coeff in terms.items():
        def blk_fn(m, coeff=coeff):
            return (
                2.0 * np.pi * (coeff @ data.theta_mode(m))
                * np.eye(N, dtype=np.complex128)
            )
        grad_couplings.append((nu, blk_fn))
    T_grad = _assemble(modes, index, N, grad_diag, grad_couplings)

    # |eta|^2 as a convolution: eta_j = h_j/2 + sum_nu (a_nu)_j/2 e_nu
    sq_scalars = {(0,) * n: float(h @ h) / 4.0}
    for nu, coeff in terms.items():
        sq_scalars[nu] = sq_scalars.get(nu, 0.0) + (h @ coeff) / 2.0
    for (nu1, c1), (nu2, c2) in itertools.product(terms.items(), repeat=2):
        rho = tuple(a + b for a, b in zip(nu1, nu2))
        sq_scalars[rho] = sq_scalars.get(rho, 0.0) + (c1 @ c2) / 4.0
    sq_couplings = [
        (rho, lambda m, s=s: s * np.eye(N, dtype=np.complex128))
        for rho, s in sq_scalars.items()
        if any(c != 0 for c in rho)
    ]
    zero_key = (0,) * n
    T_sq = _assemble(
        modes, index, N,
        lambda m: sq_scalars.get(zero_key, 0.0) * np.eye(N, dtype=np.complex128),
        sq_couplings,
    )

    # covariant components M_j = d_j + i eta_j (scalar blocks)
    M_list = []
    for j in range(n):
        def mj_diag(m, j=j):
            return (
                (2j * np.pi * data.theta_mode(m)[j] + 0.5j * h[j])
                * np.eye(N, dtype=np.complex128)
            )
        mj_couplings = [
            (nu, lambda m, c=coeff[j]: 0.5j * c * np.eye(N, dtype=np.complex128))
            for nu, coeff in terms.items()
        ]
        M_list.append(_assemble(modes, index, N, mj_diag, mj_couplings))

    checks = {}
    checks["hermitian"] = big.hermiticity_defect / (1.0 + np.max(np.abs(H)))
    skew = max(
        float(np.max(np.abs(M + M.conj().T))) / (1.0 + float(np.max(np.abs(M))))
        for M in M_list
    )
    checks["covariant_skew"] = skew

    lhs = (H @ H)[rows]
    scale = 1.0 + float(np.max(np.abs(lhs)))

    rhs_lich = -sum(M @ M for M in M_list) + T_curl
    checks["lichnerowicz_flat"] = float(
        np.max(np.abs(lhs - rhs_lich[rows]))
    ) / scale

    rhs_sq = (D_plain @ D_plain)[rows] + (T_curl + T_div + T_grad + T_sq)[rows]
    checks["square_expansion"] = float(np.max(np.abs(lhs - rhs_sq))) / scale

    if n % 2 == 0:
        vol = volume_element(gens)
        V = np.kron(np.eye(len(modes), dtype=np.complex128), vol)
        anti = V @ H + H @ V
        checks["volume_anticommute"] = float(np.max(np.abs(anti))) / (
            1.0 + float(np.max(np.abs(H)))
        )

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

    Selecting by |v| first and only then sorting by value keeps the
    pairing stable when the spectrum contains +-pairs that are equal in
    magnitude only up to rounding.
    """
    order = sorted(values, key=abs)[:count]
    return np.array(sorted(order), dtype=np.float64)


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

    Assembles the truncated operator with and without the gradient
    potential at each cutoff, pairs the ``n_low`` eigenvalues closest to
    zero, and reports the largest pairwise distance per cutoff.  Truncation
    breaks exact gauge invariance, so the residual must decrease as the
    window grows and fall below 1e-6 at the last cutoff.
    """
    pot = FourierPotential.from_gradient(data.lattice, f_terms)
    residuals = []
    for cutoff in cutoffs:
        with_f, _ = torus_fourier_operator(data, pot, cutoff)
        without, _ = torus_fourier_operator(data, None, cutoff)
        ef_all = hermitian_eigs(with_f)
        e0_all = hermitian_eigs(without)
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
