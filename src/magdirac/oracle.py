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

from . import torus
from .clifford import (PAULI_X, PAULI_Y, PAULI_Z, build_rep, two_form_action,
                       vector_action, volume_element)
from .lattice import Lattice
from .spectrum import check_int, check_size
from .sphere import _check_level, curve_table, member_labels
from .torus import SpinCData

MAX_OPERATOR_DIM = 4096
GAUGE_TOL = 1e-6
GAUGE_PAIRS = 10  # eigenvalues closest to zero paired per cutoff
TORUS_MODE_BLOCK = 2 ** 18  # matrix entries per block of the torus-mode solve


class HermitianMatrix:
    """Hermitian matrix of finite entries, held as its nonzero entries
    (``rows``, ``cols``, ``values``, row-major) and validated as such at
    construction; an optional ``grading`` gives each row a chirality +-1
    that the matrix reverses.  The defect max |H - H^*| pairs each entry
    with its transposed partner, 0 where that is a structural zero; as
    |a - conj b| = |b - conj a|, it is the full-matrix maximum bit for bit.
    """

    def __init__(self, data, grading=None):
        data = np.asarray(data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"matrix must be square, got shape {data.shape}")
        rows, cols = np.nonzero(data)
        self._hold(len(data), rows, cols, data[rows, cols], grading)

    @classmethod
    def from_entries(cls, dim, rows, cols, values, grading=None):
        """``dim`` rows, ``values`` at (rows, cols) once each; zero values dropped."""
        self = cls.__new__(cls)
        self._hold(int(dim), np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
                   np.asarray(values, dtype=np.complex128), grading)
        return self

    def _hold(self, dim, rows, cols, values, grading):
        keep = np.flatnonzero(values != 0)
        keep = keep[np.argsort(rows[keep] * dim + cols[keep], kind="stable")]
        rows, cols, values = rows[keep], cols[keep], values[keep]
        key = rows * dim + cols
        if np.any((np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= dim)
                  | np.append(key[1:] == key[:-1], False)):
            raise ValueError(f"matrix entries must lie in {dim} rows, one per position")
        scale = float(np.max(np.abs(values), initial=0.0))
        if not np.isfinite(scale):  # np.max propagates NaN
            raise ValueError("matrix has non-finite entries")
        defect = float(np.max(np.abs(values - _partners(dim, rows, cols, values).conj()),
                              initial=0.0))
        if defect > 1e-12 * (1.0 + scale):
            raise ValueError(f"matrix is not Hermitian: max |H - H^*| = {defect:.3e} "
                             f"at scale {scale:.3e}")
        if grading is not None:
            grading = np.asarray(grading, dtype=np.float64)
            if grading.shape != (dim,) or not np.all(np.abs(grading) == 1.0):
                raise ValueError(f"grading must be {dim} entries +-1")
        for a in (rows, cols, values):
            a.setflags(write=False)
        self.dim, self.rows, self.cols, self.values = dim, rows, cols, values
        self.grading, self.scale, self.hermiticity_defect = grading, scale, defect


def _partners(dim, rows, cols, values) -> np.ndarray:
    """Value at the transposed position of each entry, 0 where there is
    none; the entries of a ``dim``-row matrix, row-major, one per position."""
    key, back = rows * dim + cols, cols * dim + rows
    at = np.searchsorted(key, back)
    return np.where(np.append(key, -1)[at] == back, np.append(values, 0)[at], 0)


def _summed(dim, rows, cols, values):
    """Entries (rows, cols, values), row-major, of the ``values`` summed by
    position in a matrix of ``dim`` columns, each in its input order."""
    key, at = np.unique(rows * dim + cols, return_inverse=True)
    out = np.empty(len(key), dtype=np.complex128)
    out.real = np.bincount(at, values.real, len(key))
    out.imag = np.bincount(at, values.imag, len(key))
    return *np.divmod(key, dim), out


def _pairs(a, b):
    """Terms (rows, cols, values) of the product A B of matrices given by
    their entries, B's row-major: each entry (r, k, x) of A meets every
    entry (k, c, y) of row k of B in the term x y at (r, c).  ``_summed``
    adds them up."""
    (ar, ak, av), (br, bc, bv) = a, b
    start = np.searchsorted(br, ak)
    count = np.searchsorted(br, ak, side="right") - start
    # position in B of each term: the run of row k, from its start
    pick = np.repeat(start - np.cumsum(count) + count, count) + np.arange(np.sum(count))
    return np.repeat(ar, count), bc[pick], np.repeat(av, count) * bv[pick]


def _defects(stack) -> np.ndarray:
    """|B - B^*| entry by entry, for each square matrix B of a stack (..., d, d)."""
    return np.abs(stack - stack.conj().swapaxes(-1, -2))


def _scatter(index, values, shape) -> np.ndarray:
    """Complex array of ``shape`` with ``values`` at ``index``, 0 elsewhere."""
    out = np.zeros(shape, dtype=np.complex128)
    out[index] = values
    return out


def _components(rows, cols, dim: int) -> np.ndarray:
    """Label of each of ``dim`` rows in the graph with edges (rows, cols),
    taken both ways: the smallest row of its connected component.

    Min-label propagation with pointer jumping: every row takes the least
    label among its neighbours, then follows labels to their fixed point.
    Labels only fall and stay inside their component, so once a round
    changes nothing each component carries its own least row.
    """
    ends = np.concatenate([rows, cols])
    other = np.concatenate([cols, rows])
    label = np.arange(dim)
    while True:
        low = label.copy()
        np.minimum.at(low, ends, label[other])
        while not np.array_equal(low[low], low):
            low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def hermitian_eigs(H: HermitianMatrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, by LAPACK.

    A graded matrix is [[0, B], [B^*, 0]] up to row order: its eigenvalues are
    +-the singular values of B, plus a 0 per unpaired row.  Raises ValueError
    if it couples two rows of equal chirality.

    The nonzero entries give the chirality check and the connected
    components of the matrix, which is block-diagonal over them up to row
    order.  Each component's entries are scattered into its block (a graded
    one's into its chiral block, plus a 0 per unpaired row), and the blocks
    of one shape go to one batched call.  A truncated Fourier operator whose
    frequencies span a sublattice L' couples mode m only to m + L': its
    components are the cosets of L' in the window (Bloch decomposition).
    A split spectrum equals the dense one up to rounding (relative to the
    largest eigenvalue, within 2e-14 on gauge operators up to dimension
    1250); ``verify_gauge`` states what that does to its residuals.  A
    matrix of one component keeps its row order (the positive chirality
    first, in index order), so its eigenvalues are bit for bit those of the
    solve without the split.
    """
    dim, rows, cols = H.dim, H.rows, H.cols
    if H.grading is not None and np.any(H.grading[rows] == H.grading[cols]):
        raise ValueError("graded matrix couples two rows of equal chirality")
    label = _components(rows, cols, dim)
    roots = np.flatnonzero(label == np.arange(dim))
    # rows by component, the positive chirality first within each
    plus = np.zeros(dim, dtype=bool) if H.grading is None else H.grading > 0
    order = np.lexsort((~plus, label))
    comp = np.searchsorted(roots, label)
    size = np.bincount(comp, minlength=len(roots))
    ahead = np.bincount(comp, plus, len(roots)).astype(np.int64)  # rows of chirality +1
    place = np.empty(dim, dtype=np.int64)  # of each row in its component's block
    place[order] = np.arange(dim) - np.repeat(np.cumsum(size) - size, size)
    parts, graded = [np.zeros(0)], H.grading is not None
    for p, n in sorted(set(zip(ahead.tolist(), size.tolist()))):
        group = (ahead == p) & (size == n)
        batch = np.cumsum(group) - 1  # of each component of the group in the call
        # a graded block is B alone: the entries from rows of chirality +1
        mine = group[comp[rows]] & (plus[rows] | (not graded))
        r, c, q = rows[mine], cols[mine], n - p
        blocks = _scatter((batch[comp[r]], place[r], place[c] - p), H.values[mine],
                          (batch[-1] + 1, p if graded else n, q))
        if not graded:
            parts.append(np.linalg.eigvalsh(blocks).ravel())
            continue
        s = np.linalg.svd(blocks, compute_uv=False).ravel() if p and q else np.zeros(0)
        parts += [-s, s, np.zeros((batch[-1] + 1) * abs(p - q))]
    return np.sort(np.concatenate(parts))


# ---------------------------------------------------------------------------
# 3-sphere levels (Peter-Weyl)

# s_a of the Milnor frame f_a = s_a e_a, whose direction a contributes
# c(f_a) f_a = 2 s_a sigma_a (x) J_a to the operator; (1, 1, 1) is the round metric
_ROUND_FRAME = (1.0, 1.0, 1.0)


def sphere_level_entries(k_max: int):
    """Nonzero entries of the sphere operator on levels 0..k_max.

    Peter-Weyl splits L^2(S^3) = L^2(SU(2)) into levels V_k (x) V_k*, each
    carried k + 1 times.  In a left-invariant frame (X_a = -2i J_a,
    c(e_a) = i sigma_a; Milnor 1976, Baer 1992) one copy of level k acts on
    C^2 (x) V_k, V_k of spin k/2, as H0 + t S, with
    H0 = 2 sum_a sigma_a (x) J_a + 3/2 and S = sigma_3 (x) I, built from
    the ladder entries sqrt(j(j+1) - m(m+1)) and the Pauli matrices alone.

    Basis vector (r, i) of level k (Pauli row r, m = i - k/2) has index
    k(k+1) + r(k+1) + i, and its row holds at most three entries: the Z
    term on the diagonal and the X and Y terms, which share their
    positions, at (1 - r, i - 1) and (1 - r, i + 1).  Each entry sums its
    terms as (0 + X) + Y (or 0 + Z) before the factor 2 and the 3/2, so it
    rounds as the dense sum of Kronecker products does, and entries that
    cancel to zero are dropped.  The columns of a row ascend in the order
    diagonal, i - 1, i + 1 (r = 0) or i - 1, i + 1, diagonal (r = 1), so
    the entries come out row-major.  Returns (rows, cols, values, weight):
    ``values`` is (2, nnz), H0 and S at (rows, cols), and ``weight`` is
    sigma_3/2 + J_3 of each basis vector, which both matrices preserve.
    """
    k_max = _check_level(k_max)
    size = (k_max + 1) * (k_max + 2)
    level = np.repeat(np.arange(k_max + 1), np.arange(k_max + 1) + 1)  # one per (k, i)
    i = np.arange(size // 2) - level * (level + 1) // 2
    j = level / 2.0
    m = i - j
    up = np.sqrt(j * (j + 1) - m * (m + 1))  # J_+ from m to m + 1, 0 at the top i = k
    down = np.append(0.0, up[:-1])  # J_+ from m - 1 to m: 0 where i = 0
    r = np.array([[0], [1]])  # the Pauli row: axis 0 of the (2, size / 2) arrays below
    row = level * (level + 1) + r * (level + 1) + i
    other = row + (1 - 2 * r) * (level + 1)  # (1 - r, i)
    x, y, z = (scale * pauli for scale, pauli in zip(_ROUND_FRAME, (PAULI_X, PAULI_Y, PAULI_Z)))
    x, y, z = x[r, 1 - r], y[r, 1 - r], z[r, r]  # the Pauli entry of each term in row r
    cols, h0, weight = np.empty((size, 3), np.int64), np.empty((size, 3), complex), np.empty(size)
    # X + Y at (1 - r, i - 1) and (1 - r, i + 1), with J_x = (J_+ + J_-)/2 and
    # J_y = (J_+ - J_-)/2i, then Z on the diagonal
    for slot, col, value in ((1 - r, other - 1, 2.0 * (0.0 + x * (down / 2) + y * (down / 2j))),
                             (2 - r, other + 1, 2.0 * (0.0 + x * (up / 2) + y * (-up / 2j))),
                             (2 * r, row, 2.0 * (0.0 + z * m) + 1.5)):
        cols[row, slot], h0[row, slot] = col, value
    keep = h0 != 0
    keep[row, 2 * r] = True  # S = sigma_3 (x) I fills the diagonal
    keep = np.flatnonzero(keep)  # row * 3 + slot, ascending
    values = np.zeros((2, len(keep)), dtype=np.complex128)
    values[0] = h0.ravel()[keep]
    values[1, np.searchsorted(keep, row * 3 + 2 * r)] = PAULI_Z[r, r]
    weight[row] = (0.5 - r) + m
    return keep // 3, cols.ravel()[keep], values, weight


def sphere_level_matrix(k: int):
    """Level k of the sphere operator as dense matrices (H0, S, weight),
    scattered from its entries in ``sphere_level_entries``."""
    rows, cols, values, weight = sphere_level_entries(k)
    start = int(k) * (int(k) + 1)
    mine = rows >= start
    H = np.zeros((2, len(weight) - start, len(weight) - start), dtype=np.complex128)
    H[:, rows[mine] - start, cols[mine] - start] = values[:, mine]
    return H[0], H[1], weight[start:]


def verify_sphere_blocks(k_max: int, t_values) -> dict:
    """Cross-check every closed-form sphere eigenvalue against the levels.

    The operator preserves the weight w = sigma_3/2 + J_3, so a basis vector
    of level k lies in slot w + (k + 1)/2: 0 the 1x1 minus end, k + 1 the
    plus end, p + 1 the 2x2 block (Pauli row up first) whose ascending pair
    is the branch members (k, p, -1), (k, p, +1).  Block k(k + 3)/2 + slot
    holds each, Hermitian in H0 and S by HermitianMatrix's rule, and all
    pairs go to one LAPACK call.  Each row of ``sphere.curve_table`` (k <=
    k_max, t on the grid ``t_values``) is compared with its label's
    slot, relative to 1 + |value|; a slot no row reaches fails.  Raises
    ValueError if a level couples two weights or holds a non-Hermitian block.
    """
    ts, members, i, j, closed = curve_table(t_values, k_max)  # validates, refuses oversized grids
    (rows, cols, values, weight), ks = sphere_level_entries(k_max), np.arange(k_max + 1)
    first, level = ks * (ks + 3) // 2, np.repeat(ks, 2 * ks + 2)  # level k has k + 2 slots
    block = (weight + (first + (ks + 1) / 2)[level]).astype(np.int64)  # first + slot, exact
    # the split is exact only if every nonzero entry lies in an end or a pair
    apart = block[rows] != block[cols]
    if np.any(apart):
        raise ValueError(f"level {np.min(level[rows[apart]])} couples two different weights")
    pauli_row = np.arange(len(level)) // (level + 1) - level  # index k(k+1) + r(k+1) + i
    at = (2 * block + pauli_row)[rows] * 2 + pauli_row[cols]  # flat: rows and cols can go
    tol = 1e-12 * (1.0 + np.max(np.abs(values), axis=1))  # HermitianMatrix's rule, H0 and S
    del rows, cols, weight, block, pauli_row
    blocks = np.zeros((2, first[-1] + k_max + 2, 2, 2), dtype=np.complex128)
    blocks.reshape(2, -1)[:, at] = values
    del values, at  # the entries, freed before the solve
    ok = _defects(blocks) <= tol[:, None, None, None]
    if not np.all(ok):
        raise ValueError(f"level {np.repeat(ks, ks + 2)[np.argmin(ok.all(axis=(0, 2, 3)))]} "
                         "holds a block that is not Hermitian")
    # per coupling: pair k(k - 1)/2 + p by side (-1, +1), the ends (minus, plus), NaN
    (kk, pp), tt = np.nonzero(ks < ks[:, None]), ts[:, None, None]
    pair, nan = first[kk] + pp + 1, np.full((len(ts), 1, 2), np.nan)
    ends = blocks[:, first[:, None] + (ks[:, None] + 1) * [0, 1], [1, 0], [1, 0]].real
    got = np.concatenate([np.linalg.eigvalsh(blocks[0, pair] + tt[..., None] * blocks[1, pair]),
                          ends[0] + tt * ends[1], nan], axis=1).reshape(len(ts), -1)
    fam, k, p, sign = members  # families index (plus, minus, branch); the ends carry p = -1
    side = np.where(fam == 2, (sign + 1) // 2, fam == 0)
    column = np.where(p >= 0, k * (k - 1) + 2 * p, 2 * (len(kk) + k)) + side
    column = np.where((-1 <= p) & (p < k), column, -2)[j]  # a label no slot holds reads NaN
    rel = np.abs(got[i, column] - closed) / (1.0 + np.abs(closed))
    reached = np.zeros(got.shape, dtype=bool)
    reached[:, -2:] = reached[i, column] = True
    bad, failures = np.flatnonzero(~(rel <= 1e-12))[:20], []
    if bad.size or not np.all(reached):  # failing rows, then unreached slots
        keys = ("t", "family", "k", "p", "sign", "closed")
        failures = [{**dict(zip(keys, (ts[i[r]], *label, closed[r]))), "oracle": got[i[r], c]}
                    for r, c, label in zip(bad, column[bad], member_labels(
                        *(x[j[bad]] for x in members)))]
        tm, cm = np.divmod(np.flatnonzero(~reached), got.shape[1])  # by coupling, k, p, side
        km, pm, sm = np.r_[kk, ks].repeat(2)[cm], np.r_[pp, 0 * ks - 1].repeat(2)[cm], cm % 2
        r = np.lexsort((sm, pm, km, tm))[:20 - len(bad)]
        failures += [{**dict(zip(keys, (ts[t], *label, None))), "oracle": got[t, c]}
                     for t, c, label in zip(tm[r], cm[r], member_labels(
                         np.where(pm[r] < 0, 1 - sm[r], 2), km[r], pm[r], 2 * sm[r] - 1))]
    return {
        "checks": len(closed),
        "max_residual": float(np.max(rel, initial=0.0)),
        "pass": not failures,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# flat-torus single modes


def verify_torus_modes(n: int, samples: int, seed: int) -> dict:
    """Cross-check closed per-mode eigenvalues against Clifford matrices.

    Both sides read only theta', so theta' is drawn directly, N(0, 4^2) per
    coordinate, with one call; no basis, delta, theta, A or mode is drawn.
    Then, in blocks of TORUS_MODE_BLOCK matrix entries: the matrices
    2 pi i c(theta') checked finite and Hermitian and solved by one batched
    LAPACK call, against the sorted closed list from ``torus.mode_values``;
    the report does not depend on the block size.  A failure reports its
    theta', the whole input.  Refused (ValueError) before any draw unless
    samples and seed are integers, 1 <= samples <= MAX_SPECTRUM_SIZE,
    seed >= 0, 1 <= n <= 12 and samples * N^2 <= MAX_OPERATOR_DIM^2.
    """
    samples, seed = check_int(samples, "samples"), check_int(seed, "seed")
    if samples < 1:
        raise ValueError(f"torus-modes check needs samples >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"torus-modes check needs --seed >= 0, got {seed}")
    gens = build_rep(n)  # refuses n outside 1..12
    entries = samples * gens[0].size
    if entries > MAX_OPERATOR_DIM ** 2:
        raise ValueError(f"torus-modes check of {samples} samples at n = {n} holds {entries} "
                         f"matrix entries, past the cap {MAX_OPERATOR_DIM ** 2}")
    check_size(samples, "torus-mode samples", "--samples")
    thetas = np.random.default_rng(seed).normal(0.0, 4.0, size=(samples, n))
    step = max(1, TORUS_MODE_BLOCK // gens[0].size)
    worst, failures = 0.0, []
    for a in range(0, samples, step):
        tp = thetas[a:a + step]
        stack = _mode_blocks(tp)
        scale = np.max(np.abs(stack), axis=(1, 2), keepdims=True)  # np.max propagates NaN
        if not np.all(np.isfinite(scale)) or np.any(_defects(stack) > 1e-12 * (1.0 + scale)):
            raise ValueError("a mode matrix is not finite and Hermitian")
        got = np.linalg.eigvalsh(stack)
        values, mults = torus.mode_values(tp)
        closed = np.sort(np.repeat(values.ravel(), mults.ravel()).reshape(len(tp), -1), axis=1)
        residuals = np.max(np.abs(got - closed), axis=1) / (1.0 + np.max(np.abs(closed), axis=1))
        worst = np.max(residuals, initial=worst)
        failures += [{"theta_prime": tp[i].tolist(), "closed": closed[i].tolist(),
                      "oracle": got[i].tolist()}
                     for i in np.flatnonzero(residuals > 1e-12)[:20 - len(failures)]]
    return {
        "checks": samples,
        "max_residual": float(worst),
        "pass": bool(worst <= 1e-12),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# truncated Fourier assembly for oscillating potentials


def _nu_hat(lattice: Lattice, nu) -> np.ndarray:
    """Frequency nu in standard coordinates: dual_basis @ nu."""
    return lattice.dual_basis @ np.array(nu, dtype=np.float64)


class FourierPotential:
    """Oscillating one-form sum_nu a_nu exp(2 pi i <nu_hat, x>) on a torus.

    Frequencies nu are nonzero integer vectors with entries below 2**63 in
    size (dual coordinates, nu_hat = dual_basis @ nu; a float or bool entry
    is refused, not rounded); coefficients are complex covectors in standard
    coordinates.  Realness requires the -nu term to carry the conjugate
    coefficient and is enforced at construction.  No terms make the
    potential without oscillating part.
    """

    def __init__(self, lattice: Lattice, terms):
        self.lattice = lattice
        table = {}
        for nu, coeff in terms:
            nu = tuple(check_int(c, "frequency entry") for c in nu)
            if len(nu) != lattice.n:
                raise ValueError(f"frequency {nu} has wrong length for n={lattice.n}")
            if max(map(abs, nu)) >= 2 ** 63:  # past int64, where the assembly indexes
                raise ValueError(f"frequency {nu} has an entry of 2**63 or more in size")
            if all(c == 0 for c in nu):
                raise ValueError("zero frequency belongs in the harmonic part")
            if nu in table:
                raise ValueError(f"duplicate frequency {nu}")
            coeff = np.asarray(coeff, dtype=np.complex128)
            if coeff.shape != (lattice.n,):
                raise ValueError(f"coefficient for {nu} has shape {coeff.shape}, "
                                 f"expected ({lattice.n},)")
            if not np.isfinite(coeff).all():
                raise ValueError(f"coefficient for {nu} is not finite")
            table[nu] = coeff
        for nu, coeff in table.items():
            mirror = tuple(-c for c in nu)
            if mirror not in table:
                raise ValueError(f"realness requires a term at {mirror} conjugate to {nu}")
            if np.max(np.abs(table[mirror] - np.conj(coeff))) > 1e-12:
                raise ValueError(f"coefficients at {nu} and {mirror} are not conjugate")
        self.table = table

    @classmethod
    def from_gradient(cls, lattice: Lattice, f_terms) -> "FourierPotential":
        """Exact one-form df of f = sum_nu c_nu exp(2 pi i <nu_hat, x>).

        ``f_terms`` is an iterable of (nu, c_nu), nu as in the constructor;
        missing mirror frequencies get conjugate coefficients so f is real.
        """
        coeffs = {}
        for nu, c in f_terms:
            nu = tuple(check_int(x, "frequency entry") for x in nu)
            if len(nu) != lattice.n:
                raise ValueError(f"frequency {nu} has wrong length for n={lattice.n}")
            coeffs[nu] = coeffs.get(nu, 0.0) + complex(c)
        for nu in list(coeffs):
            mirror = tuple(-c for c in nu)
            if mirror not in coeffs:
                coeffs[mirror] = np.conj(coeffs[nu])
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
            terms = [(nu, 2j * np.pi * c * _nu_hat(lattice, nu)) for nu, c in coeffs.items()]
        return cls(lattice, terms)

    def bandwidth(self) -> int:
        """Largest sup-norm of any frequency (0 when empty)."""
        return max((max(abs(c) for c in nu) for nu in self.table), default=0)

    def is_closed(self) -> bool:
        """Whether every coefficient is parallel to its own frequency, to
        1e-10 relative to 1 + its largest entry."""
        for nu, coeff in self.table.items():
            nu_hat = _nu_hat(self.lattice, nu)
            proj = (coeff @ nu_hat) / (nu_hat @ nu_hat) * nu_hat
            if np.max(np.abs(coeff - proj)) > 1e-10 * (1.0 + np.max(np.abs(coeff))):
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
    """Modes with sup-norm <= cutoff, an integer >= 0, in row-major order of m + cutoff."""
    cutoff = check_int(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError(f"cutoff must be 0 or more, got {cutoff}")
    side = 2 * cutoff + 1
    dim = side ** data.n * data.spinor_dim
    if dim > MAX_OPERATOR_DIM:
        raise ValueError(f"operator dimension {dim} exceeds the cap {MAX_OPERATOR_DIM}; "
                         "reduce the cutoff")
    return np.indices((side,) * data.n).reshape(data.n, -1).T - cutoff


def _assemble(modes, terms):
    """Nonzero entries (rows, cols, values) of a convolution over shifts on
    the window ``modes``, by shift, source mode and block entry.

    ``modes`` must be the full row-major box of ``_operator_window``, side
    2c + 1, so m + nu lies nu . strides rows after m (stride (2c + 1)^(n-1-i)
    on axis i).  ``terms`` maps a shift nu to the blocks placed at
    (m + nu, m) for every mode m whose image stays in the window: one
    (N, N) block for all modes, or a (len(modes), N, N) stack with one per
    source mode.  All (shift, mode) pairs are placed at once, each inside
    pair taking the nonzeros of its block from one pool of all blocks.  Each
    position occurs once: distinct shifts move a mode to distinct targets.
    """
    n = modes.shape[1]
    side = 2 * int(np.max(np.abs(modes))) + 1
    pool = [np.reshape(b, (-1, *np.shape(b)[-2:])) for b in terms.values()]
    size = np.array([len(b) for b in pool])  # 1 for a block shared by all modes
    # a shift past the window leaves it also when clipped to side, and the sum cannot overflow
    nu = np.clip(np.array(list(terms), dtype=np.int64).reshape(-1, n), -side, side)
    target = modes + nu[:, None]
    s, k = np.nonzero(np.max(np.abs(target, out=target), axis=2) <= side // 2)
    pool = np.concatenate(pool)
    N, (p, a, b) = pool.shape[-1], np.nonzero(pool)  # the pool's entries, block by block
    per, pool = np.bincount(p, minlength=len(pool)), pool[p, a, b]
    q = np.cumsum(size)[s] - size[s] + (size[s] > 1) * k  # the block of each inside pair
    count = per[q]
    # each pair's entries: the run of its block's entries, which ends at cumsum(per)[q]
    pick = np.repeat(np.cumsum(per)[q] - np.cumsum(count), count) + np.arange(np.sum(count))
    dest = N * (k + (nu @ side ** np.arange(n - 1, -1, -1))[s])
    return np.repeat(dest, count) + a[pick], np.repeat(N * k, count) + b[pick], pool[pick]


def _mode_blocks(theta) -> np.ndarray:
    """Blocks 2 pi i c(theta) of the operator without oscillating part.

    ``theta`` is one shifted dual point (n,), such as ``data.theta_prime(m)``
    (``theta_mode`` without A), or a stack (K, n); the blocks of a stack come
    from one contraction over the generators.
    """
    return 2j * np.pi * vector_action(theta, build_rep(np.shape(theta)[-1]))


def torus_fourier_operator(
    data: SpinCData, potential: FourierPotential, cutoff: int
) -> HermitianMatrix:
    """Truncated matrix of the operator on modes with sup-norm <= cutoff.

    The harmonic part of the potential lives in ``data.A``; ``potential``
    holds the oscillating part (no terms for none).  Row N i + a of the
    matrix is spinor component a of mode i of ``_operator_window(data,
    cutoff)``, N = data.spinor_dim.  In even dimension the matrix carries
    the chirality grading: the diagonal of i^(n/2) g_1...g_n, tiled over
    the modes, which every block reverses.
    """
    modes = _operator_window(data, cutoff)
    terms = {(0,) * data.n: _mode_blocks(data.theta_prime(modes))}
    if potential.lattice is not data.lattice and not np.allclose(
        potential.lattice.basis, data.lattice.basis, rtol=0, atol=1e-12
    ):
        raise ValueError("potential and spin-c data use different lattices")
    gens = build_rep(data.n)
    for nu, coeff in potential.table.items():
        terms[nu] = 0.5j * vector_action(coeff, gens)
    grading = None
    if data.n % 2 == 0:
        gamma = 1j ** (data.n // 2) * volume_element(gens)
        if np.count_nonzero(gamma - np.diag(np.diag(gamma))):
            raise AssertionError("the volume element is not diagonal")
        grading = np.tile(np.diag(gamma).real, len(modes))
    entries = _assemble(modes, terms)
    del terms  # the blocks go before the entries are checked, where the peak falls
    return HermitianMatrix.from_entries(len(modes) * data.spinor_dim, *entries, grading)


def _identity_terms(data: SpinCData, potential: FourierPotential, tm):
    """Right-hand sides of ``identity_checks`` as convolution tables, per
    shift: the covariant components M_j = d_j + i eta_j (scalar, one column
    per j), the div, grad and |eta|^2 terms of the square (scalar), and
    i d(eta) (N x N blocks), of the oscillating part ``potential`` (no terms
    for none).  ``tm`` holds the shifted dual points of the window without A."""
    h, zero = data.A, (0,) * data.n
    cov = {zero: 2j * np.pi * tm + 0.5j * h}
    scal = {zero: 2.0 * np.pi * (tm @ h) + (h @ h) / 4.0}
    curl = {zero: np.zeros((data.spinor_dim,) * 2)}  # no zero-shift part; fixes N if a is 0
    gens = build_rep(data.n)
    for nu, a in potential.table.items():
        nh = _nu_hat(data.lattice, nu)
        cov[nu] = 0.5j * a
        scal[nu] = (scal.get(nu, 0.0) + np.pi * (nh @ a + 2.0 * (tm @ a))
                    + (h @ a) / 2.0)
        omega = 1j * np.pi * (np.outer(nh, a) - np.outer(a, nh))
        curl[nu] = 1j * two_form_action(omega, gens)
        for nu2, a2 in potential.table.items():
            rho = tuple(x + y for x, y in zip(nu, nu2))
            scal[rho] = scal.get(rho, 0.0) + (a @ a2) / 4.0
    return cov, scal, curl


def identity_checks(data: SpinCData, potential: FourierPotential, cutoff: int) -> dict:
    """Structural and curvature identities of the truncated operator.

    With eta = (h + a)/2 (h = data.A, a the oscillating part ``potential``,
    no terms for none), checks on interior rows (sup-norm <= cutoff - 2 *
    bandwidth, so no truncation error enters the products):

    * hermitian          -- assembled matrix equals its conjugate transpose;
    * covariant_skew     -- each covariant component M_j = d_j + i eta_j is
                            skew-Hermitian;
    * lichnerowicz_flat  -- (D^eta)^2 = -sum_j M_j^2 + i d(eta);
    * square_expansion   -- (D^eta)^2 = D^2 + i d(eta) + i div(eta)
                            - 2i eta.grad + |eta|^2, with D the operator
                            without any potential;
    * volume_anticommute -- in even dimension the operator's grading, the
                            chirality its solve uses, anti-commutes with
                            it (whole window).

    Every operator is held as its nonzero entries, and every product is
    taken over them: each entry (r, k, x) of the left factor in an interior
    row meets the entries (k, c, y) of row k of the right one, and the terms
    x y are summed by position (r, c).  kron(S, I_N) is S on the block
    diagonals.  A product residual is max |lhs - rhs| over the union of the
    two supports, relative to 1 + max |lhs|, and passes at 1e-10; the
    structural residuals are relative to 1 + the largest entry and pass at
    1e-12.  No dense operator is built.
    """
    modes = _operator_window(data, cutoff)
    n, N = data.n, data.spinor_dim
    bw = potential.bandwidth()
    margin = cutoff - 2 * bw
    interior = np.max(np.abs(modes), axis=1) <= margin  # by mode, then by row
    if not np.any(interior):
        raise ValueError(f"cutoff {cutoff} leaves no interior rows at bandwidth {bw}; "
                         "increase the cutoff")
    rows = np.repeat(interior, N)

    def restrict(entries, keep):  # the entries in the rows that the mask ``keep`` picks
        mine = keep[entries[0]]
        return tuple(x[mine] for x in entries)

    def joined(*parts):  # the entries of several parts, one after the other
        return tuple(map(np.concatenate, zip(*parts)))

    big = torus_fourier_operator(data, potential, cutoff)
    K, dim = len(modes), big.dim
    H = (big.rows, big.cols, big.values)
    lhs = _summed(dim, *_pairs(restrict(H, rows), H))
    scale = 1.0 + float(np.max(np.abs(lhs[2]), initial=0.0))
    tm = data.theta_mode(modes)  # shifted dual points without A
    cov, scal, curl = _identity_terms(data, potential, tm)

    def scalar_op(table):  # entries of the (K, K) operator, one per block, row-major
        return _summed(K, *_assemble(modes, {nu: np.reshape(s, (-1, 1, 1))
                                             for nu, s in table.items()}))

    def interior_rows(table, S):  # rows ``rows`` of the operator + kron(S, eye(N))
        r, c, v = S
        a = np.arange(N)
        kron = ((N * r[:, None] + a).ravel(), (N * c[:, None] + a).ravel(), np.repeat(v, N))
        return _summed(dim, *joined(restrict(_assemble(modes, table), rows), kron))

    def product_residual(rhs):
        r, c, v = rhs
        diff = _summed(dim, *joined(lhs, (r, c, -v)))[2]
        return float(np.max(np.abs(diff), initial=0.0)) / scale

    M = [scalar_op({nu: c[..., j] for nu, c in cov.items()}) for j in range(n)]
    squares = _summed(K, *joined(*(_pairs(restrict(Mj, interior), Mj) for Mj in M)))
    plain = _mode_blocks(tm)  # blocks of D: block-diagonal

    checks = {
        "hermitian": big.hermiticity_defect / (1.0 + big.scale),
        # |v + conj w| = |w + conj v|: each entry against its transposed
        # partner w gives every position of M_j + M_j^*
        "covariant_skew": max(
            float(np.max(np.abs(v + _partners(K, r, c, v).conj()), initial=0.0))
            / (1.0 + float(np.max(np.abs(v), initial=0.0)))
            for r, c, v in M
        ),
        "lichnerowicz_flat": product_residual(
            interior_rows(curl, (*squares[:2], -squares[2]))
        ),
        "square_expansion": product_residual(
            interior_rows({**curl, (0,) * n: plain @ plain}, restrict(scalar_op(scal), interior))
        ),
    }
    if n % 2 == 0:  # on the grading g the solver uses: g_r v and v g_c are exact products
        (r, c, v), g = H, big.grading
        residual = np.max(np.abs(g[r] * v + v * g[c]), initial=0.0)
        checks["volume_anticommute"] = float(residual) / (1.0 + big.scale)

    structural = ("hermitian", "covariant_skew", "volume_anticommute")
    passed = all(r <= (1e-12 if name in structural else 1e-10) for name, r in checks.items())
    return {
        "checks": checks,
        "interior_rows": int(np.count_nonzero(interior)),
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


def _stable_low_count(values: np.ndarray, count: int) -> int:
    """Extend ``count`` so the |value| selection boundary sits at a gap.

    Degenerate clusters must never be split between the two operators
    being compared (the members picked near the boundary would then
    differ by rounding noise), so grow the selection until the next
    |value| is more than 1e-3 away; capped at 4 * count entries.
    """
    a = np.sort(np.abs(np.asarray(values, dtype=np.float64)))
    cap = min(len(a), 4 * count)
    j = min(count, len(a))
    while j < cap and a[j] - a[j - 1] <= 1e-3:
        j += 1
    return j


def verify_gauge(data: SpinCData, f_terms, cutoffs) -> dict:
    """Isospectrality of the operator under adding an exact form df.

    Assembles the truncated operator with the gradient potential at each
    cutoff and solves it.  Without it the operator is block-diagonal by
    mode, a mode's block the same in every window, so one LAPACK solve of
    the largest window's blocks gives every window's spectrum.  Pairs the
    ``GAUGE_PAIRS`` eigenvalues closest to zero (``checks`` counts the pairs)
    and reports the largest distance per cutoff.  Truncation breaks exact
    gauge invariance, so the residual must decrease as the window grows and
    fall below 1e-6 at the last cutoff.  Refused (ValueError), before any
    window is assembled, unless there is at least one cutoff, the cutoffs are
    integers >= 1, strictly increasing and within ``MAX_OPERATOR_DIM``, the
    frequencies of ``f_terms`` are integers, df has a nonzero coefficient,
    and no frequency is past twice the largest cutoff.

    ``hermitian_eigs`` solves the operator with df per connected component:
    when the frequencies of df span a proper sublattice L', one block per
    coset of L' in the window.  Against one dense solve this moves the
    residuals of such a request by at most 1e-12 (absolute) and never
    changes ``monotone`` or ``pass``.
    """
    cutoffs = [check_int(c, "cutoff") for c in cutoffs]
    if len(cutoffs) == 0 or min(cutoffs) < 1:
        raise ValueError(f"gauge check needs one or more cutoffs >= 1, got {cutoffs}")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"gauge check needs strictly increasing cutoffs, got {cutoffs}")
    pot = FourierPotential.from_gradient(data.lattice, f_terms)
    if not any(np.any(a) for a in pot.table.values()):
        raise ValueError("gauge check needs a potential df with a nonzero coefficient")
    for nu in pot.table:
        if max(map(abs, nu)) > 2 * cutoffs[-1]:
            raise ValueError(f"gauge check: the f-term at frequency {list(nu)} couples no two "
                             f"modes of any window; it needs |nu| <= 2 * {cutoffs[-1]}")
    modes = _operator_window(data, cutoffs[-1])  # the largest window: refused if past the cap
    e0_modes = np.linalg.eigvalsh(_mode_blocks(data.theta_prime(modes)))
    reach = np.max(np.abs(modes), axis=1)
    low = []  # per cutoff: the pair count and the eigenvalues closest to zero without df
    for cutoff in cutoffs:
        e0_all = np.sort(e0_modes[reach <= cutoff], axis=None)  # the modes of this window
        j = _stable_low_count(e0_all, GAUGE_PAIRS)
        low.append((j, _lowest_by_abs(e0_all, j)))
    del modes, e0_modes, reach, e0_all  # freed before the operators with df are solved
    residuals = []
    for cutoff, (j, e0) in zip(cutoffs, low):
        ef = _lowest_by_abs(hermitian_eigs(torus_fourier_operator(data, pot, cutoff)), j)
        residuals.append(float(np.max(np.abs(ef - e0))))
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    passed = bool(residuals[-1] <= GAUGE_TOL and monotone)
    return {
        "checks": sum(len(e0) for _, e0 in low),
        "cutoffs": cutoffs,
        "residuals": residuals,
        "monotone": monotone,
        "max_residual": residuals[-1],
        "pass": passed,
    }
