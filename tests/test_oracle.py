"""Matrix oracles: block assembly, Fourier operators, cross-checks."""

import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import as_dense

from magdirac import cli, clifford, oracle, sphere, torus
from magdirac.lattice import Lattice
from magdirac.oracle import FourierPotential, HermitianMatrix
from magdirac.torus import SpinCData


def test_hermitian_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = HermitianMatrix(np.array([[1.0, 2.0j], [-2.0j, 3.0]]))
    assert H.dim == 2
    assert H.hermiticity_defect == 0.0


@pytest.mark.parametrize("dim, place", [(1, "diagonal")] + [
    (dim, place) for dim in (63, 64, 65, 130) for place in ("below", "above", "diagonal")])
def test_hermiticity_defect_is_the_full_matrix_maximum(dim, place):
    # the defect is taken over the nonzero entries against their transposed
    # partners; a perturbation anywhere must give the full-matrix maximum,
    # bit for bit
    rng = np.random.default_rng(dim)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    i, j = {"below": (dim - 1, dim // 3), "above": (dim // 3, dim - 1),
            "diagonal": (dim // 2, dim // 2)}[place]
    for size, accepted in ((3e-13, True), (1e-6, False)):
        H = A + A.conj().T
        H[i, j] += size * (1.0 + 1.0j) if place != "diagonal" else size * 1.0j
        if accepted:
            defect = HermitianMatrix(H).hermiticity_defect
            assert defect > 0.0 and defect == np.max(np.abs(H - H.conj().T))
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                HermitianMatrix(H)


def _closed_level(k, t):
    """Closed-form members of level k at coupling t, ascending."""
    return np.sort([1.5 + t + k, 1.5 - t + k] + [
        0.5 + s * np.sqrt(sphere.f0(k, p, t)) for p in range(k) for s in (-1, 1)
    ])


def _kron_level(k):
    """Level k as the dense sum of Kronecker products (reference)."""
    j = k / 2.0
    m = np.arange(k + 1) - j
    up = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)  # J_+
    spin = ((up + up.T) / 2, (up - up.T) / 2j, np.diag(m))
    pauli = (clifford.PAULI_X, clifford.PAULI_Y, clifford.PAULI_Z)
    H0 = 2.0 * sum(np.kron(s, J) for s, J in zip(pauli, spin))
    H0 += 1.5 * np.eye(2 * k + 2)
    S = np.kron(clifford.PAULI_Z, np.eye(k + 1))
    return H0, S, np.add.outer([0.5, -0.5], m).ravel()


def test_sphere_level_entries_are_the_nonzeros_of_the_kron_sum():
    k_max = 40
    rows, cols, values, weight = oracle.sphere_level_entries(k_max)
    assert len(weight) == (k_max + 1) * (k_max + 2)
    assert len(np.unique(rows * len(weight) + cols)) == len(rows)  # each position once
    for k in range(k_max + 1):
        H0, S, w = _kron_level(k)
        start, dim = k * (k + 1), 2 * k + 2
        mine = (rows >= start) & (rows < start + dim)
        assert np.all((cols[mine] >= start) & (cols[mine] < start + dim))
        dense = np.zeros((2, dim, dim), dtype=np.complex128)
        dense[:, rows[mine] - start, cols[mine] - start] = values[:, mine]
        # every real and imaginary part equal (zeros may differ in sign)
        for got, ref in ((dense[0], H0), (dense[1], S)):
            assert np.array_equal(got.view(np.float64), ref.view(np.float64))
        nonzero = (H0 != 0) | (S != 0)
        assert np.count_nonzero(values[:, mine].any(axis=0)) == np.count_nonzero(nonzero)
        assert np.array_equal(weight[start:start + dim], w)
        if k in (0, 1, 7, k_max):
            dense = oracle.sphere_level_matrix(k)
            assert all(np.array_equal(a, b) for a, b in zip(dense, (H0, S, w)))


def test_sphere_level_entries_are_row_major_to_high_levels():
    rows, cols, values, weight = oracle.sphere_level_entries(200)
    assert np.all(np.diff(rows * len(weight) + cols) > 0)  # row-major, each position once
    for k in (150, 200):
        H0, S, w = _kron_level(k)
        start, dim = k * (k + 1), 2 * k + 2
        mine = (rows >= start) & (rows < start + dim)
        dense = np.zeros((2, dim, dim), dtype=np.complex128)
        dense[:, rows[mine] - start, cols[mine] - start] = values[:, mine]
        for got, ref in ((dense[0], H0), (dense[1], S)):
            assert np.array_equal(got.view(np.float64), ref.view(np.float64))
        assert np.count_nonzero(mine) == np.count_nonzero((H0 != 0) | (S != 0))
        assert np.array_equal(weight[start:start + dim], w)


def test_weight_zero_rows_are_the_basic_sector():
    # the Kosmann derivative along the Hopf field is -2i(J_3 + sigma_3/2), so the
    # flow-invariant spinors are the weight-0 rows: a closed block whose pairs
    # are the branch members k = 2p + 1, f0 = t^2 + 4(p + 1)^2
    rows, cols, values, weight = oracle.sphere_level_entries(41)
    zero = weight == 0
    assert np.count_nonzero(zero) == 42  # two rows in each odd level
    assert np.array_equal(zero[rows], zero[cols])  # no entry couples weight 0 to another
    at, mine = np.cumsum(zero) - 1, zero[rows]
    block = np.zeros((2, 42, 42), dtype=np.complex128)
    block[:, at[rows[mine]], at[cols[mine]]] = values[:, mine]
    p, ts = np.arange(21), np.array([0.0, 0.7, 1.3, -3.2])[:, None]
    got = np.linalg.eigvalsh(block[0] + ts[..., None] * block[1])

    def gap(f):  # largest distance of the block's eigenvalues from the pairs 1/2 +- sqrt(f)
        return np.max(np.abs(got - np.sort(np.hstack([0.5 - np.sqrt(f), 0.5 + np.sqrt(f)]))))

    assert gap(ts ** 2 + 4.0 * (p + 1) ** 2) <= 1e-13  # 7.1e-15 measured
    assert gap(sphere.f0(2 * p + 1, p, ts)) <= 1e-13
    assert gap(sphere.f0(2 * p, p, ts)) > 0.1  # a mutated sector, k = 2p


def test_sphere_level_matrix_spectrum_is_the_closed_form():
    # the whole level solved densely, without the split by weight
    for k in range(13):
        H0, S, weight = oracle.sphere_level_matrix(k)
        assert H0.shape == S.shape == (2 * k + 2, 2 * k + 2)
        # weights -(k+1)/2 and (k+1)/2 once, each of -(k-1)/2..(k-1)/2 twice
        assert np.array_equal(np.sort(weight), np.sort(np.concatenate(
            [np.arange(k + 2) - (k + 1) / 2, np.arange(k) - (k - 1) / 2])))
        W = np.diag(weight)
        assert np.max(np.abs(W @ H0 - H0 @ W)) == 0.0
        for t in (-3.7, -1.0, 0.0, 0.45, 2.5):
            got = oracle.hermitian_eigs(HermitianMatrix(H0 + t * S))
            closed = _closed_level(k, t)
            assert np.max(np.abs(got - closed)) <= 1e-12 * (1 + np.max(np.abs(closed)))
    with pytest.raises(ValueError):
        oracle.sphere_level_matrix(-1)
    # the level rule of sphere.curve_table: 2.5 is not read as level 2
    for level in (2.5, "3"):
        with pytest.raises(ValueError, match="level must be an integer"):
            oracle.sphere_level_matrix(level)


def test_verify_sphere_blocks_catches_a_wrong_discriminant(monkeypatch):
    # the discriminant with 4(k - p)(p + 2) in place of 4(k - p)(p + 1)
    monkeypatch.setattr(sphere, "f0", lambda k, p, t: (
        (1.0 + t + 2 * p - k) ** 2 + 4.0 * (k - p) * (p + 2)))
    rep = oracle.verify_sphere_blocks(k_max=3, t_values=[-1.0, 0.0, 1.0])
    assert rep["pass"] is False and rep["max_residual"] > 1e-3
    bad = rep["failures"][0]
    assert bad["family"] == "branch" and bad["sign"] in (-1, 1)
    assert 0 <= bad["p"] < bad["k"] <= 3


def test_verify_sphere_blocks_catches_swapped_families(monkeypatch):
    def swapped(t_values, k_max):
        ts, (fam, k, p, sign), i, j, value = sphere.curve_table(t_values, k_max)
        fam = np.choose(fam, [1, 0, 2])  # plus <-> minus
        return ts, (fam, k, p, sign), i, j, value

    monkeypatch.setattr(oracle, "curve_table", swapped)
    rep = oracle.verify_sphere_blocks(k_max=3, t_values=[-1.0, 0.5])
    assert rep["pass"] is False
    assert {f["family"] for f in rep["failures"]} == {"plus", "minus"}
    assert all(f["p"] is None and f["sign"] is None for f in rep["failures"])


def test_verify_sphere_blocks_reports_members_no_row_reaches(monkeypatch):
    def dropped(t_values, k_max):
        ts, members, i, j, value = sphere.curve_table(t_values, k_max)
        gone = sphere.member_labels(*members).index(("branch", 2, 1, -1))
        keep = j != gone
        return ts, members, i[keep], j[keep], value[keep]

    monkeypatch.setattr(oracle, "curve_table", dropped)
    rep = oracle.verify_sphere_blocks(k_max=3, t_values=[0.25])
    assert rep["pass"] is False and rep["checks"] == 4 * 5 - 1
    (miss,) = rep["failures"]
    assert (miss["family"], miss["k"], miss["p"], miss["sign"]) == ("branch", 2, 1, -1)
    assert miss["closed"] is None and miss["t"] == 0.25
    # the oracle value reported is the unreached member's own
    assert abs(miss["oracle"] - (0.5 - np.sqrt(sphere.f0(2, 1, 0.25)))) < 1e-12


def test_verify_sphere_blocks_lists_unreached_members_by_block(monkeypatch):
    # four members of level 2 dropped at the first of two couplings
    gone = [("plus", 2, None, None), ("minus", 2, None, None),
            ("branch", 2, 1, 1), ("branch", 2, 1, -1)]

    def dropped(t_values, k_max):
        ts, members, i, j, value = sphere.curve_table(t_values, k_max)
        labels = sphere.member_labels(*members)
        keep = (i != 0) | ~np.isin(j, [labels.index(x) for x in gone])
        return ts, members, i[keep], j[keep], value[keep]

    monkeypatch.setattr(oracle, "curve_table", dropped)
    rep = oracle.verify_sphere_blocks(3, [0.25, -1.0])
    assert rep["pass"] is False and rep["checks"] == 2 * 20 - 4
    # by coupling, k, slot (the ends first) and side, minus before plus
    assert [(f["family"], f["k"], f["p"], f["sign"]) for f in rep["failures"]] == [
        gone[1], gone[0], gone[3], gone[2]]
    assert all(f["t"] == 0.25 and f["closed"] is None for f in rep["failures"])
    root = np.sqrt(sphere.f0(2, 1, 0.25))
    assert np.allclose([f["oracle"] for f in rep["failures"]],
                       [3.25, 3.75, 0.5 - root, 0.5 + root], rtol=1e-12, atol=0)


def _relabelled(sign_of_lo, p_of_lo):
    # member (2, 1, -1) relabelled; its rows carry the closed values of (2, 1, +1)
    def table(t_values, k_max):
        ts, (fam, k, p, sign), i, j, value = sphere.curve_table(t_values, k_max)
        labels = sphere.member_labels(fam, k, p, sign)
        lo, hi = labels.index(("branch", 2, 1, -1)), labels.index(("branch", 2, 1, 1))
        p, sign, value = p.copy(), sign.copy(), value.copy()
        p[lo], sign[lo] = p_of_lo, sign_of_lo
        for t in range(len(ts)):
            value[(i == t) & (j == lo)] = value[(i == t) & (j == hi)]
        return ts, (fam, k, p, sign), i, j, value
    return table


def test_verify_sphere_blocks_reports_the_slot_a_duplicated_label_leaves(monkeypatch):
    # the table lists (2, 1, +1) twice and (2, 1, -1) never: every row matches
    # its label's slot, and slot (2, 1, -1), which no row reaches, fails
    monkeypatch.setattr(oracle, "curve_table", _relabelled(1, 1))
    rep = oracle.verify_sphere_blocks(3, [0.25, -1.0])
    assert rep["pass"] is False and rep["checks"] == 2 * 20 and rep["max_residual"] < 1e-12
    assert [(f["t"], f["family"], f["k"], f["p"], f["sign"], f["closed"])
            for f in rep["failures"]] == [(t, "branch", 2, 1, -1, None) for t in (0.25, -1.0)]
    assert np.allclose([f["oracle"] for f in rep["failures"]],
                       [0.5 - np.sqrt(sphere.f0(2, 1, t)) for t in (0.25, -1.0)],
                       rtol=1e-12, atol=0)


def test_verify_sphere_blocks_fails_a_label_past_its_level(monkeypatch):
    # (2, 2, +1) names no slot of level 2: its rows read NaN, and slot
    # (2, 1, -1) is left unreached
    monkeypatch.setattr(oracle, "curve_table", _relabelled(1, 2))
    rep = oracle.verify_sphere_blocks(3, [0.25])
    assert rep["pass"] is False and np.isnan(rep["max_residual"])
    assert [(f["family"], f["k"], f["p"], f["sign"], f["closed"] is None, np.isnan(f["oracle"]))
            for f in rep["failures"]] == [("branch", 2, 2, 1, False, True),
                                          ("branch", 2, 1, -1, True, False)]


@pytest.mark.parametrize("where", ["upper", "lower", "diagonal", "minus end"])
@pytest.mark.parametrize("matrix", [0, 1])  # H0, S
def test_verify_sphere_blocks_reads_every_block_entry(monkeypatch, where, matrix):
    # one entry of level 2 (rows 6..11) moved by 1e-6: off the diagonal, or by
    # an imaginary part at the minus end (row 9), the block is no longer
    # Hermitian and is refused; on the diagonal the pair's eigenvalues move
    real = oracle.sphere_level_entries

    def moved(k_max):
        rows, cols, values, weight = real(k_max)
        side = {"upper": rows < cols, "lower": rows > cols, "diagonal": rows == cols,
                "minus end": (rows == 9) & (cols == 9)}[where]
        e = np.flatnonzero(side & (rows >= 6) & (rows < 12))[0]
        values = values.copy()
        shift = 1e-6j if where == "minus end" else 1e-6
        values[matrix, e] = values[matrix, e] * (1 + 1e-6) + shift
        return rows, cols, values, weight

    monkeypatch.setattr(oracle, "sphere_level_entries", moved)
    if where == "diagonal":
        rep = oracle.verify_sphere_blocks(3, [0.25, -1.0])
        assert rep["pass"] is False and rep["max_residual"] > 1e-8
    else:
        with pytest.raises(ValueError, match="level 2 holds a block that is not Hermitian"):
            oracle.verify_sphere_blocks(3, [0.25, -1.0])


def test_verify_sphere_blocks_counts_and_duplicate_couplings():
    assert oracle.verify_sphere_blocks(k_max=3, t_values=[-1.0, 0.0, 1.0])["checks"] == 60
    rep = oracle.verify_sphere_blocks(k_max=2, t_values=[0.5, 0.5])
    assert rep["pass"] and rep["checks"] == 2 * 3 * 4


def test_verify_sphere_blocks_small():
    rep = oracle.verify_sphere_blocks(k_max=6, t_values=np.linspace(-2, 2, 5))
    assert rep["pass"]
    assert rep["max_residual"] < 1e-12
    assert rep["failures"] == []
    assert rep["checks"] > 0


def test_mode_blocks_match_closed_form():
    rng = np.random.default_rng(64)
    for n in (1, 2, 3, 4):
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        data = SpinCData(
            lat,
            rng.integers(0, 2, size=n),
            rng.uniform(0, 1, size=n),
            rng.normal(size=n),
        )
        for _ in range(10):
            m = rng.integers(-3, 4, size=n)
            got = oracle.hermitian_eigs(HermitianMatrix(oracle._mode_blocks(data.theta_prime(m))))
            values, mults = torus.mode_values(data.theta_prime(m[None]))
            closed = np.sort(np.repeat(values.ravel(), mults.ravel()))
            assert np.max(np.abs(got - closed)) < 1e-10 * (1 + np.max(np.abs(closed)))


def test_verify_torus_modes_small():
    rep = oracle.verify_torus_modes(n=2, samples=40, seed=11)
    assert rep["pass"] and rep["failures"] == []


def test_fourier_potential_validation():
    lat = Lattice.from_rows(np.eye(2))
    with pytest.raises(ValueError):
        FourierPotential(lat, [((0, 0), np.array([1.0, 0.0]))])
    with pytest.raises(ValueError):
        FourierPotential(lat, [
            ((1, 0), np.array([1.0, 0.0])),
            ((1, 0), np.array([0.5, 0.0])),
        ])
    with pytest.raises(ValueError):  # missing mirror
        FourierPotential(lat, [((1, 0), np.array([1.0, 0.0j]))])
    with pytest.raises(ValueError):  # mirror not conjugate
        FourierPotential(lat, [
            ((1, 0), np.array([1.0 + 1.0j, 0.0])),
            ((-1, 0), np.array([1.0 + 1.0j, 0.0])),
        ])
    with pytest.raises(ValueError):  # wrong coefficient shape
        FourierPotential(lat, [((1, 0), np.array([1.0]))])


def test_fourier_potential_field_is_real():
    rng = np.random.default_rng(65)
    lat = Lattice.from_rows(np.array([[1.0, 0.2], [0.0, 0.8]]))
    pot = FourierPotential.from_gradient(
        lat, [((1, 0), 0.3 - 0.2j), ((1, 1), 0.1 + 0.05j)]
    )
    assert pot.is_closed()
    assert pot.bandwidth() == 1
    for _ in range(10):
        x = rng.normal(size=2)
        val = pot.evaluate(x)
        assert np.max(np.abs(val.imag)) < 1e-12


def test_gradient_field_matches_finite_differences():
    lat = Lattice.from_rows(np.array([[1.0, 0.0], [0.3, 1.2]]))
    f_terms = [((1, 0), 0.25 + 0.1j), ((0, 1), -0.15 + 0.2j)]
    pot = FourierPotential.from_gradient(lat, f_terms)

    def f(x):
        total = 0.0
        for nu, c in f_terms:
            nu_hat = lat.dual_basis @ np.array(nu, dtype=float)
            z = c * np.exp(2j * np.pi * (nu_hat @ x))
            total += 2 * z.real  # term plus its conjugate mirror
        return total

    rng = np.random.default_rng(66)
    h = 1e-6
    for _ in range(5):
        x = rng.normal(size=2)
        grad = pot.evaluate(x).real
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (f(x + e) - f(x - e)) / (2 * h)
            assert abs(grad[j] - fd) < 1e-5


def test_operator_assembly_shapes_and_caps():
    lat = Lattice.from_rows(np.eye(2))
    data = SpinCData(lat, [1, 0], [0.0, 0.0], np.array([0.1, 0.0]))
    empty = FourierPotential(lat, [])
    H, modes = oracle.torus_fourier_operator(data, empty, 3), oracle._operator_window(data, 3)
    assert H.dim == len(modes) * 2 == 49 * 2
    with pytest.raises(ValueError):
        oracle.torus_fourier_operator(data, empty, 40)
    other = Lattice.from_rows(2 * np.eye(2))
    pot = FourierPotential.from_gradient(other, [((1, 0), 0.1)])
    with pytest.raises(ValueError):
        oracle.torus_fourier_operator(data, pot, 3)


def test_operator_refuses_a_potential_on_a_slightly_different_lattice():
    # the bases differ by 1e-7: within a relative 1e-5, far past 1e-12
    data = SpinCData(Lattice.from_rows(np.eye(2)), [1, 0], [0.0, 0.0], np.zeros(2))
    other = Lattice.from_rows(np.eye(2) * (1 + 1e-7))
    pot = FourierPotential.from_gradient(other, [((1, 0), 0.1)])
    with pytest.raises(ValueError, match="different lattices"):
        oracle.torus_fourier_operator(data, pot, 3)


def test_identity_checks_closed_and_nonclosed():
    rng = np.random.default_rng(67)
    lat = Lattice.from_rows(np.array([[1.0, 0.1], [0.0, 0.9]]))
    data = SpinCData(lat, [1, 0], [0.3, 0.0], np.array([0.25, -0.4]))
    closed = FourierPotential.from_gradient(
        lat, [((1, 0), 0.2 + 0.1j), ((0, 1), -0.05 + 0.3j)]
    )
    rep = oracle.identity_checks(data, closed, cutoff=5)
    assert rep["pass"], rep
    assert rep["interior_rows"] > 0

    coeff = rng.normal(size=2) + 1j * rng.normal(size=2)
    nonclosed = FourierPotential(lat, [
        ((1, 1), coeff), ((-1, -1), np.conj(coeff)),
    ])
    assert not nonclosed.is_closed()
    rep = oracle.identity_checks(data, nonclosed, cutoff=6)
    assert rep["pass"], rep

    rep = oracle.identity_checks(data, FourierPotential(lat, []), cutoff=3)
    assert rep["pass"] and "volume_anticommute" in rep["checks"]


@pytest.mark.parametrize("rows, data_args, identity_sha, eigs_sha", [
    ([[1.0, 0.1], [0.0, 0.9]], ([1, 0], [0.3, 0.0], [0.25, -0.4]),
     "79d852ba55ddc5c87ad8d22a5c4392a8deb226a0edc5c9acedd536569bdb7b87",
     "2233156e6f39fb546f8ecb868ad3a426449c066d1338f7d2585b2e70030c33cc"),
    (np.eye(3), ([1, 0, 1], [0.0, 0.2, 0.0], [0.3, 0.0, -0.1]),
     "893faab8a179ad8556a1de956e2acc2bd65e4f9a7296ef0f02770a534da40e3f",
     "c3ac2523154b77b4dda34af4cc88b7450504f12b8815f11301e1d9c0e8ac6d6b"),
], ids=["2d", "3d"])
def test_the_empty_potential_gives_the_bytes_of_no_potential(rows, data_args, identity_sha,
                                                               eigs_sha):
    # digests recorded at cutoff 3 when "no oscillating part" was written None
    # (the 2d case is the data of test_identity_checks_closed_and_nonclosed)
    lat = Lattice.from_rows(np.array(rows))
    data, empty = SpinCData(lat, *data_args), FourierPotential(lat, [])
    rep = json.dumps(oracle.identity_checks(data, empty, 3))
    assert hashlib.sha256(rep.encode()).hexdigest() == identity_sha
    eigs = oracle.hermitian_eigs(oracle.torus_fourier_operator(data, empty, 3))
    assert hashlib.sha256(eigs.tobytes()).hexdigest() == eigs_sha


def test_identity_checks_dimension_three_has_no_volume_check():
    lat = Lattice.from_rows(np.eye(3))
    data = SpinCData(lat, [1, 0, 1], [0.0, 0.2, 0.0], np.array([0.3, 0.0, -0.1]))
    pot = FourierPotential.from_gradient(lat, [((1, 0, 0), 0.2 - 0.3j)])
    rep = oracle.identity_checks(data, pot, cutoff=4)
    assert rep["pass"], rep
    assert "volume_anticommute" not in rep["checks"]


def test_identity_checks_needs_interior_rows():
    lat = Lattice.from_rows(np.eye(2))
    data = SpinCData(lat, [1, 0], [0.0, 0.0], np.zeros(2))
    pot = FourierPotential.from_gradient(lat, [((1, 1), 0.1)])
    with pytest.raises(ValueError):
        oracle.identity_checks(data, pot, cutoff=1)


@pytest.mark.parametrize("rows, data_args, f_terms, cutoffs", [
    (np.eye(2), ([1, 0], [0.0, 0.0], [0.3, -0.1]),
     [((1, 0), 0.2 + 0.1j), ((0, 1), -0.05 + 0.3j)], (4, 8, 12)),
    # odd dimension: no grading, so the dense solve stays on eigvalsh; a 3D
    # window reaches only cutoff 3, hence the weak potential
    ([[1.0, 0.1, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]],
     ([1, 0, 0], [0.0, 0.2, 0.0], [0.3, -0.1, 0.2]),
     [((1, 0, 0), 0.015 - 0.01j), ((0, 1, -1), -0.005 + 0.015j)], (2, 3)),
], ids=["2d", "3d"])
def test_verify_gauge_passes_and_reports_decay(rows, data_args, f_terms, cutoffs):
    lat = Lattice.from_rows(np.array(rows))
    data = SpinCData(lat, *data_args)
    H = oracle.torus_fourier_operator(
        data, FourierPotential.from_gradient(lat, f_terms), cutoffs[0])
    assert (H.grading is None) == (lat.n % 2 == 1)
    rep = oracle.verify_gauge(data, f_terms, cutoffs=cutoffs)
    assert rep["pass"], rep
    assert rep["monotone"]
    assert rep["residuals"][-1] <= oracle.GAUGE_TOL
    assert rep["cutoffs"] == list(cutoffs)


@pytest.mark.parametrize("n, cutoff", [(2, 6), (4, 1)])
def test_graded_solve_matches_eigvalsh(n, cutoff):
    rng = np.random.default_rng(110 + n)
    lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
    delta, theta = rng.integers(0, 2, size=n), rng.uniform(0, 1, size=n)
    m0 = rng.integers(-(cutoff // 2), cutoff // 2 + 1, size=n)  # well inside the window
    # theta'(m0) = 0: the window holds an exact zero mode of the unperturbed operator
    A = -4 * np.pi * lat.dual_basis @ (m0 + (delta + theta) / 2)
    data = SpinCData(lat, delta, theta, A)
    nus = [tuple(int(c) for c in nu) for nu in np.eye(n, dtype=int)] + [(1,) * n]
    pot = FourierPotential.from_gradient(
        lat, [(nu, complex(*rng.uniform(-0.1, 0.1, size=2))) for nu in nus])
    H = oracle.torus_fourier_operator(data, pot, cutoff)
    chirality = np.diag(1j ** (n // 2) * clifford.volume_element(clifford.build_rep(n)))
    assert np.array_equal(H.grading, np.tile(chirality.real, H.dim // len(chirality)))
    got, ref = oracle.hermitian_eigs(H), np.linalg.eigvalsh(as_dense(H))
    assert np.min(np.abs(ref)) < 1e-6  # the zero mode, moved only by truncation
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    # one entry coupling two rows of equal chirality, kept Hermitian
    i, j = np.flatnonzero(H.grading == H.grading[0])[:2]
    bad = as_dense(H)
    bad[i, j] = bad[j, i] = 0.5
    with pytest.raises(ValueError, match="equal chirality"):
        oracle.hermitian_eigs(HermitianMatrix(bad, H.grading))


def test_graded_solve_counts_the_unpaired_rows_as_zeros():
    H = HermitianMatrix([[0, 2j, 0], [-2j, 0, 0], [0, 0, 0]], grading=[1, -1, 1])
    assert oracle.hermitian_eigs(H).tolist() == [-2.0, 0.0, 2.0]
    with pytest.raises(ValueError, match="grading"):
        HermitianMatrix(np.eye(2), grading=[1, 0])


def _hidden_blocks(rng, shapes, graded):
    """Random dense Hermitian blocks on the diagonal, rows and columns then
    shuffled by one permutation; a graded block of shape (p, q) is
    [[0, B], [B^*, 0]] with p rows of chirality +1 and q of -1.  Returns
    the matrix and its grading (None if not graded)."""
    blocks, grading = [], []
    for shape in shapes:
        if graded:
            p, q = shape
            B = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
            blocks.append(np.block([[np.zeros((p, p)), B], [B.conj().T, np.zeros((q, q))]]))
            grading += [1.0] * p + [-1.0] * q
        else:
            A = rng.normal(size=(shape, shape)) + 1j * rng.normal(size=(shape, shape))
            blocks.append(A + A.conj().T)
    dim = sum(len(b) for b in blocks)
    H = np.zeros((dim, dim), dtype=np.complex128)
    at = np.cumsum([0] + [len(b) for b in blocks])
    for b, a in zip(blocks, at):
        H[a:a + len(b), a:a + len(b)] = b
    perm = rng.permutation(dim)
    return H[np.ix_(perm, perm)], (np.array(grading)[perm] if graded else None)


def _component_count(H):
    return len(np.unique(oracle._components(*np.nonzero(H), len(H))))


@pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_hidden_blocks_match_the_dense_solve(graded, count):
    rng = np.random.default_rng(120 + count)
    for _ in range(4):
        # small shapes, so equal-shaped blocks (one batched solve) are common
        shapes = ([tuple(rng.integers(1, 4, size=2)) for _ in range(count)] if graded
                  else list(rng.integers(1, 5, size=count)))
        H, grading = _hidden_blocks(rng, shapes, graded)
        assert _component_count(H) == count
        got, ref = oracle.hermitian_eigs(HermitianMatrix(H, grading)), np.linalg.eigvalsh(H)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def _dense_route(H):
    """The solve without any split: eigvalsh, or the chiral block's SVD."""
    if H.grading is None:
        return np.linalg.eigvalsh(as_dense(H))
    plus, minus = H.grading > 0, H.grading < 0
    s = np.linalg.svd(as_dense(H)[np.ix_(plus, minus)], compute_uv=False)
    return np.sort(np.concatenate([-s, s, np.zeros(int(abs(H.grading.sum())))]))


def _full_rank_operator(n, cutoff):
    lat = Lattice.from_rows(np.eye(n) + 0.1 * np.eye(n, k=1))
    data = SpinCData(lat, [1] + [0] * (n - 1), [0.0] * n, np.full(n, 0.2))
    nus = [tuple(int(c) for c in nu) for nu in np.eye(n, dtype=int)]
    return oracle.torus_fourier_operator(
        data, FourierPotential.from_gradient(lat, [(nu, 0.1 - 0.05j) for nu in nus]), cutoff)


@pytest.mark.parametrize("make", [
    lambda: HermitianMatrix(*_hidden_blocks(np.random.default_rng(130), [9], False)),
    lambda: HermitianMatrix(*_hidden_blocks(np.random.default_rng(131), [(5, 3)], True)),
    lambda: _full_rank_operator(2, 6),
    lambda: _full_rank_operator(3, 2),
], ids=["ungraded", "graded", "gauge-2d", "gauge-3d"])
def test_one_component_takes_the_dense_route(make):
    H = make()
    assert _component_count(as_dense(H)) == 1
    assert np.array_equal(oracle.hermitian_eigs(H), _dense_route(H))


@pytest.mark.parametrize("grading", [None, []], ids=["ungraded", "graded"])
def test_empty_matrix_has_no_eigenvalues(grading):
    assert oracle.hermitian_eigs(HermitianMatrix(np.zeros((0, 0)), grading)).shape == (0,)


def test_equal_chirality_coupling_raises_inside_or_across_blocks():
    H, grading = _hidden_blocks(np.random.default_rng(132), [(3, 2), (2, 3)], True)
    label = oracle._components(*np.nonzero(H), len(H))
    a = np.flatnonzero(grading > 0)
    inside = a[label[a] == label[a[0]]][:2]
    across = (a[label[a] == label[a[0]]][0], a[label[a] != label[a[0]]][0])
    for i, j in (inside, across):
        bad = H.copy()
        bad[i, j] = bad[j, i] = 0.5
        with pytest.raises(ValueError, match="equal chirality"):
            oracle.hermitian_eigs(HermitianMatrix(bad, grading))


def _shuffled_entries(rng, H, zeros):
    """The nonzero entries of the dense H in random order, plus ``zeros``
    explicit zero values at positions where H is 0."""
    r, c = np.nonzero(H)
    empty = np.flatnonzero(H.ravel() == 0)
    zr, zc = np.divmod(rng.choice(empty, size=min(zeros, len(empty)), replace=False), len(H))
    rows, cols = np.concatenate([r, zr]), np.concatenate([c, zc])
    values = np.concatenate([H[r, c], np.zeros(len(zr))])
    perm = rng.permutation(len(rows))
    return rows[perm], cols[perm], values[perm]


@pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
@pytest.mark.parametrize("count", [1, 3])
def test_entries_and_dense_array_give_the_same_matrix(graded, count):
    rng = np.random.default_rng(140 + count + 10 * graded)
    for trial in range(10):
        shapes = ([tuple(rng.integers(1, 5, size=2)) for _ in range(count)] if graded
                  else list(rng.integers(1, 7, size=count)))
        H, grading = _hidden_blocks(rng, shapes, graded)
        if trial % 2:  # an accepted defect, on an entry and on its partner
            i, j = np.argwhere(H != 0)[0]
            H[i, j] += 3e-13j
        dense = HermitianMatrix(H, grading)
        sparse = HermitianMatrix.from_entries(len(H), *_shuffled_entries(rng, H, 5), grading)
        assert dense.hermiticity_defect == sparse.hermiticity_defect
        assert (dense.hermiticity_defect > 0.0) == bool(trial % 2)
        assert np.array_equal(as_dense(sparse), H) and not sparse.values.flags.writeable
        assert np.array_equal(oracle.hermitian_eigs(sparse), oracle.hermitian_eigs(dense))
        assert _component_count(H) == count


def test_an_entry_without_its_transpose_is_its_own_defect():
    v = 2e-13 - 1e-13j  # (2, 0) is a structural zero
    H = HermitianMatrix.from_entries(3, [0, 1, 1, 2], [2, 1, 2, 1], [v, 1.0, 0.5j, -0.5j])
    assert H.hermiticity_defect == abs(v) > 0.0
    assert H.hermiticity_defect == np.max(np.abs(as_dense(H) - as_dense(H).conj().T))
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix.from_entries(3, [0, 1], [2, 1], [1e-6, 1.0])


def test_explicit_zero_entries_join_nothing():
    # two graded blocks; zero values couple rows of equal chirality inside
    # and across them, and would merge the blocks if they were kept
    H, grading = _hidden_blocks(np.random.default_rng(133), [(2, 3), (3, 2)], True)
    label = oracle._components(*np.nonzero(H), len(H))
    a = np.flatnonzero(grading > 0)
    other = a[label[a] != label[a[0]]][0]
    r, c = np.nonzero(H)
    rows = np.append(r, [a[0], a[1], other])
    cols = np.append(c, [a[1], other, a[0]])
    values = np.append(H[r, c], np.zeros(3))
    M = HermitianMatrix.from_entries(len(H), rows, cols, values, grading)
    assert len(M.values) == np.count_nonzero(H) and np.all(M.values != 0)
    assert len(np.unique(oracle._components(M.rows, M.cols, M.dim))) == 2
    assert np.array_equal(oracle.hermitian_eigs(M), oracle.hermitian_eigs(HermitianMatrix(H, grading)))


@pytest.mark.parametrize("entries, message", [
    (([0, 1], [1, 0], [np.nan, 1.0]), "non-finite entries"),
    (([0, 1], [1, 0], [complex(0, np.inf), complex(0, -np.inf)]), "non-finite entries"),
    (([0], [0], [complex(np.nan, 0)]), "non-finite entries"),
    (([0, 1], [1, 2], [1.0, 1.0]), "must lie in 2 rows, one per position"),
    (([0, -1], [1, 0], [1.0, 1.0]), "must lie in 2 rows, one per position"),
    (([0, 1, 0], [1, 0, 1], [1.0, 1.0, 2.0]), "must lie in 2 rows, one per position"),
])
def test_from_entries_refusals(entries, message):
    with pytest.raises(ValueError, match=message):
        HermitianMatrix.from_entries(2, *entries)


def _peak_bytes(call):
    """Peak of the memory traced while ``call`` runs (numpy reports its
    array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_sphere_blocks_frees_the_entries_before_the_solve():
    # 452 B per basis row while the entries lived next to the padded tables
    k_max = 200
    peak = _peak_bytes(lambda: oracle.verify_sphere_blocks(k_max, [0.5]))
    assert peak <= 400 * (k_max + 1) * (k_max + 2)


def _gauge_case(n):
    if n == 2:
        data, _, _ = _identity_case(2)
        return data, [((1, 0), 0.2 + 0.1j), ((0, 1), -0.05 + 0.3j)], (4, 8, 12)
    data, _, _ = _identity_case(4)
    return data, [((1, 0, 0, 0), 0.2 - 0.1j), ((0, 1, -1, 0), 0.1 + 0.05j)], (1, 2)


# the entry route needs 7 MB and 3 MB, where the dense assembly took 68 MB
# (dimension 1250) and 252 MB (dimension 2500)
@pytest.mark.parametrize("n", [2, 4])
def test_verify_gauge_holds_no_dense_operator(n):
    data, f_terms, cutoffs = _gauge_case(n)
    assert _peak_bytes(lambda: oracle.verify_gauge(data, f_terms, cutoffs)) <= 16e6


def test_identity_checks_holds_no_dense_operator():
    # dimension 2500: the products over the entries need 3 MB, where the
    # dense operator alone is 100 MB
    assert _peak_bytes(lambda: oracle.identity_checks(*_identity_case(4))) <= 8e6


@pytest.mark.parametrize("rows, nu, amp, cutoffs", [
    ([[1.0, 0.2], [-0.1, 0.9]], (1, 1), 0.15, (4, 8, 12)),
    ([[1.0, 0.1, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]], (0, 1, 1), 0.015, (2, 3)),
], ids=["2d", "3d"])
def test_verify_gauge_splits_by_coset_and_matches_the_dense_solve(
        monkeypatch, rows, nu, amp, cutoffs):
    # one frequency spans a rank-1 sublattice L': one block per coset of L'
    lat = Lattice.from_rows(np.array(rows))
    data = SpinCData(lat, [1] + [0] * (lat.n - 1), [0.0] * lat.n, np.zeros(lat.n))
    f_terms = [(nu, complex(amp, -amp / 2))]
    pot = FourierPotential.from_gradient(lat, f_terms)
    for cutoff in cutoffs:
        H = oracle.torus_fourier_operator(data, pot, cutoff)
        assert _component_count(as_dense(H)) > 1
    split = oracle.verify_gauge(data, f_terms, cutoffs=cutoffs)
    monkeypatch.setattr(oracle, "hermitian_eigs", lambda H: np.linalg.eigvalsh(as_dense(H)))
    dense = oracle.verify_gauge(data, f_terms, cutoffs=cutoffs)
    assert split["pass"]
    assert (split["pass"], split["monotone"]) == (dense["pass"], dense["monotone"])
    assert np.max(np.abs(np.subtract(split["residuals"], dense["residuals"]))) <= 1e-12


def test_verify_gauge_detects_large_truncation_error():
    # a huge gradient spreads the conjugation far beyond the window, so
    # the truncated spectra cannot match at these cutoffs
    lat = Lattice.from_rows(np.eye(2))
    data = SpinCData(lat, [1, 0], [0.0, 0.0], np.zeros(2))
    rep = oracle.verify_gauge(data, [((1, 0), 40.0)], cutoffs=(3, 4))
    assert not rep["pass"]


def _random_spinc(rng, n):
    lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
    return SpinCData(
        lat, rng.integers(0, 2, size=n), rng.uniform(0, 1, size=n), rng.normal(size=n)
    )


@pytest.mark.parametrize("n, cutoff", [(1, 4), (2, 2), (3, 1), (4, 1)])
def test_fourier_operator_matches_brute_force_loop(n, cutoff):
    rng = np.random.default_rng(80 + n)
    data = _random_spinc(rng, n)
    gens = clifford.build_rep(n)
    N = data.spinor_dim
    # one shift of sup-norm <= 2 (partly inside the window) and one that
    # leaves it from every mode
    near = tuple(int(c) for c in rng.integers(-2, 3, size=n))
    shifts = [near if any(near) else (1,) * n, (2 * cutoff + 1,) + (0,) * (n - 1)]
    terms = []
    for nu in shifts:
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        terms += [(nu, a), (tuple(-c for c in nu), np.conj(a))]
    pot = FourierPotential(data.lattice, terms)

    window = list(itertools.product(range(-cutoff, cutoff + 1), repeat=n))
    for potential in (FourierPotential(data.lattice, []), pot):
        H = oracle.torus_fourier_operator(data, potential, cutoff)
        # row N i + a is spinor component a of mode i of the window
        modes = oracle._operator_window(data, cutoff)
        assert [tuple(m) for m in modes] == window
        ref = np.zeros((len(window) * N,) * 2, dtype=np.complex128)
        for i, m in enumerate(window):
            ref[i * N:(i + 1) * N, i * N:(i + 1) * N] = oracle._mode_blocks(data.theta_prime(m))
            for nu, a in potential.table.items():
                target = tuple(x + y for x, y in zip(m, nu))
                if target in window:
                    j = window.index(target)
                    ref[j * N:(j + 1) * N, i * N:(i + 1) * N] += 0.5j * sum(
                        aj * g for aj, g in zip(a, gens)
                    )
        assert np.max(np.abs(as_dense(H) - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))


def _assemble_by_mode(modes, terms):
    """``_assemble`` as a dense matrix, placed block by block in a loop over
    the shifts and the modes, each target looked up by its coordinates."""
    K, N = len(modes), np.shape(next(iter(terms.values())))[-1]
    index = {m: i for i, m in enumerate(map(tuple, modes.tolist()))}
    dense = np.zeros((K * N, K * N), dtype=np.complex128)
    for nu, blocks in terms.items():
        for i, m in enumerate(modes.tolist()):
            j = index.get(tuple(x + y for x, y in zip(m, nu)))
            if j is not None:
                assert not np.any(dense[j * N:(j + 1) * N, i * N:(i + 1) * N])
                dense[j * N:(j + 1) * N, i * N:(i + 1) * N] = np.broadcast_to(
                    blocks, (K, N, N))[i]
    return dense


# the dense reference caps the window at 625 modes: every cutoff 0..3 for
# n <= 3, and 0..2 for n = 4
@pytest.mark.parametrize("n, cutoff", [
    (n, cutoff) for n in (1, 2, 3, 4) for cutoff in range(4) if (2 * cutoff + 1) ** n <= 625])
def test_assemble_matches_a_per_mode_loop(n, cutoff):
    rng = np.random.default_rng(10 * n + cutoff)
    modes = oracle._operator_window(_random_spinc(rng, n), cutoff)
    K, N = len(modes), int(rng.integers(1, 4))

    def blocks(*shape):  # complex, with exact zeros
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.6)

    terms = {(0,) * n: blocks(K, N, N)}
    for _ in range(6):  # shifts partly inside the window
        nu = tuple(int(c) for c in rng.integers(-2 * cutoff, 2 * cutoff + 1, size=n))
        if nu not in terms:
            terms[nu] = [blocks(N, N), blocks(K, N, N), blocks(1, N, N)][int(rng.integers(3))]
    # shifts that leave the window from every mode, one past the int64 sum
    for nu in ((2 * cutoff + 1,) + (0,) * (n - 1), (0,) * (n - 1) + (-(2 ** 63 - 1),)):
        terms[nu] = blocks(N, N)
    terms[next(iter(terms))] = terms[next(iter(terms))] * (rng.random((K, 1, 1)) < 0.7)
    rows, cols, values = oracle._assemble(modes, terms)
    assert np.all(values != 0)
    assert len(np.unique(rows * K * N + cols)) == len(rows)
    got = np.zeros((K * N, K * N), dtype=np.complex128)
    got[rows, cols] = values
    assert np.array_equal(got, _assemble_by_mode(modes, terms))
    # by shift (in the order of ``terms``), source mode and block entry
    shift = {nu: s for s, nu in enumerate(terms)}
    s = [shift[tuple(x)] for x in (modes[rows // N] - modes[cols // N]).tolist()]
    key = np.lexsort((cols % N, rows % N, cols // N, s))
    assert np.array_equal(key, np.arange(len(rows)))


@pytest.mark.parametrize("n, cutoff", [(2, 4), (3, 2)])
def test_potential_free_operator_is_block_diagonal_by_mode(n, cutoff):
    rng = np.random.default_rng(90 + n)
    data = _random_spinc(rng, n)
    H = oracle.torus_fourier_operator(data, FourierPotential(data.lattice, []), cutoff)
    modes = oracle._operator_window(data, cutoff)
    dense = np.linalg.eigvalsh(as_dense(H))
    blocks = np.sort(np.concatenate([
        np.linalg.eigvalsh(oracle._mode_blocks(data.theta_prime(m))) for m in modes
    ]))
    assert np.max(np.abs(dense - blocks)) <= 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: HermitianMatrix(np.zeros((2, 3))), "matrix must be square"),
    (lambda: HermitianMatrix([[np.nan, 1.0], [1.0, 0.0]]), "non-finite entries"),
    (lambda: HermitianMatrix([[0.0, np.inf], [np.inf, 0.0]]), "non-finite entries"),
    (lambda: HermitianMatrix([[0.0, 1.0], [1.0, np.nan]], grading=[1, -1]),
     "non-finite entries"),
    (lambda: HermitianMatrix([[0.0, complex(0, np.inf)], [complex(0, -np.inf), 0.0]],
                             grading=[1, -1]),
     "non-finite entries"),
    (lambda: FourierPotential(Lattice(np.eye(2)), [((1, 0, 0), np.ones(2))]), "wrong length"),
    (lambda: FourierPotential.from_gradient(Lattice(np.eye(2)), [((1,), 0.1)]), "wrong length"),
    (lambda: FourierPotential(Lattice(np.eye(2)), [((1, 0), np.array([np.inf, 0.0]))]),
     "not finite"),
    (lambda: oracle.verify_gauge(SpinCData(Lattice(np.eye(2)), [1, 0], [0.0, 0.0], np.zeros(2)),
                                 [((1, 0), 0.0)], cutoffs=(4, 8, 12)),
     "gauge check needs a potential df"),
    (lambda: oracle.verify_gauge(SpinCData(Lattice(np.eye(2)), [1, 0], [0.0, 0.0], np.zeros(2)),
                                 [((1, 0), 0.1)], cutoffs=(5, 3)), "strictly increasing cutoffs"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_an_overflowing_gradient_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"coefficient for \(1, 0\) is not finite"):
            FourierPotential.from_gradient(Lattice(np.eye(2)), [((1, 0), 1e308)])


@pytest.mark.parametrize("nu", [2 ** 63, -2 ** 63, 2 ** 70])
def test_a_frequency_past_int64_is_refused_at_construction(nu):
    # it used to pass, and the assembly's int64 cast raised OverflowError
    line = Lattice(np.eye(1))
    with pytest.raises(ValueError, match=rf"frequency \({nu},\) has an entry of 2\*\*63"):
        FourierPotential(line, [((nu,), [0.1]), ((-nu,), [0.1])])
    with pytest.raises(ValueError, match=rf"frequency \({nu},\) has an entry of 2\*\*63"):
        FourierPotential.from_gradient(line, [((nu,), 0.1)])


def test_a_frequency_below_2_63_still_assembles():
    data = SpinCData(Lattice(np.eye(1)), [1], [0.0], [0.0])
    pot = FourierPotential(data.lattice, [((2 ** 62,), [0.1]), ((-2 ** 62,), [0.1])])
    assert oracle.torus_fourier_operator(data, pot, 2).dim == 5


_PLANE = Lattice(np.eye(2))
_PLANE_DATA = SpinCData(_PLANE, [1, 0], [0.0, 0.0], np.zeros(2))


# a float or bool is refused, never truncated to an integer (1.9 or True to 1)
@pytest.mark.parametrize("call, message", [
    (lambda: FourierPotential(_PLANE, [((1.9, 0), [0.1, 0.0]), ((-1.9, 0), [0.1, 0.0])]),
     "frequency entry must be an integer, got 1.9"),
    (lambda: FourierPotential.from_gradient(_PLANE, [((True, 0.7), 0.1)]),
     "frequency entry must be an integer, got True"),
    (lambda: oracle._operator_window(_PLANE_DATA, 2.7), "cutoff must be an integer, got 2.7"),
    (lambda: oracle.identity_checks(_PLANE_DATA, FourierPotential(_PLANE, []), 3.9),
     "cutoff must be an integer, got 3.9"),
    (lambda: SpinCData(_PLANE, [0.7, 1.2], [0.0, 0.0], np.zeros(2)),
     r"delta entries must be 0 or 1, got \[0.7, 1.2\]"),
    (lambda: oracle.sphere_level_matrix(True), "level must be an integer, got True"),
    (lambda: sphere.curve_table([0.0], True), "level must be an integer, got True"),
    (lambda: clifford.build_rep(True), "dimension must be an integer, got True"),
    (lambda: oracle.verify_torus_modes(2, 40.0, 11), "samples must be an integer, got 40.0"),
    (lambda: oracle.verify_torus_modes(2, 40, 11.0), "seed must be an integer, got 11.0"),
], ids=["frequency", "gradient-frequency", "window", "identity", "delta", "level-matrix",
        "curve-table", "rep", "samples", "seed"])
def test_integer_inputs_are_refused_not_truncated(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_verify_gauge_refuses_a_non_integer_cutoff_before_any_window(monkeypatch):
    monkeypatch.setattr(oracle, "_operator_window", None)  # refused before any window
    with pytest.raises(ValueError, match="cutoff must be an integer, got 2.5"):
        oracle.verify_gauge(_PLANE_DATA, [((1, 0), 0.1)], cutoffs=(2.5, 3.5))


@pytest.mark.parametrize("nu, refused", [((6, 0), False), ((0, -7), True),
                                         ((2 ** 63 - 1, 1), True)])
def test_verify_gauge_refuses_a_frequency_no_window_couples(monkeypatch, nu, refused):
    # |nu| <= 2 * cutoff couples the opposite corners of the window, past it no two modes
    data = SpinCData(Lattice(np.eye(2)), [1, 0], [0.0, 0.0], np.zeros(2))
    f_terms = [((1, 0), 0.1), (nu, 0.05j)]
    if not refused:
        assert oracle.verify_gauge(data, f_terms, cutoffs=(2, 3))["checks"] == 24
        return
    monkeypatch.setattr(oracle, "_operator_window", None)  # refused before any window
    with pytest.raises(ValueError, match=rf"frequency \[{nu[0]}, {nu[1]}\] couples no two modes"):
        oracle.verify_gauge(data, f_terms, cutoffs=(2, 3))


def test_verify_sphere_blocks_refuses_a_level_that_couples_two_weights(monkeypatch):
    real = oracle.sphere_level_entries

    def coupled(k_max):
        rows, cols, values, w = real(k_max)
        level2 = np.arange(6, 12)  # basis vectors of level 2
        a = level2[w[level2] == 1.5][0]
        b = level2[w[level2] == 0.5][0]
        return (np.append(rows, [a, b]), np.append(cols, [b, a]),
                np.hstack([values, [[0.5, 0.5], [0.0, 0.0]]]), w)

    monkeypatch.setattr(oracle, "sphere_level_entries", coupled)
    with pytest.raises(ValueError, match="level 2 couples two different weights"):
        oracle.verify_sphere_blocks(3, [0.5])


def test_verify_sphere_blocks_default_grid(capsys):
    # 17 couplings (the CLI's default --t-grid) x levels 0..2 with 2k + 2 members each
    assert cli.main(["verify", "sphere-blocks", "--k-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == 17 * (2 + 4 + 6)


def test_verify_sphere_blocks_checks_the_members_the_spectrum_merges(monkeypatch):
    # a shifted minus family in the one member list reaches spectrum and oracle alike
    real = sphere._levels

    def shifted(k_max, t):
        value, fam, *rest = real(k_max, t)
        return (np.where(fam == sphere.FAMILIES.index("minus"), value + 0.25, value),
                fam, *rest)

    monkeypatch.setattr(sphere, "_levels", shifted)
    assert sphere.spectrum(0.0, 2.0).values().tolist() == [-1.5, 1.5, 1.75]
    rep = oracle.verify_sphere_blocks(k_max=4, t_values=[-1.0, 0.5])
    assert rep["pass"] is False
    assert {f["family"] for f in rep["failures"]} == {"minus"}


def _shifted_mode_values(monkeypatch, recorded=None):
    """Patch torus.mode_values to add 1e-6 to every value, so that every
    sample fails; ``recorded`` collects the sorted closed list of each."""
    real = torus.mode_values

    def shifted(tp):
        values, mults = real(tp)
        if recorded is not None:
            recorded.extend(np.sort(np.repeat(v, m)) + 1e-6 for v, m in zip(values, mults))
        return values + 1e-6, mults

    monkeypatch.setattr(torus, "mode_values", shifted)


def test_verify_torus_modes_reports_each_failing_mode(monkeypatch):
    closed = []
    _shifted_mode_values(monkeypatch, closed)
    rep = oracle.verify_torus_modes(n=2, samples=45, seed=7)
    assert rep["pass"] is False and rep["checks"] == 45 and len(closed) == 45
    # the first 20 failures, in sample order
    assert [f["closed"] for f in rep["failures"]] == [c.tolist() for c in closed[:20]]
    assert all(set(f) == {"closed", "oracle", "theta_prime"} for f in rep["failures"])
    # every value is off by the shift, so each sample's residual is
    # 1e-6 / (1 + max |closed|); relative 1e-7 of the shift covers the
    # rounding of values up to |2 pi theta'| ~ 100 (ulp 1.4e-14)
    for f in rep["failures"]:
        assert np.subtract(f["closed"], f["oracle"]) == pytest.approx([1e-6] * 2, rel=1e-7)
    expected = [1e-6 / (1.0 + np.max(np.abs(c))) for c in closed]
    assert rep["max_residual"] == pytest.approx(max(expected), rel=1e-7)


@pytest.mark.parametrize("n, block", [(2, 28), (3, 1), (5, 48)])
@pytest.mark.parametrize("mutated", [False, True])
def test_torus_mode_blocks_leave_the_report_unchanged(monkeypatch, n, block, mutated):
    # block entries per sample N^2 = 4, 4, 16: blocks of 7, 1 (the budget is
    # below one matrix) and 3 samples against one block of 50
    if mutated:
        _shifted_mode_values(monkeypatch)
    whole = oracle.verify_torus_modes(n=n, samples=50, seed=n)
    assert whole["pass"] is not mutated
    monkeypatch.setattr(oracle, "TORUS_MODE_BLOCK", block)
    assert oracle.verify_torus_modes(n=n, samples=50, seed=n) == whole


class _CallSpy:
    """A generator that records the name and result of every draw."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            self.draws.append((name, getattr(self.rng, name)(*args, **kwargs)))
            return self.draws[-1][1]
        return draw


@pytest.mark.parametrize("n", range(1, 13))
def test_verify_torus_modes_draws_theta_prime_once(monkeypatch, n):
    # both sides read theta' alone, so it is the one quantity drawn
    real, spies = np.random.default_rng, []

    def spied(seed):
        spies.append(_CallSpy(real(seed)))
        return spies[-1]

    monkeypatch.setattr(np.random, "default_rng", spied)
    rep = oracle.verify_torus_modes(n=n, samples=30, seed=n)
    assert rep["pass"] and rep == oracle.verify_torus_modes(n=n, samples=30, seed=n)
    assert [[(name, x.shape) for name, x in spy.draws] for spy in spies] == [
        [("normal", (30, n))]] * 2


def test_verify_torus_modes_solves_no_basis(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("touched a basis")

    for name in ("det", "cond", "inv"):
        monkeypatch.setattr(np.linalg, name, refused)
    for n in range(1, 7):
        assert oracle.verify_torus_modes(n=n, samples=40, seed=n)["pass"]


def test_verify_torus_modes_builds_no_object_per_sample(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("built a per-sample object")

    for module, name in ((oracle, "Lattice"), (oracle, "SpinCData"),
                         (oracle, "HermitianMatrix"), (torus, "SpinCData")):
        monkeypatch.setattr(module, name, refused)
    assert oracle.verify_torus_modes(n=3, samples=50, seed=2)["pass"]


@pytest.mark.parametrize("broken", ["asymmetric", "nan"])
def test_verify_torus_modes_refuses_a_stack_that_is_not_finite_and_hermitian(
        monkeypatch, broken):
    real = oracle.vector_action

    def tampered(v, gens):
        out = real(v, gens).copy()
        out[-1, 0, 1] += 1e-9 if broken == "asymmetric" else np.nan
        return out

    monkeypatch.setattr(oracle, "vector_action", tampered)
    with pytest.raises(ValueError, match="not finite and Hermitian"):
        oracle.verify_torus_modes(n=2, samples=5, seed=7)


def _volume_residual_per_block(H, K, N, vol):
    """The volume-element residual as it was first written: the blocks of H
    over the (K, K, N, N) view, each multiplied by vol on both sides."""
    blocks = H.reshape(K, N, K, N).transpose(0, 2, 1, 3)
    return float(np.max(np.abs(vol @ blocks + blocks @ vol))) / (1.0 + float(np.max(np.abs(H))))


def _identity_case(n):
    """An operator with an oscillating potential: n = 2 (window 6), n = 3
    (window 3, no grading) or n = 4 (window 2, one interior row)."""
    if n == 2:
        lat = Lattice.from_rows(np.array([[1.0, 0.1], [0.0, 0.9]]))
        data = SpinCData(lat, [1, 0], [0.3, 0.0], np.array([0.25, -0.4]))
        a = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        return data, FourierPotential(lat, [((1, 1), a), ((-1, -1), np.conj(a))]), 6
    if n == 3:
        lat = Lattice.from_rows(np.array([[1.0, 0.2, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 1.1]]))
        data = SpinCData(lat, [1, 1, 0], [0.1, 0.0, 0.3], np.array([0.2, -0.3, 0.5]))
        a = np.array([0.2 + 0.1j, -0.1 + 0.3j, 0.15 - 0.05j])
        return data, FourierPotential(lat, [((1, 0, -1), a), ((-1, 0, 1), np.conj(a))]), 3
    lat = Lattice.from_rows(np.eye(4) + 0.1 * np.tri(4, k=-1))
    data = SpinCData(lat, [1, 0, 1, 0], [0.2, 0.0, 0.5, 0.1], np.array([0.3, -0.2, 0.1, 0.4]))
    pot = FourierPotential.from_gradient(
        lat, [((1, 0, 0, 0), 0.2 - 0.1j), ((0, 1, -1, 0), 0.1 + 0.05j)])
    return data, pot, 2


# json.dumps of the report, recorded when the products were first taken over
# the entries: they sum in another order than the dense products, which moved
# lichnerowicz_flat and square_expansion by at most 4.4e-18 here
# (test_products_over_entries_match_the_dense_products bounds the drift);
# n = 3 recorded before the shifts were assembled in one pass
IDENTITY_SHA256 = {
    2: "0db2473346bc80b9811374205fbe1987bcdf43114ecb0080ad9b6eb52a0fafe3",
    3: "41b847a44d4b68609de14f15303a8fe910f05858c57ba528587ba87ef61490cd",
    4: "91595e157abb813b9f0b4da12fccad6ef8bb085df4d267a7f67cdc7a2e4ad8c2",
}


@pytest.mark.parametrize("n", sorted(IDENTITY_SHA256))
def test_identity_checks_report_is_pinned(n):
    rep = oracle.identity_checks(*_identity_case(n))
    assert ("volume_anticommute" in rep["checks"]) == (n % 2 == 0)
    assert hashlib.sha256(json.dumps(rep).encode()).hexdigest() == IDENTITY_SHA256[n]


def _add_chirality_preserving_term(monkeypatch):
    real = oracle.torus_fourier_operator

    def broken(data, potential, cutoff):  # + 0.1 I keeps the grading's rows apart
        H = real(data, potential, cutoff)
        return HermitianMatrix(as_dense(H) + 0.1 * np.eye(H.dim), H.grading)

    monkeypatch.setattr(oracle, "torus_fourier_operator", broken)


@pytest.mark.parametrize("n", [2, 4])
def test_volume_check_catches_a_chirality_preserving_term(monkeypatch, n):
    data, pot, cutoff = _identity_case(n)
    _add_chirality_preserving_term(monkeypatch)
    rep = oracle.identity_checks(data, pot, cutoff)
    assert rep["checks"]["volume_anticommute"] > 1e-12
    assert rep["pass"] is False
    # bit for bit the residual of the per-block products
    H = oracle.torus_fourier_operator(data, pot, cutoff)
    modes = oracle._operator_window(data, cutoff)
    vol = clifford.volume_element(clifford.build_rep(n))
    expected = _volume_residual_per_block(as_dense(H), len(modes), data.spinor_dim, vol)
    assert rep["checks"]["volume_anticommute"] == expected


@pytest.mark.parametrize("n", [2, 4])
def test_volume_check_reads_the_grading_the_solver_uses(monkeypatch, n):
    real = oracle.torus_fourier_operator

    def misgraded(data, potential, cutoff):  # the first mode's chirality flipped
        H = real(data, potential, cutoff)
        g = H.grading.copy()
        g[:data.spinor_dim] *= -1.0
        return HermitianMatrix.from_entries(H.dim, H.rows, H.cols, H.values, g)

    monkeypatch.setattr(oracle, "torus_fourier_operator", misgraded)
    data, pot, cutoff = _identity_case(n)
    rep = oracle.identity_checks(data, pot, cutoff)
    assert rep["checks"]["volume_anticommute"] > 1e-12
    assert rep["pass"] is False
    # the solver refuses the same operator
    with pytest.raises(ValueError, match="couples two rows of equal chirality"):
        oracle.hermitian_eigs(misgraded(data, pot, cutoff))


def test_a_volume_element_that_is_not_diagonal_is_refused(monkeypatch):
    # the grading, and with it the volume check, is its diagonal
    real = oracle.volume_element
    monkeypatch.setattr(oracle, "volume_element", lambda gens: real(gens) + gens[0])
    data, pot, cutoff = _identity_case(2)
    for call in (oracle.torus_fourier_operator, oracle.identity_checks):
        with pytest.raises(AssertionError, match="^the volume element is not diagonal$"):
            call(data, pot, cutoff)


def _dense_identity_checks(data, potential, cutoff):
    """``identity_checks`` with dense products, as it was first written:
    H[rows] @ H, M_j and the scalar operator as (K, K) arrays, and
    kron(S, eye(N)) added to the interior rows."""
    modes = oracle._operator_window(data, cutoff)
    n, N, K = data.n, data.spinor_dim, len(modes)
    bw = potential.bandwidth()
    interior = np.flatnonzero(np.max(np.abs(modes), axis=1) <= cutoff - 2 * bw)
    rows = (N * interior[:, None] + np.arange(N)).ravel()
    big = oracle.torus_fourier_operator(data, potential, cutoff)
    H = as_dense(big)
    lhs = H[rows] @ H
    scale = 1.0 + float(np.max(np.abs(lhs)))
    tm = data.theta_mode(modes)
    cov, scal, curl = oracle._identity_terms(data, potential, tm)

    def scalar_op(table):
        r, c, v = oracle._assemble(modes, {nu: np.reshape(s, (-1, 1, 1)) for nu, s in table.items()})
        return oracle._scatter((r, c), v, (K, K))

    def interior_rows(table, S):
        r, c, v = oracle._assemble(modes, table)
        mine = np.isin(r, rows)
        out = oracle._scatter((np.searchsorted(rows, r[mine]), c[mine]), v[mine], (len(rows), K * N))
        return out + np.kron(S, np.eye(N))

    M = [scalar_op({nu: c[..., j] for nu, c in cov.items()}) for j in range(n)]
    gens = clifford.build_rep(n)
    plain = 2j * np.pi * clifford.vector_action(tm, gens)
    checks = {
        "hermitian": big.hermiticity_defect / (1.0 + big.scale),
        "covariant_skew": max(float(np.max(np.abs(Mj + Mj.conj().T)))
                              / (1.0 + float(np.max(np.abs(Mj)))) for Mj in M),
        "lichnerowicz_flat": float(np.max(np.abs(
            lhs - interior_rows(curl, -sum(Mj[interior] @ Mj for Mj in M))))) / scale,
        "square_expansion": float(np.max(np.abs(
            lhs - interior_rows({**curl, (0,) * n: plain @ plain},
                                scalar_op(scal)[interior])))) / scale,
    }
    if n % 2 == 0:  # vol H + H vol with vol diagonal, a block of rows at a time
        vol = np.tile(np.diag(clifford.volume_element(gens)), K)
        checks["volume_anticommute"] = max(
            float(np.max(np.abs(vol[s, None] * H[s] + H[s] * vol)))
            for s in np.array_split(np.arange(len(vol)), 8)) / (1.0 + float(np.max(np.abs(H))))
    return {"checks": checks, "interior_rows": len(interior),
            "pass": all(r <= (1e-10 if name in ("lichnerowicz_flat", "square_expansion")
                              else 1e-12) for name, r in checks.items())}


def _random_identity_case(n, closed, seed):
    """Seeded spin-c data on a random basis, with one gradient potential
    (closed) or one co-exact term (not closed), at a cutoff that leaves
    interior rows (a single interior mode in 4D)."""
    rng = np.random.default_rng(seed)
    lat = Lattice.from_rows(np.eye(n) + 0.2 * rng.uniform(-1.0, 1.0, size=(n, n)))
    data = SpinCData(lat, rng.integers(0, 2, size=n), rng.uniform(0.0, 1.0, size=n),
                     rng.normal(0.0, 2.0, size=n))
    nu = tuple(int(c) for c in rng.integers(-1, 2, size=n))
    nu = (1,) + nu[1:] if not any(nu) else nu
    if closed:
        pot = FourierPotential.from_gradient(lat, [(nu, complex(*rng.uniform(-0.3, 0.3, 2)))])
    else:
        a = rng.uniform(-0.4, 0.4, size=n) + 1j * rng.uniform(-0.4, 0.4, size=n)
        pot = FourierPotential(lat, [(nu, a), (tuple(-c for c in nu), np.conj(a))])
    assert pot.is_closed() is closed
    return data, pot, {2: 5, 3: 3, 4: 2}[n]


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "nonclosed"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_products_over_entries_match_the_dense_products(n, closed):
    for seed in range(2 if n < 4 else 1):
        case = _random_identity_case(n, closed, 100 * n + seed)
        rep, dense = oracle.identity_checks(*case), _dense_identity_checks(*case)
        assert rep["interior_rows"] == dense["interior_rows"] and rep["pass"] is dense["pass"]
        assert rep["pass"], rep
        for name, residual in dense["checks"].items():
            if name in ("lichnerowicz_flat", "square_expansion"):  # summed in another order
                assert abs(rep["checks"][name] - residual) <= 1e-15, (name, rep, dense)
            else:
                assert rep["checks"][name] == residual, (name, rep, dense)
        assert rep["checks"].keys() == dense["checks"].keys()


def test_identity_checks_reads_no_dense_operator(monkeypatch):
    reports = [oracle.identity_checks(*_identity_case(n)) for n in (2, 4)]

    def refuse(*args):
        raise AssertionError("identity_checks built a dense operator")

    monkeypatch.setattr(oracle, "_scatter", refuse)
    assert [oracle.identity_checks(*_identity_case(n)) for n in (2, 4)] == reports


def test_lichnerowicz_check_catches_a_flipped_curvature_sign(monkeypatch):
    data, pot, cutoff = _identity_case(2)
    assert not pot.is_closed()  # d(eta) != 0, so the curvature term is not 0
    real = oracle.two_form_action
    monkeypatch.setattr(oracle, "two_form_action", lambda omega, gens: -real(omega, gens))
    rep = oracle.identity_checks(data, pot, cutoff)
    assert rep["checks"]["lichnerowicz_flat"] > 1e-10
    assert rep["pass"] is False


def test_square_check_catches_a_dropped_eta_square(monkeypatch):
    data, pot, cutoff = _identity_case(2)
    real = oracle._identity_terms

    def broken(data, potential, tm):  # |eta|^2 without the harmonic part (h . h) / 4
        cov, scal, curl = real(data, potential, tm)
        scal[(0,) * data.n] = scal[(0,) * data.n] - (data.A @ data.A) / 4.0
        return cov, scal, curl

    monkeypatch.setattr(oracle, "_identity_terms", broken)
    rep = oracle.identity_checks(data, pot, cutoff)
    assert rep["checks"]["square_expansion"] > 1e-10
    assert rep["checks"]["lichnerowicz_flat"] <= 1e-10  # M_j does not see the change
    assert rep["pass"] is False


@pytest.mark.parametrize("n, cutoff", [(2, -1), (3, -2)])
def test_a_negative_window_cutoff_is_refused_by_name(monkeypatch, n, cutoff):
    # refused before the dimension cap (at n = 3, cutoff -2 passed it as -54
    # rows) and before any array is built; cutoff 0, one mode, stays valid
    data = SpinCData(Lattice(np.eye(n)), [1] + [0] * (n - 1), [0.0] * n, np.zeros(n))
    empty = FourierPotential(data.lattice, [])
    assert oracle._operator_window(data, 0).tolist() == [[0] * n]
    monkeypatch.setattr(np, "indices", None)
    for call in (oracle._operator_window, oracle.torus_fourier_operator, oracle.identity_checks):
        args = (data, cutoff) if call is oracle._operator_window else (data, empty, cutoff)
        with pytest.raises(ValueError, match=rf"^cutoff must be 0 or more, got {cutoff}$"):
            call(*args)
