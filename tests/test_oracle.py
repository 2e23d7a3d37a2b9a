"""Matrix oracles: block assembly, Fourier operators, cross-checks."""

import itertools

import numpy as np
import pytest

from magdirac import clifford, oracle, sphere, torus
from magdirac.lattice import Lattice
from magdirac.oracle import FourierPotential, HermitianMatrix
from magdirac.torus import SpinCData


def test_hermitian_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = HermitianMatrix(np.array([[1.0, 2.0j], [-2.0j, 3.0]]))
    assert H.dim == 2
    assert H.hermiticity_defect == 0.0


def _closed_level(k, t):
    """Closed-form members of level k at coupling t, ascending."""
    return np.sort([1.5 + t + k, 1.5 - t + k] + [
        0.5 + s * np.sqrt(sphere.f0(k, p, t)) for p in range(k) for s in (-1, 1)
    ])


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
            got = oracle.hermitian_eigs(H0 + t * S)
            closed = _closed_level(k, t)
            assert np.max(np.abs(got - closed)) <= 1e-12 * (1 + np.max(np.abs(closed)))
    with pytest.raises(ValueError):
        oracle.sphere_level_matrix(-1)


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
    real = sphere.curve_samples
    swap = {"plus": "minus", "minus": "plus"}

    def swapped(t_values, k_max, window=None):
        return [(t, swap.get(fam, fam), k, p, s, v)
                for t, fam, k, p, s, v in real(t_values, k_max, window)]

    monkeypatch.setattr(oracle, "curve_samples", swapped)
    rep = oracle.verify_sphere_blocks(k_max=3, t_values=[-1.0, 0.5])
    assert rep["pass"] is False
    assert {f["family"] for f in rep["failures"]} == {"plus", "minus"}
    assert all(f["p"] is None and f["sign"] is None for f in rep["failures"])


def test_verify_sphere_blocks_reports_members_no_row_reaches(monkeypatch):
    real = sphere.curve_samples
    monkeypatch.setattr(oracle, "curve_samples", lambda t_values, k_max: [
        r for r in real(t_values, k_max) if r[1:5] != ("branch", 2, 1, -1)])
    rep = oracle.verify_sphere_blocks(k_max=3, t_values=[0.25])
    assert rep["pass"] is False and rep["checks"] == 4 * 5 - 1
    (miss,) = rep["failures"]
    assert (miss["family"], miss["k"], miss["p"], miss["sign"]) == ("branch", 2, 1, -1)
    assert miss["closed"] is None and miss["t"] == 0.25


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


def test_torus_mode_matrix_matches_closed_form():
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
            M = oracle.torus_mode_matrix(data, m)
            got = oracle.hermitian_eigs(M)
            closed = np.sort(np.concatenate([
                np.full(mult, val)
                for val, mult in torus.mode_eigenvalues(data, m)
            ]))
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
    H, modes = oracle.torus_fourier_operator(data, None, 3)
    assert H.dim == len(modes) * 2 == 49 * 2
    with pytest.raises(ValueError):
        oracle.torus_fourier_operator(data, None, 40)
    other = Lattice.from_rows(2 * np.eye(2))
    pot = FourierPotential.from_gradient(other, [((1, 0), 0.1)])
    with pytest.raises(ValueError):
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

    rep = oracle.identity_checks(data, None, cutoff=3)
    assert rep["pass"] and "volume_anticommute" in rep["checks"]


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
    H, _ = oracle.torus_fourier_operator(
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
    H, _ = oracle.torus_fourier_operator(data, pot, cutoff)
    chirality = np.diag(1j ** (n // 2) * clifford.volume_element(clifford.build_rep(n)))
    assert np.array_equal(H.grading, np.tile(chirality.real, H.dim // len(chirality)))
    got, ref = oracle.hermitian_eigs(H), np.linalg.eigvalsh(H.data)
    assert np.min(np.abs(ref)) < 1e-6  # the zero mode, moved only by truncation
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    # one entry coupling two rows of equal chirality, kept Hermitian
    i, j = np.flatnonzero(H.grading == H.grading[0])[:2]
    bad = H.data.copy()
    bad[i, j] = bad[j, i] = 0.5
    with pytest.raises(ValueError, match="equal chirality"):
        oracle.hermitian_eigs(HermitianMatrix(bad, H.grading))


def test_graded_solve_counts_the_unpaired_rows_as_zeros():
    H = HermitianMatrix([[0, 2j, 0], [-2j, 0, 0], [0, 0, 0]], grading=[1, -1, 1])
    assert oracle.hermitian_eigs(H).tolist() == [-2.0, 0.0, 2.0]
    with pytest.raises(ValueError, match="grading"):
        HermitianMatrix(np.eye(2), grading=[1, 0])


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
    for potential in (None, pot):
        H, modes = oracle.torus_fourier_operator(data, potential, cutoff)
        assert [tuple(m) for m in modes] == window
        ref = np.zeros((len(window) * N,) * 2, dtype=np.complex128)
        for i, m in enumerate(window):
            ref[i * N:(i + 1) * N, i * N:(i + 1) * N] = (
                oracle.torus_mode_matrix(data, m).data
            )
            for nu, a in (potential.table.items() if potential else ()):
                target = tuple(x + y for x, y in zip(m, nu))
                if target in window:
                    j = window.index(target)
                    ref[j * N:(j + 1) * N, i * N:(i + 1) * N] += 0.5j * sum(
                        aj * g for aj, g in zip(a, gens)
                    )
        assert np.max(np.abs(H.data - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("n, cutoff", [(2, 4), (3, 2)])
def test_potential_free_operator_is_block_diagonal_by_mode(n, cutoff):
    rng = np.random.default_rng(90 + n)
    data = _random_spinc(rng, n)
    H, modes = oracle.torus_fourier_operator(data, None, cutoff)
    dense = np.linalg.eigvalsh(H.data)
    blocks = np.sort(np.concatenate([
        np.linalg.eigvalsh(oracle.torus_mode_matrix(data, m).data) for m in modes
    ]))
    assert np.max(np.abs(dense - blocks)) <= 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: HermitianMatrix(np.zeros((2, 3))), "matrix must be square"),
    (lambda: FourierPotential(Lattice(np.eye(2)), [((1, 0, 0), np.ones(2))]), "wrong length"),
    (lambda: FourierPotential(Lattice(np.eye(2)), [((1, 0), np.array([np.inf, 0.0]))]),
     "not finite"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_verify_sphere_blocks_refuses_a_level_that_couples_two_weights(monkeypatch):
    real = oracle.sphere_level_matrix

    def coupled(k):
        H0, S, w = real(k)
        if k == 2:  # weights 3/2 and 1/2 (see the weight array w)
            assert w[0] != w[1]
            H0[0, 1] = H0[1, 0] = 0.5
        return H0, S, w

    monkeypatch.setattr(oracle, "sphere_level_matrix", coupled)
    with pytest.raises(ValueError, match="level 2 couples two different weights"):
        oracle.verify_sphere_blocks(3, [0.5])


def test_verify_sphere_blocks_default_grid():
    # 17 couplings x levels 0..2 with 2k + 2 members each
    assert oracle.verify_sphere_blocks(k_max=2)["checks"] == 17 * (2 + 4 + 6)


def test_verify_sphere_blocks_checks_the_members_the_spectrum_merges(monkeypatch):
    # a shifted minus family in the one member list reaches spectrum and oracle alike
    real = sphere._level
    monkeypatch.setattr(sphere, "_level", lambda k, t: [
        (v + 0.25 if label[0] == "minus" else v, label) for v, label in real(k, t)])
    assert sphere.spectrum(0.0, 2.0).values().tolist() == [-1.5, 1.5, 1.75]
    rep = oracle.verify_sphere_blocks(k_max=4, t_values=[-1.0, 0.5])
    assert rep["pass"] is False
    assert {f["family"] for f in rep["failures"]} == {"minus"}


def test_verify_torus_modes_reports_each_failing_mode(monkeypatch):
    real = oracle.mode_eigenvalues
    monkeypatch.setattr(oracle, "mode_eigenvalues",
                        lambda data, m: [(v + 1e-6, mu) for v, mu in real(data, m)])
    rep = oracle.verify_torus_modes(n=2, samples=5)
    assert rep["pass"] is False and rep["checks"] == 5 and len(rep["failures"]) == 5
    assert all(set(f) == {"closed", "mode", "oracle", "theta_prime"} for f in rep["failures"])
    assert 1e-7 < rep["max_residual"] < 2e-7
