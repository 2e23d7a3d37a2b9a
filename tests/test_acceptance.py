"""End-to-end checks of every advertised exact result and bound.

Each test pins one guarantee of the package at its published tolerance.
``test_square_torus_minimizer_perturbation_dichotomy`` pins how the
smallest positive torus eigenvalue moves when ``A`` is perturbed along a
minimizing shifted dual point: on the circle and at a unique minimizer it
rises for a positive multiple and falls for a negative one, while at the
antipodal minimizing pair of the square torus it falls for either sign.
That pair is the asserted counterexample to the dichotomy as claimed
without hypotheses (see the README).
"""

import time

import numpy as np
import pytest
from helpers import entries, multiplicity_at, sphere_basic

from magdirac import bounds, oracle, sphere, torus
from magdirac.lattice import Lattice
from magdirac.oracle import FourierPotential
from magdirac.torus import SpinCData

T_GRID_17 = np.array([-4.0 + 0.5 * j for j in range(17)])


def test_sphere_block_oracle_matches_closed_form():
    start = time.monotonic()
    rep = oracle.verify_sphere_blocks(k_max=30, t_values=T_GRID_17)
    elapsed = time.monotonic() - start
    assert rep["pass"], rep["failures"][:3]
    assert rep["max_residual"] <= 1e-12
    assert elapsed < 5.0, f"block sweep took {elapsed:.2f}s"

    # labelled spectrum entries reproduce their family formulas
    for t in (-4.0, -1.5, 0.0, 0.5, 4.0):
        spec = sphere.spectrum(t, 8.0)
        for entry in entries(spec):
            got, _, labels = entry
            for family, k, p, sign in labels:  # integer rows, FAMILIES by index
                if sphere.FAMILIES[family] == "plus":
                    value = 1.5 + t + k
                elif sphere.FAMILIES[family] == "minus":
                    value = 1.5 - t + k
                else:
                    value = 0.5 + sign * np.sqrt(sphere.f0(k, p, t))
                assert abs(got - value) <= 2e-9, (t, entry)


def test_sphere_zero_coupling_multiplicities_exact():
    spec = sphere.spectrum(0.0, 13.0)
    for k in range(11):
        assert multiplicity_at(spec, 1.5 + k) == (k + 2) * (k + 1), k


def test_torus_mode_oracle_all_dimensions():
    for n, seed in ((1, 101), (2, 102), (3, 103), (4, 104)):
        rep = oracle.verify_torus_modes(n=n, samples=200, seed=seed)
        assert rep["pass"], (n, rep["failures"][:3])
        assert rep["max_residual"] <= 1e-12


def test_zero_mode_criterion_constructive_and_generic():
    rng = np.random.default_rng(105)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        delta = rng.integers(0, 2, size=n)
        theta = rng.uniform(0, 1, size=n)
        probe = SpinCData(lat, delta, theta, np.zeros(n))
        m0 = rng.integers(-3, 4, size=n)
        tuned = SpinCData(
            lat, delta, theta, -4.0 * np.pi * probe.theta_mode(m0)
        )
        zm = torus.zero_mode(tuned)
        assert zm is not None and np.array_equal(zm, m0)
        spec = torus.spectrum(tuned, 4.0)
        assert multiplicity_at(spec, 0.0) == 2 ** (n // 2)

    for _ in range(50):
        n = int(rng.integers(1, 5))
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        data = SpinCData(
            lat,
            rng.integers(0, 2, size=n),
            rng.uniform(0, 1, size=n),
            rng.normal(size=n),
        )
        assert torus.zero_mode(data) is None
        lam1 = torus.spectrum(
            data, 2.0 * np.pi * np.linalg.norm(data.theta_prime(np.zeros(n))) + 1.0
        ).min_abs()
        assert lam1 > 1e-8


def _closed_low_values(data, count):
    """The ``count`` low-lying exact eigenvalues, cluster-complete."""
    modes = data.lattice.dual().enumerate_shifted(data.base_shift(), 4.0)
    values, mults = torus.mode_values(data.theta_prime(modes))
    values = np.repeat(values.ravel(), mults.ravel())
    values = values[np.argsort(np.abs(values), kind="stable")]
    j = oracle._stable_low_count(values, count)
    return np.array(sorted(values[:j]))


def test_gauge_invariance_of_truncated_spectra():
    rng = np.random.default_rng(106)
    lat = Lattice.from_rows(np.eye(2))
    data = SpinCData(lat, [1, 0], [0.0, 0.0], np.array([0.3, -0.1]))

    for draw in range(5):
        n_terms = int(rng.integers(1, 4))
        f_terms = []
        for _ in range(n_terms):
            nu = tuple(int(c) for c in rng.integers(-2, 3, size=2))
            if all(c == 0 for c in nu):
                nu = (1, 0)
            c = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            f_terms.append((nu, c))

        rep = oracle.verify_gauge(data, f_terms, cutoffs=(4, 8, 12))
        assert rep["pass"], (draw, rep)

        pot = FourierPotential.from_gradient(lat, f_terms)
        closed10 = _closed_low_values(data, 10)
        residuals = []
        for cutoff in (4, 8, 12):
            H = oracle.torus_fourier_operator(data, pot, cutoff)
            eigs = oracle.hermitian_eigs(H)
            low = np.array(sorted(sorted(eigs, key=abs)[: len(closed10)]))
            residuals.append(float(np.max(np.abs(low - closed10))))
        assert all(
            residuals[i + 1] <= residuals[i] + 1e-12 for i in range(2)
        ), (draw, residuals)

        H = oracle.torus_fourier_operator(data, pot, 10)
        eigs = oracle.hermitian_eigs(H)
        low = np.array(sorted(sorted(eigs, key=abs)[: len(closed10)]))
        assert np.max(np.abs(low - closed10)) <= 1e-6, (draw, low)


def test_sphere_estimate_attainment_and_strictness():
    data = bounds.sphere3_data()
    # (a) the first eigenvalue is 3/2 - t where the estimate has a gap of t^2
    for t in np.arange(0.1, 1.501, 0.1):
        lam1 = sphere.lambda1(t)
        assert abs(lam1 - (1.5 - t)) <= 1e-12
        fr = bounds.friedrich(data, t).value
        assert fr < lam1 * lam1 - 1e-13, t

    # (b) conformal lower bound is attained exactly on |t| <= 3/2
    for t in np.arange(-4.0, 4.01, 0.25):
        lam1 = sphere.lambda1(t)
        attained = abs(lam1 + abs(t) - 1.5) <= 1e-12
        assert attained == (abs(t) <= 1.5 + 1e-12), t

    # (c) coupling always lowers the first eigenvalue below 3/2
    for t in np.linspace(-10, 10, 401):
        if t == 0.0:
            continue
        assert sphere.lambda1(t) < 1.5, t


def _mode_matrix_eigs(data, modes):
    """Sorted LAPACK eigenvalues of the mode matrices 2 pi i c(theta')."""
    return np.sort(
        np.concatenate(
            [np.linalg.eigvalsh(oracle._mode_blocks(data.theta_prime(m))) for m in modes]
        )
    )


def test_square_torus_minimizer_perturbation_dichotomy():
    # Every lambda_1^+ below is < 1.1 pi, and every mode outside the box
    # {-2..2}^n has |theta'| > 2, so the box holds all the modes that the
    # independent LAPACK route needs.
    box2 = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    box1 = [(i,) for i in range(-2, 3)]
    Z2 = Lattice.from_rows(np.eye(2))

    def check(data, modes, expected):
        values = torus.spectrum(data, 7.0).values()
        value = values[values > 0.0].min()
        assert abs(value - expected) <= 1e-12, (data.A, value, expected)
        eigs = _mode_matrix_eigs(data, modes)
        lapack = eigs[eigs > 0.0].min()
        assert abs(lapack - expected) <= 1e-12, (data.A, lapack, expected)
        return value

    # (1) Antipodal pair: Z^2, delta = (1, 0), theta = 0.  The minimizer is
    # the pair theta' = +-w, w = (1/2, 0), since 2w is a dual vector, and
    # lambda_1^+(0) = pi.  A = (s, 0) is the perturbation along w with
    # A/4pi = (s/2pi) w: it lengthens one point of the pair and shortens the
    # other, so lambda_1^+ = 2pi(1/2 - |s|/4pi) = pi - |s|/2 for either sign
    # of s.  The positive side is the counterexample to the dichotomy.
    def antipodal(s):
        return SpinCData(Z2, [1, 0], [0.0, 0.0], np.array([s, 0.0]))

    check(antipodal(0.0), box2, np.pi)
    for s in (-0.3, -0.05, 0.05, 0.3):
        data = antipodal(s)
        assert check(data, box2, np.pi - abs(s) / 2.0) < np.pi - 1e-6, s
        pair = _mode_matrix_eigs(data, ((0, 0), (-1, 0)))
        lo, hi = np.pi - abs(s) / 2.0, np.pi + abs(s) / 2.0
        assert np.allclose(pair, [-hi, -lo, lo, hi], rtol=0.0, atol=1e-12), s

    # (2) Unique minimizer, where the dichotomy holds: theta = (0.2, 0) moves
    # the shift to (0.6, 0), so the minimizer is w = (-0.4, 0) alone and
    # lambda_1^+ = 0.8 pi.  With A/4pi = c w it is 0.8 pi (1 + c) while
    # c < 1/4; at c = 1/4 the other point, now at theta' = (0.6 - 0.4 c, 0),
    # takes over.
    w = np.array([-0.4, 0.0])

    def unique(c):
        return SpinCData(Z2, [1, 0], [0.2, 0.0], 4.0 * np.pi * c * w)

    base = check(unique(0.0), box2, 0.8 * np.pi)
    for c in (-0.1, -0.01, 0.01, 0.1, 0.2):
        value = check(unique(c), box2, 0.8 * np.pi * (1.0 + c))
        if c < 0:
            assert value < base - 1e-6, c
        else:
            assert value > base + 1e-6, c
    # past the turnover lambda_1^+ = 2 pi (0.6 - 0.4 c) falls again: c = 0.3
    # reads 0.96 pi, the value at c = 0.2
    check(unique(0.3), box2, 0.96 * np.pi)

    # (3) Circle, delta = 1: the minimizer is the single signed point
    # w = 1/2 and A = s gives A/4pi = (s/2pi) w, so the signed eigenvalue
    # 2 pi theta' of the mode m = 0 is pi + s/2 for small s of either sign.
    Z1 = Lattice.from_rows(np.eye(1))
    for s in (-0.3, -0.05, 0.05, 0.3):
        data = SpinCData(Z1, [1], [0.0], np.array([s]))
        value = check(data, box1, np.pi + s / 2.0)
        if s < 0:
            assert value < np.pi - 1e-6, s
        else:
            assert value > np.pi + 1e-6, s


def test_basic_estimate_sharpness_and_crossover():
    s3 = bounds.sphere3_data()
    for t in np.linspace(0.0, 10.0, 41):
        bv = bounds.basic(s3, t).value
        assert abs(bv - (0.5 + np.sqrt(t * t + 4.0))) <= 1e-12
        assert abs(bv - sphere_basic(t)) <= 1e-12


def test_collision_coupling_formula():
    rng = np.random.default_rng(107)
    found = 0
    while found < 100:
        k, k2 = int(rng.integers(1, 14)), int(rng.integers(1, 14))
        p, p2 = int(rng.integers(0, k)), int(rng.integers(0, k2))
        if (k, p) == (k2, p2):
            continue
        if 2 * (p - p2) == k - k2:
            with pytest.raises(ValueError):
                sphere.collision_t(k, p, k2, p2)
            continue
        tc = sphere.collision_t(k, p, k2, p2)
        assert abs(sphere.f0(k, p, tc) - sphere.f0(k2, p2, tc)) <= 1e-10
        found += 1


def test_soundness_sweep_bounds_never_violated():
    s3 = bounds.sphere3_data()
    for t in np.linspace(-4.0, 4.0, 81):
        lam1 = sphere.lambda1(t)
        assert bounds.compare(bounds.friedrich(s3, t), lam1**2)["satisfied"], t
        assert bounds.compare(bounds.hijazi(s3, t), lam1)["satisfied"], t
        assert bounds.compare(bounds.basic(s3, t), sphere_basic(t))["satisfied"], t
        assert bounds.compare(bounds.BOUNDS["diamagnetic"](s3, t), lam1**2)["satisfied"], t
        lam, q = 1.5, 3.0  # the top sector at S = 6
        for sector, q_sector in (("top", q), ("bottom", -q)):
            up = bounds.diamagnetic_upper(lam, q_sector, 1.0, t)
            assert bounds.compare(up, lam1**2)["satisfied"], (t, sector)

    rng = np.random.default_rng(108)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        data = SpinCData(
            lat,
            rng.integers(0, 2, size=n),
            rng.uniform(0, 1, size=n),
            rng.normal(size=n),
        )
        cutoff = 2.0 * np.pi * np.linalg.norm(data.theta_prime(np.zeros(n))) + 1.0
        lam1 = torus.spectrum(data, cutoff).min_abs()
        geo = bounds.torus_data(lat.basis, data.A / 2.0)
        assert bounds.compare(bounds.friedrich(geo, 1.0), lam1**2)["satisfied"]
