"""Lattice geometry and shifted-point enumeration."""

import itertools
import warnings

import numpy as np
import pytest

from magdirac.lattice import Lattice, enumerate_core


def test_from_rows_stores_generators_as_columns():
    lat = Lattice.from_rows(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(lat.basis[:, 0], [1.0, 2.0])
    assert np.allclose(lat.basis[:, 1], [3.0, 4.0])


def test_gram_and_dual_pairing():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        rows = rng.normal(size=(n, n))
        if abs(np.linalg.det(rows)) < 0.3:
            continue
        lat = Lattice.from_rows(rows)
        assert np.allclose(lat.gram, lat.basis.T @ lat.basis, atol=1e-12)
        pairing = lat.dual_basis.T @ lat.basis
        assert np.max(np.abs(pairing - np.eye(n))) < 1e-9


def test_hexagonal_dual_columns():
    lat = Lattice.from_rows(np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]))
    assert np.allclose(lat.dual_basis[:, 0], [1.0, -1.0 / np.sqrt(3.0)])
    assert np.allclose(lat.dual_basis[:, 1], [0.0, 2.0 / np.sqrt(3.0)])


def test_dual_of_dual_is_original():
    lat = Lattice.from_rows(np.array([[2.0, 1.0], [0.0, 1.5]]))
    back = lat.dual().dual()
    assert np.allclose(back.basis, lat.basis, atol=1e-12)


def test_dual_equals_the_lattice_of_the_dual_basis():
    # dual() skips the checks the primal already made, but its basis and
    # Gram matrix, all that enumeration reads, are the same bytes
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        lat = Lattice(rng.normal(size=(n, n)) * np.exp(rng.uniform(-3, 3)) + np.eye(n))
        dual, full = lat.dual(), Lattice(lat.dual_basis)
        assert dual.n == full.n == n
        for got, want in ((dual.basis, full.basis), (dual.gram, full.gram)):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
            assert not got.flags.writeable
        assert dual.dual_basis is lat.basis


def test_one_factorisation_per_lattice(monkeypatch):
    # the factor that checks the basis is the one every enumeration reads
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    lat = Lattice.from_rows([[1.0, 0.3], [0.0, 1.2]])
    for radius in (1.0, 3.0):
        assert len(lat.enumerate_shifted(np.zeros(2), radius))
    assert len(calls) == 1 and not lat.factor.flags.writeable
    assert np.allclose(lat.factor.T @ lat.factor, lat.gram[::-1, ::-1], atol=1e-12)


def test_moderately_conditioned_basis_is_accepted():
    # a unimodular image B U with cond 145: a Gram-determinant consistency
    # check at 1e-12 refused it from rounding alone
    basis = [[10.102919888014092, -7.058351769549555],
             [0.930152179600358, -0.5454672406591385]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lat = Lattice(basis)
    assert 140 < np.linalg.cond(lat.basis) < 150
    assert np.max(np.abs(lat.basis.T @ lat.dual_basis - np.eye(2))) < 1e-12 * 145
    assert len(lat.enumerate_shifted(np.zeros(2), 3.0)) > 0


def test_dual_pairing_check_is_absolute(monkeypatch):
    # cond 1: the pairing must hold to 1e-12, so an inverse off by 1e-7
    # is refused (a relative tolerance of 1e-5 would let it through)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) * (1 + 1e-7))
    with pytest.raises(ValueError, match="dual pairing"):
        Lattice(np.eye(2))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_dual_pairing_check_refuses_nan_and_inf(monkeypatch, entry):
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.where(np.eye(len(a)) == 1, entry, inv(a)))
    with pytest.raises(ValueError, match="dual pairing"), np.errstate(invalid="ignore"):
        Lattice(np.eye(2))  # (0 * inf in the pairing product is NaN)


def test_from_rows_puts_the_generators_in_columns():
    rows = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    lat = Lattice.from_rows(rows)
    pt = lat.basis @ np.array([2.0, -1.0])
    assert np.allclose(pt, 2.0 * lat.basis[:, 0] - lat.basis[:, 1])
    assert np.allclose(pt, 2.0 * rows[0] - rows[1])


def test_degenerate_basis_rejected():
    with pytest.raises(ValueError):
        Lattice.from_rows(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        Lattice.from_rows(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_ill_conditioned_basis_warns():
    rows = np.array([[1.0, 0.0], [1.0, 1e-7]])
    with pytest.warns(UserWarning, match="badly conditioned"):
        Lattice.from_rows(rows)


def test_ill_conditioned_basis_warning_names_the_constructing_call():
    # not the __init__ that dataclass generates, whose file is "<string>"
    with pytest.warns(UserWarning, match="badly conditioned") as caught:
        Lattice(np.array([[1.0, 1.0], [0.0, 1e-7]]))
    assert [w.filename for w in caught] == [__file__]


def test_ill_conditioned_basis_warning_through_from_rows_names_its_caller():
    # not the cls(...) line of from_rows in lattice.py
    with pytest.warns(UserWarning, match="badly conditioned") as caught:
        Lattice.from_rows(np.array([[1.0, 0.0], [1.0, 1e-7]]))
    assert [w.filename for w in caught] == [__file__]


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        rows = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        lat = Lattice.from_rows(rows)
        shift = rng.normal(size=n)
        radius = float(rng.uniform(0.5, 3.0))
        # integer coordinates of any ball point are bounded by this
        reach = np.linalg.norm(np.linalg.inv(lat.basis), 2) * (
            radius + np.linalg.norm(shift)
        )
        box = int(np.ceil(reach)) + 1
        if box > 8:
            continue
        got = lat.enumerate_shifted(shift, radius)
        best = []
        for m in np.ndindex(*(2 * box + 1,) * n):
            mv = np.array(m) - box
            if np.linalg.norm(lat.basis @ mv + shift) <= radius + 1e-9:
                best.append(tuple(mv))
        assert sorted(best) == [tuple(row) for row in got]
        checked += 1
    assert checked >= 25


def test_enumeration_is_lexicographically_sorted():
    lat = Lattice.from_rows(np.eye(3))
    pts = lat.enumerate_shifted(np.zeros(3), 2.2)
    rows = [tuple(r) for r in pts]
    assert rows == sorted(rows)
    # the order comes from the reversed factor, not from a sort: skewed,
    # shifted bases as in the brute-force test, balls a few generators wide
    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 4) * 10:
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3.0 * np.eye(n))
        pts = lat.enumerate_shifted(rng.normal(size=n), float(rng.uniform(4.0, 10.0)))
        assert len(pts) > 1
        assert np.array_equal(pts, pts[np.lexsort(pts.T[::-1])])


def test_enumeration_includes_boundary_points():
    lat = Lattice.from_rows(np.eye(2))
    pts = lat.enumerate_shifted(np.zeros(2), 1.0)
    rows = {tuple(r) for r in pts}
    assert rows == {(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)}


def test_enumeration_negative_radius_is_empty():
    lat = Lattice.from_rows(np.eye(2))
    pts = lat.enumerate_shifted(np.zeros(2), -1.0)
    assert pts.shape == (0, 2)


def test_enumeration_shift_validates_shape():
    lat = Lattice.from_rows(np.eye(2))
    with pytest.raises(ValueError):
        lat.enumerate_shifted(np.zeros(3), 1.0)


def brute_force_points(R, center, radius):
    # |m_i + c_i| <= radius * |row i of R^-1|, so this box holds every point
    reach = radius * np.linalg.norm(np.linalg.inv(R), axis=1) + 1e-6
    axes = [range(int(np.floor(-r - c)), int(np.ceil(r - c)) + 1)
            for r, c in zip(reach, center)]
    return sorted(
        m for m in itertools.product(*axes)
        if np.linalg.norm(R @ (np.array(m) + center)) <= radius + 1e-9
    )


def test_enumerate_core_matches_brute_force():
    rng = np.random.default_rng(34)
    for trial in range(44):
        if trial < 40:
            n = int(rng.integers(1, 4))
            A = rng.normal(size=(n, n))
            gram = A.T @ A + 0.3 * np.eye(n)
            center = rng.normal(size=n)
            radius = float(rng.uniform(0.3, 2.5))
        else:
            # n = 4, near-cubic, radius 3: hundreds of partial points per
            # level inside a brute-force box of a few thousand
            n = 4
            A = np.eye(n) + 0.15 * rng.normal(size=(n, n))
            gram = A.T @ A
            center = rng.uniform(-0.5, 0.5, size=n)
            radius = float(rng.uniform(2.5, 3.5))
        R = np.linalg.cholesky(gram).T.copy()
        pts = enumerate_core(R, center, radius)
        assert pts.dtype == np.int64 and pts.shape[1] == n
        got = sorted(tuple(int(c) for c in row) for row in pts)
        assert got == brute_force_points(R, center, radius)


def test_enumerate_core_empty_and_growth():
    R = np.eye(2)
    pts = enumerate_core(R, np.array([0.4, 0.4]), 0.1)
    assert pts.shape == (0, 2)
    pts = enumerate_core(R, np.zeros(2), 9.0)
    assert len(pts) > 64
    norms = np.linalg.norm(pts, axis=1)
    assert np.max(norms) <= 9.0 + 1e-6


@pytest.mark.parametrize("call, message", [
    (lambda: Lattice(np.ones((2, 3))), "basis must be square"),
    # the Gram matrix overflows (products past float64, or inf - inf), for a
    # huge basis or the dual of a tiny one; refused with no numpy warning
    (lambda: Lattice.from_rows([[1e308]]), "Gram matrix overflows float64"),
    (lambda: Lattice.from_rows([[1e308, 1e308], [1e308, -1e308]]), "Gram matrix overflows"),
    (lambda: Lattice.from_rows([[1e-160]]).dual(), "Gram matrix overflows float64"),
    (lambda: Lattice(np.eye(2)).enumerate_shifted([0, 0], np.inf), "radius must be finite"),
    # 2**52 itself: float64 holds no fraction from there on
    (lambda: Lattice(np.eye(2)).enumerate_shifted([0, -2.0 ** 52], 1.0),
     "centre coordinate -4.5036e\\+15 is 2\\*\\*52 or more"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
