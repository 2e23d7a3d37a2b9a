"""Flat-torus spectrum: modes, zero modes, symmetry, invariances."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from helpers import entries, multiplicity_at
from hypothesis import given, settings, strategies as st

from magdirac import spectrum as spectrum_mod
from magdirac import torus
from magdirac.lattice import Lattice
from magdirac.torus import SpinCData


def square(n):
    return Lattice.from_rows(np.eye(n))


def test_mode_values_match_shifted_dual_norm():
    rng = np.random.default_rng(51)
    for n in (2, 3, 4):
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        data = SpinCData(
            lat,
            rng.integers(0, 2, size=n),
            rng.uniform(0, 1, size=n),
            rng.normal(size=n),
        )
        N = 2 ** (n // 2)
        modes = rng.integers(-4, 5, size=(20, n))
        values, mults = torus.mode_values(data.theta_prime(modes))
        for m, got in zip(modes, zip(values.tolist(), mults.tolist())):
            tp = lat.dual_basis @ (m + (data.delta + data.theta) / 2.0)
            tp = tp + data.A / (4 * np.pi)
            r = 2 * np.pi * np.linalg.norm(tp)
            assert got == ([-r, r], [N // 2, N // 2]) or (
                r <= 2 * np.pi * torus.ZERO_MODE_TOL and got == ([0.0, 0.0], [N, 0])
            )


def test_mode_values_signed_for_circle():
    data = SpinCData(square(1), [1], [0.0], np.array([0.0]))
    values, mults = torus.mode_values(data.theta_prime(np.array([[0], [-1]])))
    assert values.tolist() == [[np.pi], [-np.pi]] and mults.tolist() == [[1], [1]]


def test_square_torus_spectrum_bottom():
    data = SpinCData(square(2), [1, 0], [0.0, 0.0], np.zeros(2))
    spec = torus.spectrum(data, 7.0)
    assert [(value, mult) for value, mult, _ in entries(spec)] == [
        (-np.pi, 2),
        (np.pi, 2),
    ]
    modes = set(map(tuple, spec.members()[0].tolist()))
    assert modes == {(0, 0), (-1, 0)}


def test_trivial_structure_has_kernel_of_full_rank():
    for n in (1, 2, 3):
        data = SpinCData(square(n), [0] * n, [0.0] * n, np.zeros(n))
        zm = torus.zero_mode(data)
        assert zm is not None and np.array_equal(zm, np.zeros(n, dtype=np.int64))
        spec = torus.spectrum(data, 5.0)
        assert multiplicity_at(spec, 0.0) == 2 ** (n // 2)


def test_zero_mode_constructed_and_destroyed():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        data = SpinCData(
            lat,
            rng.integers(0, 2, size=n),
            rng.uniform(0, 1, size=n),
            np.zeros(n),
        )
        m0 = rng.integers(-3, 4, size=n)
        A = -4.0 * np.pi * data.theta_mode(m0)
        tuned = SpinCData(lat, data.delta, data.theta, A)
        zm = torus.zero_mode(tuned)
        assert zm is not None and np.array_equal(zm, m0)
        # a generic perturbation removes the kernel
        broken = SpinCData(lat, data.delta, data.theta, A + 0.37)
        assert torus.zero_mode(broken) is None


def test_zero_mode_multiplicity_is_full_spinor_rank():
    lat = square(3)
    data = SpinCData(lat, [1, 1, 0], [0.2, 0.0, 0.7], np.zeros(3))
    A = -4.0 * np.pi * data.theta_mode([1, -2, 0])
    tuned = SpinCData(lat, data.delta, data.theta, A)
    spec = torus.spectrum(tuned, 4.0)
    assert multiplicity_at(spec, 0.0) == 2  # N, not N/2
    # every nonzero value carries N/2 = 1 per contributing mode
    for value, mult, labels in entries(spec):
        if abs(value) > 1e-9:
            assert mult == len(labels)


def _pairwise_symmetry(spec):
    """(max mismatch, witness) by comparing every entry with every other."""
    worst, witness = 0.0, None
    for value, mult in zip(spec.values().tolist(), spec.multiplicities().tolist()):
        mirrored = multiplicity_at(spec, -value)
        if abs(mult - mirrored) > worst:
            worst = float(abs(mult - mirrored))
            witness = (value, mult, mirrored)
    return worst, witness


def test_circle_symmetry_condition():
    lat = square(1)

    def mismatch(delta, theta, A):
        data = SpinCData(lat, [delta], [theta], np.array([A]))
        return _pairwise_symmetry(torus.spectrum(data, 10.0))

    assert mismatch(1, 0.0, 0.0) == (0.0, None)
    worst, witness = mismatch(1, 0.0, 1.0)
    assert worst > 0 and witness is not None
    # delta + theta + L A/(2 pi) integer restores the symmetry
    assert mismatch(1, 0.0, 2.0 * np.pi) == (0.0, None)
    assert mismatch(0, 0.5, 0.0)[0] > 0


def test_higher_dimensions_always_symmetric():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lat = Lattice.from_rows(rng.normal(size=(n, n)) + 3 * np.eye(n))
        data = SpinCData(
            lat,
            rng.integers(0, 2, size=n),
            rng.uniform(0, 1, size=n),
            rng.normal(size=n),
        )
        spec = torus.spectrum(data, {2: 12.0, 3: 8.0, 4: 5.0}[n])
        assert _pairwise_symmetry(spec) == (0.0, None), data


def test_fluxes_helper_prescribes_holonomies():
    rng = np.random.default_rng(54)
    lat = Lattice.from_rows(rng.normal(size=(3, 3)) + 3 * np.eye(3))
    fluxes = rng.normal(size=3)
    A = torus.potential_from_fluxes(lat, fluxes)
    # line integral over generator j is <A, b_j>
    assert np.allclose(A @ lat.basis, fluxes, atol=1e-12)


def test_spin_data_validation():
    lat = square(2)
    with pytest.raises(ValueError):
        SpinCData(lat, [2, 0], [0.0, 0.0], np.zeros(2))
    with pytest.raises(ValueError):
        SpinCData(lat, [0], [0.0, 0.0], np.zeros(2))
    with pytest.raises(ValueError):
        SpinCData(lat, [0, 0], [0.0, np.nan], np.zeros(2))
    with pytest.warns(UserWarning):
        SpinCData(lat, [0, 0], [1.3, 0.0], np.zeros(2))


def test_theta_reduction_warning_names_the_constructing_call():
    # not the __init__ that dataclass generates, whose file is "<string>"
    with pytest.warns(UserWarning, match="theta reduced") as caught:
        SpinCData(square(1), [0], [1.3], np.zeros(1))
    assert [w.filename for w in caught] == [__file__]


def test_spectrum_cutoff_validation_and_window():
    data = SpinCData(square(2), [1, 0], [0.0, 0.0], np.zeros(2))
    with pytest.raises(ValueError):
        torus.spectrum(data, 0.0)
    spec = torus.spectrum(data, 8.0)
    assert np.all(np.abs(spec.values()) <= 8.0 + 1e-9)
    assert spec.multiplicities().sum() > 4


def test_mode_count_estimate_follows_actual_counts():
    rng = np.random.default_rng(58)
    for n, cutoff in ((1, 400.0), (2, 120.0), (3, 60.0), (4, 40.0)):
        lat = Lattice.from_rows(np.eye(n) + 0.3 * rng.uniform(-1, 1, size=(n, n)))
        data = SpinCData(lat, rng.integers(0, 2, size=n), rng.uniform(0, 1, size=n),
                         rng.normal(size=n))
        radius = cutoff / (2 * np.pi)
        count = len(lat.dual().enumerate_shifted(data.base_shift(), radius))
        estimate = torus.mode_count_estimate(lat, cutoff)
        assert count > 100, (n, count)
        assert abs(count - estimate) <= 0.03 * estimate, (n, count, estimate)


def test_spectrum_refuses_past_the_size_cap_before_enumerating(monkeypatch):
    data = SpinCData(square(2), [1, 0], [0.0, 0.0], np.zeros(2))
    estimate = torus.mode_count_estimate(data.lattice, 20.0)  # 100 / pi
    assert 31 < estimate < 32
    monkeypatch.setattr(spectrum_mod, "MAX_SPECTRUM_SIZE", 31)

    def no_work(*args):
        raise AssertionError("enumerated past the cap")

    with monkeypatch.context() as m:
        m.setattr(Lattice, "enumerate_shifted", no_work)
        with pytest.raises(ValueError, match="cap 31"):
            torus.spectrum(data, 20.0)
    monkeypatch.setattr(spectrum_mod, "MAX_SPECTRUM_SIZE", 32)
    assert torus.spectrum(data, 20.0).multiplicities().sum() > 0


@pytest.mark.parametrize("delta, theta, A", [
    ([1, 0], [0.3, 0.1], [0.2, -0.7]),
    ([0, 0], [0.0, 0.0], [0.0, 0.0]),  # runs of equal values: the tie pass allocates
])
def test_spectrum_frees_the_enumeration_before_merging(delta, theta, A):
    # values and multiplicities are masked before the labels are attached,
    # and the modes are freed before the merge: about 120 B per member
    # (76 B on the tie-heavy window), against 152 B when every (mode, value)
    # pair was labelled and copied
    data = SpinCData(square(2), delta, theta, A)
    tracemalloc.start()
    try:
        spec = torus.spectrum(data, 600.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    members = len(spec.members()[0])
    assert 55_000 < members < 60_000
    assert peak <= 140 * members


def _zero_mode_data(lat, delta, theta, m):
    """Spin-c data on lat whose potential makes mode m a zero mode."""
    data = SpinCData(lat, delta, theta, np.zeros(lat.n))
    return SpinCData(lat, delta, theta, -4 * np.pi * data.theta_mode(m))


_RNG = np.random.default_rng(73)
EXACT_CASES = [
    *[(f"square n={n}", SpinCData(square(n), [0] * n, [0.0] * n, np.zeros(n)), cutoff)
      for n, cutoff in ((1, 60.0), (2, 90.0), (3, 30.0), (4, 18.0))],
    *[(f"square spin n={n}", SpinCData(square(n), [1] * n, [0.0] * n, np.zeros(n)), cutoff)
      for n, cutoff in ((2, 90.0), (3, 30.0), (4, 18.0))],
    ("hexagonal", SpinCData(Lattice.from_rows([[1, 0], [0.5, 0.8660254037844386]]),
                            [0, 0], [0.0, 0.0], np.zeros(2)), 90.0),
    *[(f"random n={n}", SpinCData(Lattice.from_rows(np.eye(n) + 0.3 * _RNG.uniform(-1, 1, (n, n))),
                                  [0] * n, [0.0] * n, np.zeros(n)), cutoff)
      for n, cutoff in ((1, 60.0), (2, 90.0), (3, 30.0), (4, 18.0))],
    ("Z3 zero mode", _zero_mode_data(square(3), [1, 0, 1], [0.2, 0.0, 0.5], [1, -2, 0]), 30.0),
]


@pytest.mark.parametrize("name, data, cutoff", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def test_spectrum_is_the_stable_merge_of_the_enumerated_modes(name, data, cutoff):
    # the torus sorts its values before the merge; merged in enumeration
    # order instead, by the merge's own stable sort, every array is the same
    modes = data.lattice.dual().enumerate_shifted(data.base_shift(), cutoff / (2 * np.pi))
    values, mults = torus.mode_values(data.theta_prime(modes))
    keep = (mults > 0) & (np.abs(values) <= cutoff + 1e-12)
    want = spectrum_mod.Spectrum.from_triples(values[keep], mults[keep],
                                              modes[np.nonzero(keep)[0]])
    got = torus.spectrum(data, cutoff)
    # for n >= 2 some entries merge several modes; on a circle none does
    assert (len(got) < keep.sum()) == (data.n > 1)
    assert np.array_equal(got.values(), want.values())
    assert np.array_equal(got.multiplicities(), want.multiplicities())
    for a, b in zip(got.members(), want.members()):
        assert np.array_equal(a, b)


def test_theta_reduction_keeps_the_spin_c_structure():
    # the mode shift (delta + theta)/2 has period 2 in theta: theta = 1.3 on
    # delta = 0 is theta = 0.3 on delta = 1, not theta = 0.3 on delta = 0
    lat = square(1)
    with pytest.warns(UserWarning):
        reduced = SpinCData(lat, [0], [1.3], np.zeros(1))
    assert reduced.delta.tolist() == [1]
    assert reduced.theta[0] == pytest.approx(0.3, abs=1e-15)
    got = torus.spectrum(reduced, 5.0)
    want = torus.spectrum(SpinCData(lat, [1], [0.3], np.zeros(1)), 5.0)
    assert np.allclose(got.values(), want.values(), atol=1e-12)
    assert np.allclose(got.values(), [2 * np.pi * -0.35, 2 * np.pi * 0.65], atol=1e-12)
    assert np.array_equal(got.multiplicities(), want.multiplicities())
    # an even integer part leaves delta alone
    with pytest.warns(UserWarning):
        assert SpinCData(lat, [1], [-1.7], np.zeros(1)).delta.tolist() == [1]
    with pytest.warns(UserWarning):
        assert SpinCData(lat, [1], [-0.7], np.zeros(1)).delta.tolist() == [0]


# metamorphic invariances: the same torus presented two ways has the same
# spectrum.  Spectra are merged only at exact equality and compared as
# sorted value lists expanded by multiplicity, strictly inside the cutoff,
# so neither a merge nor the cutoff boundary can round differently.


@st.composite
def spin_c_tori(draw):
    n = draw(st.integers(1, 4))
    small = st.floats(-0.3, 0.3)
    basis = np.eye(n) + np.reshape(draw(st.lists(small, min_size=n * n, max_size=n * n)), (n, n))
    delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    theta = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    A = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return SpinCData(Lattice(basis), delta, theta, A)


def _expanded_window(data):
    """Sorted values (with multiplicity) of about 300 modes' worth of spectrum."""
    n = data.n
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    det = abs(np.linalg.det(data.lattice.basis))
    cutoff = 2 * math.pi * (300 * det / ball) ** (1 / n)
    with mock.patch.object(spectrum_mod, "merge_tolerance", lambda: 0.0):
        spec = torus.spectrum(data, cutoff)
    values = np.repeat(spec.values(), spec.multiplicities())
    return values[np.abs(values) <= cutoff * (1 - 1e-9)]


def _same_values(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= 1e-11 * (1.0 + np.max(np.abs(a)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=spin_c_tori(), moves=st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(-3, 3)), max_size=6))
def test_spectrum_is_invariant_under_unimodular_basis_change(data, moves):
    n = data.n
    U = np.eye(n, dtype=np.int64)
    for i, shift, c in moves:  # add c times column i to column i + shift
        i, j = i % n, (i + shift) % n
        if i != j:
            U[:, j] += c * U[:, i]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # U^T (delta + theta) leaves [0, 1)
        moved = SpinCData(Lattice(data.lattice.basis @ U), np.zeros(n, dtype=np.int64),
                          U.T @ (data.delta + data.theta), data.A)
    _same_values(_expanded_window(data), _expanded_window(moved))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=spin_c_tori(), gamma=st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_spectrum_is_invariant_under_dual_lattice_shifts_of_A(data, gamma):
    shift = 4 * np.pi * (data.lattice.dual_basis @ np.array(gamma[:data.n]))
    shifted = SpinCData(data.lattice, data.delta, data.theta, data.A + shift)
    _same_values(_expanded_window(data), _expanded_window(shifted))


def _ball_volume(n, r):
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * max(r, 0.0) ** n


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=spin_c_tori(), cutoff=st.floats(5.0, 40.0))
def test_weyl_counting_sandwich(data, cutoff):
    # Every mode gives multiplicity N (spinor_dim) in total, so the count is
    # the number of shifted dual points in the ball of radius r = cutoff/2 pi.
    # Give each point the Gram-Schmidt box around it, a fundamental domain
    # reaching at most rho = |diag R|/2 from its point (dual_basis = QR): the
    # boxes of the points in B(r) cover B(r - rho) and lie inside B(r + rho).
    n = data.n
    r = cutoff / (2 * np.pi)
    covol = 1.0 / abs(np.linalg.det(data.lattice.basis))
    rho = 0.5 * np.linalg.norm(np.diag(np.linalg.qr(data.lattice.dual_basis)[1]))
    count = torus.spectrum(data, cutoff).multiplicities().sum() / data.spinor_dim
    assert _ball_volume(n, r - rho) / covol <= count <= _ball_volume(n, r + rho) / covol


@pytest.mark.filterwarnings("error")  # refused before the cast to int64 could warn
@pytest.mark.parametrize("rows, A, centre", [
    ([[1.0]], [1e17], "7.95775e\\+15"),
    ([[1.0, 0.0], [0.0, 1.0]], [1e25, 0.0], "7.95775e\\+23"),
])
def test_zero_mode_refuses_a_centre_past_2_52(rows, A, centre):
    # solve(dual basis, base shift) is A / 4 pi here: past 2**52 its
    # fraction is lost, and rounding it used to invent a zero mode
    data = SpinCData(Lattice.from_rows(rows), [0] * len(A), [0.0] * len(A), A)
    with pytest.raises(ValueError, match=f"centre coordinate {centre} is 2\\*\\*52 or more"):
        torus.zero_mode(data)


@pytest.mark.parametrize("call, message", [
    (lambda: torus.potential_from_fluxes(Lattice(np.eye(2)), [1.0]), "fluxes has shape"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("basis, delta, argsorts", [([[0.7]], [1], 0), ([[-1.5]], [0], 1)])
def test_an_ascending_circle_makes_no_argsort(monkeypatch, basis, delta, argsorts):
    # a positive generator gives ascending values, which neither the torus
    # nor the merge sorts; a negative one gives descending values, which the
    # torus sorts once (no ties) and the merge then keeps
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    spec = torus.spectrum(SpinCData(Lattice(basis), delta, [0.3], [0.7]), 200.0)
    assert len(calls) == argsorts
    assert (np.diff(spec.values()) > 0).all() and len(spec) > 40


def test_the_merge_keeps_the_sorted_torus_arrays(monkeypatch):
    # the torus hands its values in stable order and its labels read-only, so
    # the merge allocates no sort order and no copies: on this tie-heavy
    # window 16 B per member on top of its inputs, against 44 B when it
    # gathered them all again
    peaks = []
    merge = torus.Spectrum.from_triples

    def traced(*triples):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        spec = merge(*triples)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return spec

    monkeypatch.setattr(torus.Spectrum, "from_triples", traced)
    tracemalloc.start()
    try:
        spec = torus.spectrum(SpinCData(square(2), [0, 0], [0.0, 0.0], [0.0, 0.0]), 600.0)
    finally:
        tracemalloc.stop()
    labels = spec.members()[0]
    with pytest.raises(ValueError, match="read-only"):
        labels[0] = 0
    assert peaks[0] <= 24 * len(labels)
