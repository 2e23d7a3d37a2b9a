"""Closed-form 3-sphere spectrum of the twisted operator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magdirac import sphere
from magdirac import spectrum as spectrum_mod


def test_f0_definition_and_scalar_edges():
    rng = np.random.default_rng(41)
    for _ in range(200):
        k = int(rng.integers(0, 20))
        p = int(rng.integers(-1, k + 1))
        t = float(rng.uniform(-6, 6))
        expected = (1 + t + 2 * p - k) ** 2 + 4 * (k - p) * (p + 1)
        assert abs(sphere.f0(k, p, t) - expected) < 1e-12 * (1 + abs(expected))
    for k in range(6):
        t = 0.37
        assert abs(sphere.f0(k, k, t) - (1 + t + k) ** 2) < 1e-12
        assert abs(sphere.f0(k, -1, t) - (1 - t + k) ** 2) < 1e-12


def test_f0_parity_and_zero_coupling_degeneracy():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(1, 15))
        p = int(rng.integers(0, k))
        t = float(rng.uniform(-5, 5))
        assert abs(sphere.f0(k, p, -t) - sphere.f0(k, k - p - 1, t)) < 1e-10
        assert abs(sphere.f0(k, p, 0.0) - (k + 1) ** 2) < 1e-12


def test_f0_lower_bound_off_scalar_edges():
    for k in range(1, 25):
        for p in range(k):
            t = 123.456  # any coupling
            assert sphere.f0(k, p, t) >= 4 * (k - p) * (p + 1) - 1e-9
            assert 4 * (k - p) * (p + 1) >= 4 * k


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 299),
       ts=st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-300, 300).map(float),
                             st.integers(-600, 600).map(lambda n: n / 2)),
                   min_size=1, max_size=4))
# inputs where x * x differs from x ** 2 (at p = 3 and p = 175)
@example(k=77, ts=[-38.03190240925149])
@example(k=184, ts=[-49.557537022720446])
def test_array_f0_is_the_scalar_expression_bit_for_bit(k, ts):
    p, t = np.arange(-1, k + 1), np.array(ts)[:, None]
    want = [[(1.0 + tt + 2 * pp - k) ** 2 + 4.0 * (k - pp) * (pp + 1)
             for pp in range(-1, k + 1)] for tt in ts]
    # x * x and np.square round differently from Python's x ** 2 on about 1 in 1000 inputs
    assert sphere.f0(k, p, t).tobytes() == np.array(want).tobytes()
    assert type(sphere.f0(k, k, ts[0])) is float and sphere.f0(k, k, ts[0]) == want[0][-1]


def test_f0_rejects_bad_indices():
    with pytest.raises(ValueError):
        sphere.f0(2, 3, 0.0)
    with pytest.raises(ValueError):
        sphere.f0(2, -2, 0.0)
    with pytest.raises(ValueError):
        sphere.f0(-1, 0, 0.0)
    with pytest.raises(ValueError, match="p=3 outside -1..k for k=2"):
        sphere.f0([2, 2], [1, 3], 0.0)  # one bad entry refuses the whole array
    with pytest.raises(ValueError, match="branch index must be an integer"):
        sphere.f0([2, 2], [0.0, 1.0], 0.0)


def test_spectrum_at_zero_coupling_merges_to_classical_multiplicities():
    spec = sphere.spectrum(0.0, 12.0)
    for k in range(11):
        assert spec.multiplicity_at(1.5 + k) == (k + 2) * (k + 1), k
        if 1.5 + k <= 12.0 and k >= 1:
            assert spec.multiplicity_at(-(0.5 + k)) == k * (k + 1), k
    # no eigenvalues in the open gap (-3/2, 3/2)
    assert len(spec.in_window(-1.4, 1.4)) == 0


def test_spectrum_frozen_values_at_half():
    spec = sphere.spectrum(0.5, 3.0)
    got = [(e.value, e.multiplicity) for e in spec]
    expected = [
        (0.5 - np.sqrt(10.25), 3),
        (0.5 - np.sqrt(8.25), 3),
        (0.5 - np.sqrt(4.25), 2),
        (1.0, 1),
        (2.0, 3),
        (0.5 + np.sqrt(4.25), 2),
        (3.0, 5),
    ]
    assert len(got) == len(expected)
    for (gv, gm), (ev, em) in zip(got, expected):
        assert abs(gv - ev) < 1e-12
        assert gm == em


def _named(labels) -> set:
    """The integer (family, k, p, sign) rows as named label tuples."""
    return set(sphere.member_labels(*np.reshape(labels, (-1, 4)).T))


def test_spectrum_labels_carry_quantum_numbers():
    spec = sphere.spectrum(0.5, 3.0)
    by_value = {round(e.value, 9): e for e in spec}
    entry = by_value[round(0.5 + np.sqrt(4.25), 9)]
    assert entry.labels == ((2, 1, 0, +1),)
    assert _named(entry.labels) == {("branch", 1, 0, +1)}
    entry = by_value[round(1.0, 9)]
    assert entry.labels == ((1, 0, -1, -1),)
    assert _named(entry.labels) == {("minus", 0, None, None)}


def test_spectrum_invariant_under_coupling_sign_flip():
    rng = np.random.default_rng(43)
    for _ in range(10):
        t = float(rng.uniform(0, 4))
        a = sphere.spectrum(t, 6.0)
        b = sphere.spectrum(-t, 6.0)
        assert np.allclose(a.values(), b.values(), atol=1e-9)
        assert np.array_equal(a.multiplicities(), b.multiplicities())


def test_spectrum_is_complete_against_dense_cutoff_scan():
    # raising the cutoff must not add values inside the smaller window
    small = sphere.spectrum(1.3, 4.0)
    large = sphere.spectrum(1.3, 9.0).in_window(-4.0, 4.0)
    assert np.allclose(small.values(), large.values())
    assert np.array_equal(small.multiplicities(), large.multiplicities())


def test_lambda1_cases():
    assert sphere.lambda1(0.0) == pytest.approx(1.5, abs=1e-12)
    assert sphere.lambda1(2.0) == pytest.approx(0.5, abs=1e-12)
    assert sphere.lambda1(2.5) == pytest.approx(0.0, abs=1e-12)
    assert sphere.lambda1(-0.7) == pytest.approx(0.8, abs=1e-12)
    rng = np.random.default_rng(44)
    for _ in range(25):
        t = float(rng.uniform(-8, 8))
        ks = np.arange(0, int(np.ceil(abs(t))) + 3)
        expected = float(np.min(np.abs(1.5 - abs(t) + ks)))
        assert sphere.lambda1(t) == pytest.approx(expected, abs=1e-9)


def test_lambda1_basic_closed_form():
    for t in np.linspace(-6, 6, 25):
        assert sphere.lambda1_basic(t) == pytest.approx(
            0.5 + np.sqrt(t * t + 4.0), abs=1e-12
        )


def test_collision_example_and_consistency():
    t = sphere.collision_t(1, 0, 2, 1)
    assert t == pytest.approx(-2.5, abs=0)
    assert sphere.f0(1, 0, t) == pytest.approx(10.25, abs=1e-12)
    assert sphere.f0(2, 1, t) == pytest.approx(10.25, abs=1e-12)

    rng = np.random.default_rng(45)
    found = 0
    while found < 60:
        k, k2 = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        p, p2 = int(rng.integers(0, k)), int(rng.integers(0, k2))
        if (k, p) == (k2, p2) or 2 * (p - p2) == k - k2:
            continue
        t = sphere.collision_t(k, p, k2, p2)
        assert abs(sphere.f0(k, p, t) - sphere.f0(k2, p2, t)) < 1e-10 * (
            1.0 + abs(sphere.f0(k, p, t))
        )
        found += 1


def test_collision_rejects_parallel_or_invalid():
    with pytest.raises(ValueError):
        sphere.collision_t(2, 1, 4, 2)  # equal slopes never cross
    with pytest.raises(ValueError):
        sphere.collision_t(1, 1, 2, 0)  # p out of branch range
    with pytest.raises(ValueError):
        sphere.collision_t(1, 0, 1, 0)  # identical curve


def test_curve_table_window_and_content():
    _, members, _, j, value = sphere.curve_table([0.0], 1, window=(-5.0, 5.0))
    labels = sphere.member_labels(*members)
    got = {(*labels[b], round(v, 9)) for b, v in zip(j.tolist(), value.tolist())}
    assert ("plus", 0, None, None, 1.5) in got
    assert ("minus", 0, None, None, 1.5) in got
    assert ("branch", 1, 0, 1, 2.5) in got
    assert ("branch", 1, 0, -1, -1.5) in got

    ts, _, i, _, value = sphere.curve_table(np.linspace(-5, 5, 11), 5, window=(-5.0, 5.0))
    assert all(-5.0 <= v <= 5.0 for v in value)
    assert {ts[a] for a in i} == set(np.linspace(-5, 5, 11))


def test_spectrum_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        sphere.spectrum(0.0, -1.0)


@pytest.mark.parametrize("t, cutoff",
                         [(0.0, 3.0), (0.37, 12.5), (-2.5, 7.0), (4.0, 1.0)])
def test_triple_count_is_the_members_visited(monkeypatch, t, cutoff):
    calls = []
    real_f0 = sphere.f0
    monkeypatch.setattr(sphere, "f0",
                        lambda k, p, t: calls.append(np.asarray(k)) or real_f0(k, p, t))
    kept = len(sphere.spectrum(t, cutoff, merge_tol=0.0).entries)
    k_max = max(int(k.max()) for k in calls)
    # one f0 input per member: the plus/minus ends and both branch signs
    assert sum(k.size for k in calls) == sphere.triple_count(k_max)
    assert kept <= sphere.triple_count(k_max)


def test_spectrum_refuses_past_the_size_cap_before_any_level(monkeypatch):
    def no_work(*args):
        raise AssertionError("visited a level past the cap")

    # cutoff 3 at t = 0.5 visits levels 0..5: 6 * 7 = 42 members
    monkeypatch.setattr(spectrum_mod, "MAX_SPECTRUM_SIZE", 41)
    with monkeypatch.context() as m:
        m.setattr(sphere, "f0", no_work)
        with pytest.raises(ValueError, match="cap 41"):
            sphere.spectrum(0.5, 3.0)
    monkeypatch.setattr(spectrum_mod, "MAX_SPECTRUM_SIZE", 42)
    assert sphere.spectrum(0.5, 3.0).total_multiplicity() > 0


def test_curve_table_refuses_past_the_size_cap_before_any_row(monkeypatch):
    def no_work(*args):
        raise AssertionError("sampled a curve past the cap")

    # 3 couplings x levels 0..2: 3 * (3 * 4) = 36 rows
    monkeypatch.setattr(spectrum_mod, "MAX_SPECTRUM_SIZE", 35)
    with monkeypatch.context() as m:
        m.setattr(sphere, "f0", no_work)
        with pytest.raises(ValueError, match="cap 35"):
            sphere.curve_table([0.0, 0.5, 1.0], 2)
    monkeypatch.setattr(spectrum_mod, "MAX_SPECTRUM_SIZE", 36)
    assert len(sphere.curve_table([0.0, 0.5, 1.0], 2)[4]) == 36


def _merge_left_to_right(triples, tol=1e-9):
    """Chain merge of (value, mult, label) triples, one group at a time."""
    items = sorted(triples, key=lambda tr: tr[0])
    out, i = [], 0
    while i < len(items):
        j = i + 1
        while j < len(items) and items[j][0] - items[j - 1][0] <= tol:
            j += 1
        group = items[i:j]
        mult = sum(g[1] for g in group)
        value = sum(g[0] * g[1] for g in group) / mult
        out.append((float(value), mult, {g[2] for g in group}))
        i = j
    return out


def _brute_force_triples(t, cutoff):
    """Every family member up to the old level bound (cutoff + 1/2)^2 / 4."""
    edge = cutoff + 1e-12
    k_max = int(np.ceil(max((cutoff + 0.5) ** 2 / 4.0, cutoff + abs(t)))) + 1
    triples = []
    for k in range(k_max + 1):
        for fam, v in (("plus", 1.5 + t + k), ("minus", 1.5 - t + k)):
            if abs(v) <= edge:
                triples.append((v, k + 1, (fam, k, None, None)))
        for p in range(k):
            root = np.sqrt((1.0 + t + 2 * p - k) ** 2 + 4.0 * (k - p) * (p + 1))
            for sign in (1, -1):
                if abs(0.5 + sign * root) <= edge:
                    triples.append((0.5 + sign * root, k + 1, ("branch", k, p, sign)))
    return triples


@pytest.mark.parametrize("t, cutoff", [
    (0.0, 7.0), (0.0, 12.5), (1.0, 9.0), (-3.0, 8.0),     # integer t
    (0.5, 3.0), (-1.5, 6.5), (2.5, 10.5),                 # half-integer t
    (0.25, 5.75), (-2.5, 8.5),                            # cutoff + |t| integer
    (0.37, 11.0), (-4.123, 6.3), (5.9, 2.0),              # generic t
])
def test_tight_level_bound_matches_brute_force(t, cutoff):
    got = [(e.value, e.multiplicity, _named(e.labels)) for e in sphere.spectrum(t, cutoff)]
    assert got == _merge_left_to_right(_brute_force_triples(t, cutoff))


def test_value_on_the_cutoff_is_kept():
    # t = 1/2, cutoff 3: plus(k=1) sits exactly at 3/2 + 1/2 + 1 = 3
    spec = sphere.spectrum(0.5, 3.0)
    assert (0, 1, -1, 1) in spec.entries[-1].labels
    assert ("plus", 1, None, None) in _named(spec.entries[-1].labels)
    assert spec.entries[-1].value == 3.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    k=st.integers(1, 300),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    t=st.floats(-60.0, 60.0, allow_nan=False),
)
def test_f0_linear_form_and_level_bound(k, frac, t):
    p = int(frac * k)
    f = sphere.f0(k, p, t)
    linear = (k + 1 - t) ** 2 + 4 * t * (p + 1)
    scale = (k + 1 + abs(t)) ** 2 + 4 * abs(t) * (p + 1)
    assert abs(f - linear) <= 1e-13 * scale
    assert np.sqrt(f) >= abs(k + 1 - abs(t)) - 1e-12 * (k + 1 + abs(t))


def _collision_fraction(k, p, k2, p2):
    """Crossing coupling in exact rational arithmetic, then rounded once."""
    delta = (k2 - p2) * (p2 + 1) - (k - p) * (p + 1)
    tc = Fraction(2 * delta, 2 * (p - p2) - (k - k2)) + Fraction(k + k2, 2) - p - p2 - 1
    return float(tc)


def test_collision_closed_form_equals_rational_reference():
    curves = [(k, p) for k in range(21) for p in range(k)]
    pairs = [  # both orders: equal levels then give 0/(+-4) and must be +0.0
        (k, p, k2, p2)
        for k, p in curves
        for k2, p2 in curves
        if 2 * (p - p2) != k - k2
    ]
    expected = [_collision_fraction(*pair) for pair in pairs]
    got = sphere.collision_t(*np.array(pairs).T)
    assert got.tolist() == expected
    assert all(np.copysign(1.0, t) == np.copysign(1.0, e) for t, e in zip(got, expected))
    for pair, e in zip(pairs[::97], expected[::97]):
        assert sphere.collision_t(*pair) == e


def test_collision_arrays_reject_any_parallel_or_invalid_pair():
    with pytest.raises(ValueError):
        sphere.collision_t([1, 2], [0, 1], [2, 4], [1, 2])  # (2,1)-(4,2) parallel
    with pytest.raises(ValueError):
        sphere.collision_t([1, 1], [0, 1], [2, 2], [1, 0])  # p = k out of range
    with pytest.raises(ValueError):
        sphere.collision_t(1.0, 0, 2, 1)  # levels are integers


@pytest.mark.parametrize("t, cutoff",
                         [(0.0, 4.0), (0.37, 6.5), (-2.5, 3.0), (1.0, 0.75), (5.5, 11.2)])
def test_spectrum_merges_exactly_the_curve_rows_in_the_window(monkeypatch, t, cutoff):
    merged = []
    monkeypatch.setattr(sphere.Spectrum, "from_triples",
                        lambda *arrays, tolerance=None: merged.append(arrays))
    sphere.spectrum(t, cutoff)
    _, members, _, j, value = sphere.curve_table([t], int(cutoff + abs(t)) + 3,
                                                 window=(-cutoff, cutoff))
    ((got_value, got_mult, got_label),) = merged
    labels = np.stack(members, axis=1)[j]  # integer rows, in member order
    assert got_value.tolist() == value.tolist()
    assert got_mult.tolist() == (labels[:, 1] + 1).tolist()
    assert got_label.tolist() == labels.tolist()
    assert len(got_value) > 0


@pytest.mark.parametrize("call, message", [
    (lambda: sphere.f0(2.5, 0, 0.0), "level must be an integer"),
    (lambda: sphere.curve_table([0.0], 2.5), "level must be an integer"),
    (lambda: sphere.spectrum(float("nan"), 3.0), "coupling must be finite"),
    (lambda: sphere.lambda1(float("inf")), "coupling must be finite"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
