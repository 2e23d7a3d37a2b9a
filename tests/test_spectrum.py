"""Spectrum container: merging, queries, tolerance override."""

import numpy as np
import pytest
from helpers import entries, multiplicity_at, tolerance
from hypothesis import given, settings, strategies as st

from magdirac.spectrum import Spectrum, check_int, merge_tolerance


def _records(pairs):
    """The (value, mult, label) arrays of (value, mult) pairs; the label of
    pair i is (i,)."""
    values, mults = zip(*pairs)
    return values, mults, np.arange(len(pairs))[:, None]


def test_merge_combines_close_values_with_weighted_mean():
    with tolerance(1e-9):
        spec = Spectrum.from_triples(*_records([(1.0, 2), (1.0 + 5e-10, 3), (2.0, 1)]))
    assert len(spec) == 2
    (value, multiplicity, labels), (_, second_multiplicity, _) = entries(spec)
    assert multiplicity == 5
    assert abs(value - (2 * 1.0 + 3 * (1.0 + 5e-10)) / 5) < 1e-15
    assert labels == ((0,), (1,))
    assert second_multiplicity == 1


def test_merge_is_chained_across_consecutive_gaps():
    # values 0, 0.8e-9, 1.6e-9: pairwise gaps below tolerance chain together
    with tolerance(1e-9):
        spec = Spectrum.from_triples(*_records([(0.0, 1), (0.8e-9, 1), (1.6e-9, 1)]))
    assert len(spec) == 1
    assert spec.multiplicities()[0] == 3


def test_gap_equal_to_tolerance_chains():
    with tolerance(0.25):
        spec = Spectrum.from_triples(*_records([(0.5, 1), (0.0, 1), (0.25, 1), (1.0, 1)]))
    assert [(value, mult) for value, mult, _ in entries(spec)] == [(0.25, 3), (1.0, 1)]


def test_no_merge_beyond_tolerance():
    with tolerance(1e-9):
        spec = Spectrum.from_triples(*_records([(0.0, 1), (1e-6, 1)]))
    assert len(spec) == 2


def test_values_sorted_and_total_multiplicity():
    spec = Spectrum.from_triples(*_records([(3.0, 2), (-1.0, 4), (0.5, 1)]))
    assert np.all(np.diff(spec.values()) > 0)
    assert spec.multiplicities().sum() == 7
    assert list(spec.multiplicities()) == [4, 1, 2]


def test_min_abs_and_first_positive():
    spec = Spectrum.from_triples(*_records([(-0.25, 1), (0.5, 1), (2.0, 1)]))
    assert spec.min_abs() == 0.25
    assert spec.values()[spec.values() > 0.0].min() == 0.5
    with pytest.raises(ValueError):
        Spectrum([], [], [], [0]).min_abs()
    neg = Spectrum.from_triples(*_records([(-1.0, 1)]))
    assert not np.any(neg.values() > 0.0)


def test_window_and_multiplicity_queries_on_the_arrays():
    spec = Spectrum.from_triples(*_records([(-2.0, 1), (0.0, 3), (1.5, 2)]))
    values = spec.values()
    assert values[(-0.5 <= values) & (values <= 1.5)].tolist() == [0.0, 1.5]
    assert multiplicity_at(spec, 0.0) == 3
    with tolerance(1e-9):
        assert multiplicity_at(spec, 1.5 + 1e-12) == 2
    assert multiplicity_at(spec, 0.7) == 0


def test_tolerance_environment_override(monkeypatch):
    monkeypatch.setenv("MAGDIRAC_TOLERANCE", "1e-3")
    assert merge_tolerance() == 1e-3
    spec = Spectrum.from_triples(*_records([(0.0, 1), (5e-4, 1)]))
    assert len(spec) == 1
    monkeypatch.setenv("MAGDIRAC_TOLERANCE", "not-a-number")
    with pytest.raises(ValueError):
        merge_tolerance()
    monkeypatch.setenv("MAGDIRAC_TOLERANCE", "-1e-9")
    with pytest.raises(ValueError):
        merge_tolerance()
    monkeypatch.delenv("MAGDIRAC_TOLERANCE")
    assert merge_tolerance() == 1e-9


def _reference_merge(triples, tol):
    """Sorted scan with left-to-right group sums, one entry per chain."""
    items = sorted(triples, key=lambda tr: tr[0])
    out, i = [], 0
    while i < len(items):
        j = i + 1
        while j < len(items) and items[j][0] - items[j - 1][0] <= tol:
            j += 1
        group = items[i:j]
        mult = sum(g[1] for g in group)
        value = sum(g[0] * g[1] for g in group) / mult
        out.append((float(value), int(mult), tuple(g[2] for g in group)))
        i = j
    return out


def _random_triples(rng, tol):
    values = list(rng.uniform(-50.0, 50.0, size=int(rng.integers(0, 400))))
    for _ in range(int(rng.integers(1, 6))):
        # a chain of gaps just below tol: it spans up to 200 tol
        start = float(rng.uniform(-50.0, 50.0))
        steps = rng.uniform(0.3, 0.999, size=int(rng.integers(2, 200))) * tol
        values += list(start + np.cumsum(steps))
    values += list(rng.choice(values, size=len(values) // 4))  # exact repeats
    values += [0.0, -0.0]
    rng.shuffle(values)
    return [
        (float(v), int(rng.integers(1, 9)), (int(i), int(rng.integers(-5, 6))))
        for i, v in enumerate(values)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_array_merge_equals_left_to_right_reference(seed):
    rng = np.random.default_rng(seed)
    tol = [1e-9, 1e-6, 1e-3][seed % 3]
    triples = _random_triples(rng, tol)
    expected = _reference_merge(triples, tol)
    value_of = {lbl: v for v, _, lbl in triples}
    spans = [max(value_of[l] for l in g) - min(value_of[l] for l in g) for *_, g in expected]
    assert max(spans) > tol  # some chain merges values further apart than tol
    with tolerance(tol):
        spec = Spectrum.from_triples(*zip(*triples))
    got = entries(spec)
    assert got == expected
    assert all(np.copysign(1.0, a) == np.copysign(1.0, b)
               for (a, *_), (b, *_) in zip(got, expected))


@pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0, 1.0], [1.0, -0.0, 0.0]])
def test_a_chain_sum_starts_from_positive_zero(values):
    # a chain of -0.0 alone sums to 0.0, as in the left-to-right reference
    items = [(v, i + 1, (i,)) for i, v in enumerate(values)]
    with tolerance(1e-9):
        spec = Spectrum.from_triples(*zip(*items))
    got = entries(spec)
    assert got == _reference_merge(items, 1e-9)
    assert np.copysign(1.0, spec.values()).tolist() == [1.0] * len(spec)


@pytest.mark.parametrize("window", [(-20.0, 20.0), (-1e3, 1e3), (3.0, 3.0), (5.0, -5.0),
                                    (60.0, 70.0)])
def test_a_value_window_slices_the_member_labels(window):
    rng = np.random.default_rng(11)
    with tolerance(1e-6):
        spec = Spectrum.from_triples(*zip(*_random_triples(rng, 1e-6)))
    lo, hi = window
    # the entries lo <= value <= hi are a run i:j, their labels the run offsets[i]:offsets[j]
    values, (labels, offsets) = spec.values(), spec.members()
    i = np.searchsorted(values, lo)
    j = max(i, np.searchsorted(values, hi, side="right"))
    win = [(value, mult, rows) for value, mult, rows in entries(spec) if lo <= value <= hi]
    assert entries(spec)[i:j] == win
    assert len(labels[offsets[i]:offsets[j]]) == offsets[j] - offsets[i] == sum(
        len(rows) for *_, rows in win)
    assert list(map(tuple, labels[offsets[i]:offsets[j]].tolist())) == [
        row for *_, rows in win for row in rows]


@pytest.mark.parametrize("value, mult, label", [
    ([1.0, 2.0], [1, 1, 1], [[0], [1]]),
    ([1.0, 2.0], [1], [[0], [1]]),
    ([1.0, 2.0], [1, 1], [[0], [1], [2]]),
    ([1.0, 2.0, 3.0], [1, 1, 1], [[0], [1]]),
    ([], [1], np.empty((0, 2))),
])
def test_refusals(value, mult, label):
    # three arrays can differ in length where the structured triples could
    # not; a gather by the sort order would drop the extra labels silently
    with pytest.raises(ValueError, match="value, mult and label differ in length"):
        Spectrum.from_triples(value, mult, label)


@pytest.mark.parametrize("x, ok", [(3, True), (np.int64(-3), True), (np.uint8(3), True),
                                   (True, False), (np.True_, False), (3.0, False),
                                   (np.float64(3.0), False), ("3", False), (None, False)])
def test_check_int_takes_ints_and_numpy_integers_only(x, ok):
    if ok:
        assert check_int(x, "count") == x and type(check_int(x, "count")) is int
    else:
        with pytest.raises(ValueError, match="count must be an integer, got "):
            check_int(x, "count")


def _through_the_sort(value, mult, label):
    """The arrays with their runs of equal values in reverse run order, each
    run in input order: ``np.argsort(kind="stable")`` sorts them back into
    the ascending input exactly, and the merge must sort them."""
    starts = np.flatnonzero(np.diff(value, prepend=np.nan) != 0)  # -0.0 and 0.0 are one run
    perm = np.concatenate(np.split(np.arange(len(value)), starts[1:])[::-1])
    assert (perm[np.argsort(value[perm], kind="stable")] == np.arange(len(value))).all()
    return value[perm], mult[perm], label[perm]


def _bits(spec):
    labels, offsets = spec.members()
    return (spec.values().view(np.int64).tolist(), spec.multiplicities().tolist(),
            labels.tolist(), offsets.tolist())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(base=st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-5.0, 5.0),
                     max_size=30),
       chains=st.lists(st.tuples(st.floats(-5.0, 5.0),
                                 st.lists(st.floats(0.3, 0.999), min_size=1, max_size=6)),
                       max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_sorted_input_merges_as_the_stable_sort_of_it(base, chains, seed):
    # ascending values with exact ties, -0.0 beside 0.0 and chains of gaps
    # within the tolerance: kept as they are, they merge bit for bit as the
    # same input does when it has to pass the stable sort
    tol = 1e-3
    values = base + [start + tol * s for start, steps in chains for s in np.cumsum(steps)]
    value = np.array(sorted(values), dtype=np.float64)  # stable: -0.0 and 0.0 keep their order
    rng = np.random.default_rng(seed)
    mult = rng.integers(1, 9, size=len(value))
    label = np.stack([np.arange(len(value)), rng.integers(-5, 6, size=len(value))], axis=1)
    with tolerance(tol):
        kept = Spectrum.from_triples(value, mult, label)
        sorted_ = Spectrum.from_triples(*_through_the_sort(value, mult, label))
    assert _bits(kept) == _bits(sorted_)


def test_sorted_input_makes_no_argsort(monkeypatch):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    value = np.array([-1.0, -0.0, 0.0, 0.0, 2.0, 2.0 + 1e-10])
    spec = Spectrum.from_triples(value, np.ones(6, np.int64), np.arange(6)[:, None])
    assert calls == [] and spec.multiplicities().tolist() == [1, 3, 2]
    Spectrum.from_triples(value[::-1], np.ones(6, np.int64), np.arange(6)[:, None])
    assert calls == [1]  # descending values are sorted


@pytest.mark.parametrize("value", [[1.0, 2.0, 2.0, 3.0], [3.0, 2.0, 2.0, 1.0]])
def test_the_spectrum_shares_no_writeable_label_array(value):
    # sorted input keeps a read-only label array as it is and copies a
    # writeable one, so writing to the caller's array afterwards either
    # raises or leaves the spectrum's labels unchanged
    for writeable in (True, False):
        label = np.arange(8).reshape(4, 2)
        label.setflags(write=writeable)
        spec = Spectrum.from_triples(value, [1, 1, 1, 1], label)
        before = spec.members()[0].tolist()
        if writeable:
            label[:] = -1
        else:
            with pytest.raises(ValueError, match="read-only"):
                label[:] = -1
        assert spec.members()[0].tolist() == before
