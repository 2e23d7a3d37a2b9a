"""Spectrum container: merging, queries, tolerance override."""

import numpy as np
import pytest

from magdirac.spectrum import Spectrum, merge_tolerance, triples


def _records(pairs):
    """Structured triples of (value, mult) pairs; the label of pair i is (i,)."""
    values, mults = zip(*pairs)
    return triples(values, mults, np.arange(len(pairs))[:, None])


def test_merge_combines_close_values_with_weighted_mean():
    spec = Spectrum.from_triples(
        _records([(1.0, 2), (1.0 + 5e-10, 3), (2.0, 1)]),
        tolerance=1e-9,
    )
    assert len(spec) == 2
    first = spec.entries[0]
    assert first.multiplicity == 5
    assert abs(first.value - (2 * 1.0 + 3 * (1.0 + 5e-10)) / 5) < 1e-15
    assert first.labels == ((0,), (1,))
    assert spec.entries[1].multiplicity == 1


def test_merge_is_chained_across_consecutive_gaps():
    # values 0, 0.8e-9, 1.6e-9: pairwise gaps below tolerance chain together
    spec = Spectrum.from_triples(
        _records([(0.0, 1), (0.8e-9, 1), (1.6e-9, 1)]),
        tolerance=1e-9,
    )
    assert len(spec) == 1
    assert spec.entries[0].multiplicity == 3


def test_gap_equal_to_tolerance_chains():
    spec = Spectrum.from_triples(
        _records([(0.5, 1), (0.0, 1), (0.25, 1), (1.0, 1)]),
        tolerance=0.25,
    )
    assert [(e.value, e.multiplicity) for e in spec] == [(0.25, 3), (1.0, 1)]


def test_no_merge_beyond_tolerance():
    spec = Spectrum.from_triples(_records([(0.0, 1), (1e-6, 1)]), tolerance=1e-9)
    assert len(spec) == 2


def test_values_sorted_and_total_multiplicity():
    spec = Spectrum.from_triples(_records([(3.0, 2), (-1.0, 4), (0.5, 1)]))
    assert np.all(np.diff(spec.values()) > 0)
    assert spec.total_multiplicity() == 7
    assert list(spec.multiplicities()) == [4, 1, 2]


def test_min_abs_and_first_positive():
    spec = Spectrum.from_triples(_records([(-0.25, 1), (0.5, 1), (2.0, 1)]))
    assert spec.min_abs() == 0.25
    assert spec.first_positive() == 0.5
    with pytest.raises(ValueError):
        Spectrum([]).min_abs()
    neg = Spectrum.from_triples(_records([(-1.0, 1)]))
    with pytest.raises(ValueError):
        neg.first_positive()


def test_in_window_and_multiplicity_at():
    spec = Spectrum.from_triples(_records([(-2.0, 1), (0.0, 3), (1.5, 2)]))
    win = spec.in_window(-0.5, 1.5)
    assert [e.value for e in win] == [0.0, 1.5]
    assert spec.multiplicity_at(0.0) == 3
    assert spec.multiplicity_at(1.5 + 1e-12, 1e-9) == 2
    assert spec.multiplicity_at(0.7) == 0


def test_tolerance_environment_override(monkeypatch):
    monkeypatch.setenv("MAGDIRAC_TOLERANCE", "1e-3")
    assert merge_tolerance() == 1e-3
    spec = Spectrum.from_triples(_records([(0.0, 1), (5e-4, 1)]))
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


def _structured(items):
    """The (value, mult, label) tuples as a structured array."""
    values, mults, labels = zip(*items)
    return triples(values, mults, labels)


@pytest.mark.parametrize("seed", range(8))
def test_array_merge_equals_left_to_right_reference(seed):
    rng = np.random.default_rng(seed)
    tol = [1e-9, 1e-6, 1e-3][seed % 3]
    triples = _random_triples(rng, tol)
    expected = _reference_merge(triples, tol)
    value_of = {lbl: v for v, _, lbl in triples}
    spans = [max(value_of[l] for l in g) - min(value_of[l] for l in g) for *_, g in expected]
    assert max(spans) > tol  # some chain merges values further apart than tol
    spec = Spectrum.from_triples(_structured(triples), tolerance=tol)
    got = [(e.value, e.multiplicity, e.labels) for e in spec]
    assert got == expected
    assert all(np.copysign(1.0, a) == np.copysign(1.0, b)
               for (a, *_), (b, *_) in zip(got, expected))


@pytest.mark.parametrize("window", [(-20.0, 20.0), (-1e3, 1e3), (3.0, 3.0), (5.0, -5.0),
                                    (60.0, 70.0)])
def test_in_window_slices_the_member_labels(window):
    rng = np.random.default_rng(11)
    spec = Spectrum.from_triples(_structured(_random_triples(rng, 1e-6)), 1e-6)
    lo, hi = window
    win = spec.in_window(lo, hi)
    assert win.entries == [e for e in spec.entries if lo <= e.value <= hi]
    labels, offsets = win.members()
    assert len(labels) == offsets[-1] == sum(len(e.labels) for e in win)
