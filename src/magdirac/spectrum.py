"""Shared container for exact point spectra with multiplicities.

Eigenvalues arrive from the model modules as a structured array of
(value, multiplicity, label) triples, each label a row of integers (see
``triples``); the container sorts them and chain-merges values closer than
the merge tolerance, adding multiplicities and concatenating labels.  The
default tolerance 1e-9 can be overridden through the MAGDIRAC_TOLERANCE
environment variable.
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_TOLERANCE = 1e-9
# requests estimated past this many torus modes, sphere triples, curve rows
# or collision pairs are refused before any work (routine ones need ~1e4)
MAX_SPECTRUM_SIZE = 10**6


def check_size(estimate: float, what: str) -> None:
    """Raise ValueError if a request would produce more than the cap."""
    if estimate > MAX_SPECTRUM_SIZE:
        raise ValueError(
            f"about {estimate:.3g} {what} exceed the cap {MAX_SPECTRUM_SIZE}; "
            "reduce the cutoff or k_max"
        )


def triples(value, mult, label) -> np.ndarray:
    """Structured array of (value, mult, label) triples, the input of
    ``Spectrum.from_triples``; ``label`` holds one integer row per triple."""
    label = np.asarray(label, dtype=np.int64)
    out = np.empty(len(label), [("value", "f8"), ("mult", "i8"), ("label", "i8", label.shape[1:])])
    out["value"], out["mult"], out["label"] = value, mult, label
    return out


def merge_tolerance() -> float:
    """Active merge tolerance (MAGDIRAC_TOLERANCE override, else 1e-9)."""
    raw = os.environ.get("MAGDIRAC_TOLERANCE")
    if raw is None or raw.strip() == "":
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"MAGDIRAC_TOLERANCE is not a number: {raw!r}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"MAGDIRAC_TOLERANCE must be a positive number, got {raw!r}")
    return tol


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with its total multiplicity and contributing labels."""

    value: float
    multiplicity: int
    labels: tuple


class Spectrum:
    """Ascending list of distinct eigenvalues with multiplicities.

    Held as arrays: values, multiplicities, the member labels in merged
    order (an (M, n) integer array) and the group offsets, so that the
    labels of entry i are ``labels[offsets[i]:offsets[i + 1]]``.  Only
    ``entries`` (and iteration) builds tuples: ``SpectrumEntry`` objects
    with integer label tuples, on first use.
    """

    def __init__(self, values=(), mults=(), labels=(), offsets=(0,)):
        self._values = np.asarray(values, dtype=np.float64)
        self._mults = np.asarray(mults, dtype=np.int64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self._offsets = np.asarray(offsets, dtype=np.int64)

    @classmethod
    def from_triples(cls, triples, tolerance: float | None = None) -> "Spectrum":
        """Build from the structured array of ``triples``, merging values
        that form a chain with consecutive gaps <= tolerance.  A merged
        value is the multiplicity-weighted mean, summed left to right in
        value order."""
        tol = merge_tolerance() if tolerance is None else float(tolerance)
        order = np.argsort(triples["value"], kind="stable")
        values, mults = triples["value"][order], triples["mult"][order]
        starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
        sizes = np.diff(starts, append=len(values))
        weighted, sums, live = values * mults, np.zeros(len(starts)), np.arange(len(starts))
        for j in range(int(sizes.max(initial=0))):  # np.add.reduceat would sum pairwise
            live = live[sizes[live] > j]
            sums[live] += weighted[starts[live] + j]
        mults = np.add.reduceat(mults, starts) if len(starts) else mults
        return cls(sums / mults, mults, triples["label"][order], np.append(starts, len(values)))

    @cached_property
    def entries(self) -> list:
        labels = list(map(tuple, self._labels.tolist()))
        bounds = self._offsets.tolist()
        return [SpectrumEntry(v, m, tuple(labels[a:b])) for v, m, a, b in
                zip(self._values.tolist(), self._mults.tolist(), bounds, bounds[1:])]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self.entries)

    def values(self) -> np.ndarray:
        return self._values.copy()

    def multiplicities(self) -> np.ndarray:
        return self._mults.copy()

    def members(self) -> tuple:
        """(labels in merged order, group offsets of length len + 1)."""
        return self._labels, self._offsets.copy()

    def total_multiplicity(self) -> int:
        return int(self._mults.sum())

    def min_abs(self) -> float:
        """Smallest eigenvalue in absolute value."""
        if not len(self):
            raise ValueError("spectrum is empty")
        return float(np.abs(self._values).min())

    def first_positive(self) -> float:
        """Smallest strictly positive eigenvalue."""
        pos = self._values[self._values > 0.0]
        if not pos.size:
            raise ValueError("spectrum has no positive eigenvalues")
        return float(pos.min())

    def in_window(self, lo: float, hi: float) -> "Spectrum":
        """Entries with lo <= value <= hi."""
        keep = np.flatnonzero((lo <= self._values) & (self._values <= hi))
        i, j = (keep[0], keep[-1] + 1) if keep.size else (0, 0)  # values ascend
        a, b = self._offsets[i], self._offsets[j]
        return Spectrum(self._values[i:j], self._mults[i:j], self._labels[a:b],
                        self._offsets[i:j + 1] - a)

    def multiplicity_at(self, value: float, tolerance: float | None = None) -> int:
        """Total multiplicity within tolerance of the given value."""
        tol = merge_tolerance() if tolerance is None else float(tolerance)
        return int(self._mults[np.abs(self._values - value) <= tol].sum())
