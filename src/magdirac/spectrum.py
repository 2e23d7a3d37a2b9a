"""Shared container for exact point spectra with multiplicities.

Eigenvalues arrive as (value, multiplicity, label) triples from the model
modules; the container sorts them and chain-merges values closer than the
merge tolerance, adding multiplicities and concatenating labels.  The
default tolerance 1e-9 can be overridden through the MAGDIRAC_TOLERANCE
environment variable.
"""

import os
from dataclasses import dataclass

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
    """Ascending list of distinct eigenvalues with multiplicities, held as
    arrays; the entries with their label tuples are built on first access."""

    def __init__(self, entries):
        self._entries = list(entries)
        self._values = np.array([e.value for e in self._entries], dtype=np.float64)
        self._mults = np.array([e.multiplicity for e in self._entries], dtype=np.int64)

    @classmethod
    def from_triples(cls, triples, tolerance: float | None = None) -> "Spectrum":
        """Build from (value, multiplicity, label) triples, merging values
        that form a chain with consecutive gaps <= tolerance.

        ``triples`` may also be a structured array with fields value, mult
        and label (integer rows, returned as tuples).  A merged value is the
        multiplicity-weighted mean, summed left to right in value order.
        """
        tol = merge_tolerance() if tolerance is None else float(tolerance)
        if isinstance(triples, np.ndarray):
            values, mults, labels = triples["value"], triples["mult"], triples["label"]
        else:
            values, mults, labels = list(zip(*triples)) or ((), (), ())
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        values, mults = values[order], np.asarray(mults, dtype=np.int64)[order]
        starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
        sizes = np.diff(starts, append=len(values))
        weighted, sums, live = values * mults, np.zeros(len(starts)), np.arange(len(starts))
        for j in range(int(sizes.max(initial=0))):  # np.add.reduceat would sum pairwise
            live = live[sizes[live] > j]
            sums[live] += weighted[starts[live] + j]
        spec = cls([])
        spec._mults = np.add.reduceat(mults, starts) if len(starts) else mults
        spec._values = sums / spec._mults

        def group_labels():  # called once, by the first read of entries
            if isinstance(labels, np.ndarray):
                ordered = list(map(tuple, labels[order].tolist()))
            else:
                ordered = [labels[i] for i in order.tolist()]
            return [tuple(ordered[a:a + n]) for a, n in zip(starts.tolist(), sizes.tolist())]

        spec._entries = group_labels
        return spec

    @property
    def entries(self) -> list:
        if callable(self._entries):
            self._entries = list(map(
                SpectrumEntry, self._values.tolist(), self._mults.tolist(), self._entries()
            ))
        return self._entries

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self.entries)

    def values(self) -> np.ndarray:
        return self._values.copy()

    def multiplicities(self) -> np.ndarray:
        return self._mults.copy()

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
        return Spectrum([e for e in self.entries if lo <= e.value <= hi])

    def multiplicity_at(self, value: float, tolerance: float | None = None) -> int:
        """Total multiplicity within tolerance of the given value."""
        tol = merge_tolerance() if tolerance is None else float(tolerance)
        return int(self._mults[np.abs(self._values - value) <= tol].sum())
