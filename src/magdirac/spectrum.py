"""Shared container for exact point spectra with multiplicities.

Eigenvalues arrive from the model modules as three arrays of equal length:
values, multiplicities and labels, each label a row of integers.  The
container sorts them stably and chain-merges values closer than the merge
tolerance, adding multiplicities and concatenating labels.  The tolerance is
1e-9; the MAGDIRAC_TOLERANCE environment variable is its only override.
"""

import os

import numpy as np

DEFAULT_TOLERANCE = 1e-9
# requests estimated past this many torus modes, sphere triples, curve rows
# or collision pairs are refused before any work (routine ones need ~1e4)
MAX_SPECTRUM_SIZE = 10**6


def check_size(estimate: float, what: str, hint: str) -> None:
    """Raise ValueError if a request would produce more than the cap; the
    message ends "reduce <hint>", the input that sets the size."""
    if estimate > MAX_SPECTRUM_SIZE:
        raise ValueError(
            f"about {estimate:.3g} {what} exceed the cap {MAX_SPECTRUM_SIZE}; "
            f"reduce {hint}"
        )


def check_int(x, what: str) -> int:
    """``x`` as an int; ValueError unless it is an int or numpy integer, not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


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


class Spectrum:
    """Ascending list of distinct eigenvalues with multiplicities.

    Held as arrays: values, multiplicities, the member labels in merged
    order (an (M, n) integer array) and the group offsets, so that the
    labels of entry i are ``labels[offsets[i]:offsets[i + 1]]``.
    """

    def __init__(self, values, mults, labels, offsets):
        self._values = np.asarray(values, dtype=np.float64)
        self._mults = np.asarray(mults, dtype=np.int64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self._offsets = np.asarray(offsets, dtype=np.int64)

    @classmethod
    def from_triples(cls, value, mult, label) -> "Spectrum":
        """Build from three arrays of equal length, the values, one
        multiplicity per value and integer label rows, merging values that
        form a chain with consecutive gaps <= ``merge_tolerance()``.  A merged
        value is the multiplicity-weighted mean, summed left to right in value
        order.  Values already in stable order (ascending, a NaN fails) are
        not sorted, and their label array is kept as it is if read-only, else
        copied, so the spectrum shares no writeable array with its caller."""
        values, mults, label = (np.asarray(value, np.float64), np.asarray(mult, np.int64),
                                np.asarray(label, np.int64))
        if not len(values) == len(mults) == len(label):
            raise ValueError(f"value, mult and label differ in length: "
                             f"{len(values)}, {len(mults)}, {len(label)}")
        if not (values[1:] >= values[:-1]).all():
            order = np.argsort(values, kind="stable")
            values, mults, label = values.take(order), mults.take(order), label.take(order, axis=0)
        elif label.flags.writeable:
            label = label.copy()
        starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > merge_tolerance())
        sizes = np.diff(starts, append=len(values))
        weighted = values * mults
        sums, live = weighted.take(starts) + 0.0, np.flatnonzero(sizes > 1)  # a sum from 0.0
        for j in range(1, int(sizes.max(initial=0))):  # np.add.reduceat would sum pairwise
            live = live[sizes[live] > j]
            sums[live] += weighted[starts[live] + j]
        mults = np.add.reduceat(mults, starts) if len(starts) else mults
        return cls(sums / mults, mults, label, np.append(starts, len(values)))

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        return self._values.copy()

    def multiplicities(self) -> np.ndarray:
        return self._mults.copy()

    def members(self) -> tuple:
        """(labels in merged order, group offsets of length len + 1)."""
        return self._labels, self._offsets.copy()

    def min_abs(self) -> float:
        """Smallest eigenvalue in absolute value."""
        if not len(self):
            raise ValueError("spectrum is empty")
        return float(np.abs(self._values).min())
