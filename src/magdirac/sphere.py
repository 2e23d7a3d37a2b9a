"""Exact spectrum of the magnetic Dirac operator on the round 3-sphere.

The operator is D + it c(xi) with xi the unit Hopf vector field and t the
real coupling.  Its full point spectrum splits into three families indexed
by a level k >= 0, every member carrying multiplicity k + 1:

    plus:    3/2 + t + k
    minus:   3/2 - t + k
    branch:  1/2 +- sqrt(f0(k, p, t)),   0 <= p < k,

with the branch discriminant

    f0(k, p, t) = (1 + t + 2p - k)^2 + 4(k - p)(p + 1).

Expanding the square gives a form linear in p, f0 = (k + 1 - t)^2 +
4t(p + 1), so sqrt(f0) >= |k + 1 - |t||: every member of level k has
|value| >= k + 1/2 - |t|, and no level k > cutoff + |t| reaches the window
|value| <= cutoff.

The degenerate cases p = k and p = -1 fold the plus/minus families into the
same square-root expression, f0(k, k, t) = (1 + t + k)^2 and
f0(k, -1, t) = (1 - t + k)^2, and f0(k, p, -t) = f0(k, k - p - 1, t) makes
the spectrum even in t.  The flow-invariant (basic) sector consists of the
branch modes with k = 2p + 1, where f0 collapses to t^2 + 4(p + 1)^2.
"""

import numpy as np

from .spectrum import Spectrum, check_int, check_size


def f0(k, p, t):
    """Branch discriminant (1 + t + 2p - k)^2 + 4(k - p)(p + 1).

    Valid for 0 <= p < k; the extensions p = k and p = -1 reproduce the
    squared plus/minus family values and are accepted too.  Takes scalars
    (returns a float) or broadcastable integer arrays k, p and couplings t.
    """
    k, p = np.broadcast_arrays(k, p)
    for x, what in ((k, "level"), (p, "branch index")):
        if x.dtype.kind not in "iu":
            raise ValueError(f"{what} must be an integer, got {x.dtype}")
    bad = (k < 0) | (p < -1) | (p > k)
    if np.any(bad):
        i = np.argmax(bad)
        raise ValueError(f"branch index p={p.flat[i]} outside -1..k for k={k.flat[i]}")
    # float_power(x, 2) rounds as Python's x ** 2 does; x * x differs in the last bit
    out = np.float_power(1.0 + t + 2 * p - k, 2) + 4.0 * (k - p) * (p + 1)
    return float(out) if out.ndim == 0 else out


def _check_level(k) -> int:
    k = check_int(k, "level")
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    return k


def _check_coupling(t) -> float:
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"coupling must be finite, got {t!r}")
    return t


def spectrum(t: float, cutoff: float) -> Spectrum:
    """All eigenvalues with |value| <= cutoff, merged with multiplicities.

    Labels are the integer (family, k, p, sign) rows of ``_levels``, each
    with multiplicity k + 1.  Merging uses the active tolerance; at t = 0 the
    plus/minus values and all k positive branch values of level k coincide
    at 3/2 + k, which therefore appears once with multiplicity
    (k + 2)(k + 1).  Refused (ValueError) before any work when the level
    loop would visit more than ``spectrum.MAX_SPECTRUM_SIZE`` members.
    """
    t = _check_coupling(t)
    cutoff = float(cutoff)
    if not np.isfinite(cutoff) or cutoff <= 0.0:
        raise ValueError(f"cutoff must be a positive number, got {cutoff!r}")

    value, *members = _levels(_top_level(t, cutoff, "--cutoff or |t|"), t)
    keep = np.flatnonzero(np.abs(value) <= cutoff + 1e-12)
    label = np.stack([x[keep] for x in members], axis=1)
    return Spectrum.from_triples(value[keep], label[:, 1] + 1, label)


def _top_level(t: float, cutoff: float, hint: str) -> int:
    """Level past which f0 >= (k + 1 - |t|)^2 puts every |value| above cutoff,
    refused past the cap with "reduce <hint>"; computed as a float, so an
    overflowing cutoff + |t| is refused as inf, not raised."""
    k_max = float(np.ceil(cutoff + abs(t))) + 1.0
    check_size(triple_count(k_max), "triples", hint)
    return int(k_max)


FAMILIES = ("plus", "minus", "branch")


def _levels(k_max: int, t):
    """Every member of levels 0..k_max as arrays (value, family, k, p, sign).

    Level by level the members are plus, minus, then (p, +1), (p, -1) for
    p < k; ``family`` indexes FAMILIES and the plus/minus ends carry p = -1
    and sign +1/-1.  A 1-D array of couplings t gives one value row per t.
    """
    k = np.repeat(np.arange(k_max + 1), 2 * np.arange(k_max + 1) + 2)
    j = np.arange(k.size) - k * (k + 1)  # position of the member in its level
    fam, p, sign = np.minimum(j, 2), (j - 2) // 2, 1 - 2 * (j % 2)
    t = np.asarray(t, dtype=np.float64)[..., None]
    root = np.sqrt(f0(k, p, t))  # p = -1 at the ends, where it is not read
    value = np.where(fam == 2, 0.5 + sign * root, 1.5 + sign * t + k)
    return value, fam, k, p, sign


def member_labels(fam, k, p, sign) -> list:
    """Named (family, k, p, sign) tuples, plus/minus with p = sign = None
    (for failure reports; spectra and the CLI keep the integer rows)."""
    return [("branch", kk, pp, s) if f == 2 else (FAMILIES[f], kk, None, None)
            for f, kk, pp, s in zip(*(x.tolist() for x in (fam, k, p, sign)))]


def triple_count(k_max: float) -> float:
    """Members of levels 0..k_max, all visited by ``spectrum``: 2 + 2k each."""
    return (k_max + 1.0) * (k_max + 2.0)


def lambda1(t: float) -> float:
    """Smallest eigenvalue in absolute value.

    The cutoff 2 always contains the minimizer: lambda_1 <= 3/2 for every
    t, reached by the minus (t >= 0) or plus (t < 0) member 3/2 - |t| + k
    nearest zero.
    """
    t = _check_coupling(t)
    _top_level(t, 2.0, "|t|")  # the cutoff is not the caller's to reduce
    return spectrum(t, 2.0).min_abs()


def lambda1_basic(t: float) -> float:
    """First positive eigenvalue on flow-invariant spinors.

    Basic modes are the branch pairs with k = 2p + 1, whose values are
    1/2 +- sqrt(t^2 + 4(p + 1)^2); the positive ones increase with p, so
    the minimum sits at p = 0.
    """
    t = _check_coupling(t)
    return 0.5 + np.sqrt(t * t + 4.0)


def collision_t(k, p, k2, p2):
    """Coupling t at which branch curves (k, p) and (k2, p2) collide.

    Solves the linear equation f0(k, p, t) = f0(k2, p2, t), giving
    t = (k - k2)(k + k2 + 2) / (2(k - k2) - 4(p - p2)): one correctly
    rounded division of exact integers.  Raises ValueError for parallel
    curves (zero denominator) or indices outside 0 <= p < k.  Takes integer
    scalars (returns a float) or integer arrays (one t per curve pair).
    """
    args = np.broadcast_arrays(*(np.asarray(x) for x in (k, p, k2, p2)))
    if any(x.dtype.kind not in "iu" for x in args):
        raise ValueError("levels and branch indices must be integers")
    k, p, k2, p2 = (x.astype(np.int64) for x in args)
    den = 2 * (k - k2) - 4 * (p - p2)
    for bad, why in (((p < 0) | (p >= k) | (p2 < 0) | (p2 >= k2), "p outside 0..k-1"),
                     (den == 0, "equal slopes in t; no collision point")):
        if np.any(bad):
            i = np.argmax(bad)
            raise ValueError(f"curves (k={k.flat[i]}, p={p.flat[i]}) and "
                             f"(k={k2.flat[i]}, p={p2.flat[i]}): {why}")
    tc = (k - k2) * (k + k2 + 2) / den + 0.0  # + 0.0 maps 0/(-4) = -0.0 to 0.0
    return float(tc) if tc.ndim == 0 else tc


def curve_table(t_values, k_max: int, window=None) -> tuple:
    """Eigenvalue curves of levels 0..k_max sampled on a coupling grid.

    Returns arrays: the couplings; the members of levels 0..k_max as
    (family, k, p, sign) with family indexing FAMILIES (the plus/minus ends
    carry p = -1 and sign +1/-1, see ``member_labels`` for their tuples);
    and per row its coupling index, member index and value, coupling by
    coupling.  ``window`` is None (no filter) or a pair (lo, hi) with
    lo <= hi keeping lo <= value <= hi.  Refused (ValueError) before any
    work past ``spectrum.MAX_SPECTRUM_SIZE`` rows."""
    lo, hi = -np.inf, np.inf
    if window is not None:
        try:
            lo, hi = map(float, window)
        except ValueError:
            lo = hi = np.nan
        if not lo <= hi:
            raise ValueError("window must be lo:hi with lo <= hi, got "
                             + repr(":".join(map(str, window))))
    k_max = _check_level(k_max)
    check_size(len(t_values) * triple_count(k_max), "curve rows",
               "--k-max or the coupling grid steps")
    t_values = np.array([_check_coupling(t) for t in t_values], dtype=np.float64)
    value, *members = _levels(k_max, t_values)
    i, j = np.nonzero((lo <= value) & (value <= hi))  # coupling by coupling
    return t_values, tuple(members), i, j, value[i, j]
