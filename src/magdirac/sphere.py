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

from .spectrum import Spectrum, check_size


def f0(k: int, p: int, t: float) -> float:
    """Branch discriminant (1 + t + 2p - k)^2 + 4(k - p)(p + 1).

    Valid for 0 <= p < k; the extensions p = k and p = -1 reproduce the
    squared plus/minus family values and are accepted too.
    """
    k = _check_level(k)
    p = int(p)
    if not -1 <= p <= k:
        raise ValueError(f"branch index p={p} outside -1..k for k={k}")
    return (1.0 + t + 2 * p - k) ** 2 + 4.0 * (k - p) * (p + 1)


def _check_level(k) -> int:
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"level must be an integer, got {k!r}")
    k = int(k)
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    return k


def _check_coupling(t) -> float:
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"coupling must be finite, got {t!r}")
    return t


def spectrum(t: float, cutoff: float, merge_tol: float | None = None) -> Spectrum:
    """All eigenvalues with |value| <= cutoff, merged with multiplicities.

    Labels are (family, k, p, sign) tuples; plus/minus members carry
    p = None, sign = None.  Merging uses the active tolerance; at t = 0 the
    plus/minus values and all k positive branch values of level k coincide
    at 3/2 + k, which therefore appears once with multiplicity
    (k + 2)(k + 1).  Refused (ValueError) before any work when the level
    loop would visit more than ``spectrum.MAX_SPECTRUM_SIZE`` members.
    """
    t = _check_coupling(t)
    cutoff = float(cutoff)
    if not np.isfinite(cutoff) or cutoff <= 0.0:
        raise ValueError(f"cutoff must be a positive number, got {cutoff!r}")

    edge = cutoff + 1e-12
    # f0 = (k + 1 - t)^2 + 4t(p + 1) >= (k + 1 - |t|)^2: every value of
    # level k has |value| >= k + 1/2 - |t|, so levels > cutoff + |t| drop out
    # (a float, so an overflowing cutoff + |t| is refused as inf, not raised)
    k_max = float(np.ceil(cutoff + abs(t))) + 1.0
    check_size(triple_count(k_max), "triples")
    triples = []
    for k in range(int(k_max) + 1):
        members = [(1.5 + t + k, ("plus", k, None, None)),
                   (1.5 - t + k, ("minus", k, None, None))]
        for p in range(k):
            root = np.sqrt(f0(k, p, t))
            members += [(0.5 + root, ("branch", k, p, 1)), (0.5 - root, ("branch", k, p, -1))]
        triples += [(v, k + 1, label) for v, label in members if abs(v) <= edge]
    return Spectrum.from_triples(triples, tolerance=merge_tol)


def triple_count(k_max: float) -> float:
    """Members of levels 0..k_max, all visited by ``spectrum``: 2 + 2k each."""
    return (k_max + 1.0) * (k_max + 2.0)


def lambda1(t: float, cutoff: float | None = None) -> float:
    """Smallest eigenvalue in absolute value.

    The default cutoff 5 + |t| always contains the minimizer, since the
    minus family alone gives an eigenvalue of magnitude <= 3/2 + |t|.
    """
    t = _check_coupling(t)
    if cutoff is None:
        cutoff = 5.0 + abs(t)
    return spectrum(t, cutoff).min_abs()


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


def curve_samples(t_values, k_max: int, window: tuple[float, float] | None = None):
    """Eigenvalue curves sampled on a coupling grid.

    Returns (t, family, k, p, sign, value) tuples for every family member
    of level <= k_max, keeping only values inside the window (default: no
    filter).  Branch rows carry the sign of the square root; plus/minus
    rows have p = None, sign = None.  Refused (ValueError) before any work
    past ``spectrum.MAX_SPECTRUM_SIZE`` rows.
    """
    k_max = _check_level(k_max)
    check_size(len(t_values) * triple_count(k_max), "curve rows")
    rows = []
    for t in t_values:
        t = _check_coupling(t)
        for k in range(k_max + 1):
            rows.append((t, "plus", k, None, None, 1.5 + t + k))
            rows.append((t, "minus", k, None, None, 1.5 - t + k))
            for p in range(k):
                root = np.sqrt(f0(k, p, t))
                rows.append((t, "branch", k, p, 1, 0.5 + root))
                rows.append((t, "branch", k, p, -1, 0.5 - root))
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        rows = [r for r in rows if lo <= r[5] <= hi]
    return rows
