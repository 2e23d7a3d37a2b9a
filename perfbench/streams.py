"""Seeded request streams for the three workloads.

A stream is a list of JSON-serialisable requests.  A ``cli`` request is an
argv list for ``magdirac.cli.main``; an ``identity`` request is a spec the
worker turns into ``oracle.identity_checks(data, potential, cutoff)``.
Each request carries a ``ref`` block: what the checker needs to recompute
the right answer without importing magdirac.

Request sizes follow a fixed ladder (the midpoints of equal-probability
strata of the size distribution) in seeded order, and request kinds cycle
in a fixed pattern along the ladder.  Everything else (lattices,
couplings, spin-c data, potentials, formats, order) is drawn from the
seed.  The work of a stream is therefore nearly the same for every seed,
so seeds change what is computed but not how much.  This module imports
numpy only.
"""

import math

import numpy as np

# Every stream holds at least 100 requests, so at least ten latency samples
# lie beyond the 90th percentile of a single pass.
STREAM_LENGTH = 100

WORKLOADS = {
    "torus-spectra": "torus requests on random lattices, n=1..4, mode counts "
                     "log-uniform 1e2..5e3: enumeration, per-mode work, merge "
                     "and JSON/CSV formatting",
    "sphere-spectra": "sphere spectra at generic and integer couplings plus "
                      "collisions, sphere-curve and bounds: the level loop and "
                      "merge clusters; no lattice or oracle code",
    "oracle-verify": "verify sphere-blocks, torus-modes, gauge and "
                     "identity_checks: many tiny solves and a few dense "
                     "assemblies and eigensolves up to dim 1250; no merge",
}


def _fmt(x) -> str:
    return repr(float(x))


def _floats(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _ladder(rng, count: int) -> np.ndarray:
    """The midpoints of ``count`` equal strata of [0, 1), in shuffled order."""
    return rng.permutation((np.arange(count) + 0.5) / count)


def _cycled(count: int, choices) -> list:
    """``count`` picks cycling through ``choices``."""
    return [choices[i % len(choices)] for i in range(count)]


def _log_uniform(u, lo: float, hi: float) -> np.ndarray:
    return np.exp(np.log(lo) + np.asarray(u) * (np.log(hi) - np.log(lo)))


def _by_size(sizes, labels):
    """Pair each size with a label so labels are balanced along the sizes."""
    order = np.argsort(sizes)
    paired = [None] * len(sizes)
    for rank, idx in enumerate(order):
        paired[idx] = labels[rank]
    return paired


def _well_conditioned_basis(rng, n: int) -> np.ndarray:
    """Generator rows of a random lattice with condition number < 20."""
    if n == 1:
        return np.array([[rng.uniform(0.5, 2.0)]])
    while True:
        rows = np.eye(n) + 0.4 * rng.uniform(-1.0, 1.0, size=(n, n))
        if abs(np.linalg.det(rows)) > 0.3 and np.linalg.cond(rows) < 20.0:
            return rows


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# torus-spectra

TORUS_MODES = (1e2, 5e3)


def _torus_request(rng, n: int, fmt: str, modes: float, zero: bool) -> dict:
    rows = _well_conditioned_basis(rng, n)
    delta = rng.integers(0, 2, size=n)
    theta = rng.uniform(0.0, 1.0, size=n)
    dual = np.linalg.inv(rows.T).T  # columns are the dual generators
    if zero:
        m0 = rng.integers(-2, 3, size=n)
        A = -4.0 * np.pi * (dual @ (m0 + (delta + theta) / 2.0))
    else:
        A = rng.normal(0.0, 3.0, size=n)
    # Weyl: modes ~ vol(B(r)) / covolume of the dual lattice, r = cutoff/2pi
    covol = abs(np.linalg.det(rows))
    radius = (modes / (_unit_ball_volume(n) * covol)) ** (1.0 / n)
    cutoff = 2.0 * np.pi * radius
    argv = [
        "torus",
        "--basis", "[" + ",".join("[" + _floats(r) + "]" for r in rows) + "]",
        "--delta", ",".join(str(int(d)) for d in delta),
        "--theta", _floats(theta),
        "--A", _floats(A),
        "--cutoff", _fmt(cutoff),
    ]
    if fmt == "csv":
        argv.append("--csv")
    return {"kind": "cli", "argv": argv, "ref": {"type": "torus", "format": fmt}}


def torus_stream(rng) -> list:
    count = STREAM_LENGTH
    modes = _log_uniform(_ladder(rng, count), *TORUS_MODES)
    kinds = _by_size(modes, _cycled(count, [(n, f) for n in (1, 2, 3, 4)
                                            for f in ("json", "csv")]))
    zeros = _by_size(modes, _cycled(count, [True, False, False, False, False]))
    reqs = [
        _torus_request(rng, *kinds[i], modes[i], zeros[i])
        for i in range(count)
    ]
    # JSON and CSV requests alternate in the stream order
    by_fmt = {f: [r for r in reqs if r["ref"]["format"] == f] for f in ("json", "csv")}
    out = []
    for pair in zip(by_fmt["json"], by_fmt["csv"]):
        out.extend(pair)
    return out


# ---------------------------------------------------------------------------
# sphere-spectra

SPHERE_CUTOFF = (5.0, 50.0)
SPECIAL_COUPLINGS = [x / 2.0 for x in range(-12, 13)]  # integers, half-integers


def sphere_stream(rng) -> list:
    reqs = []
    n_sphere, n_coll, n_curve, n_bounds = 70, 14, 10, 6

    cutoffs = _log_uniform(_ladder(rng, n_sphere), *SPHERE_CUTOFF)
    special = _by_size(cutoffs, _cycled(n_sphere, [True, False]))
    fmts = _by_size(cutoffs, _cycled(n_sphere, ["text", "csv", "json"]))
    specials = rng.choice(SPECIAL_COUPLINGS, size=n_sphere)
    specials[0] = 0.0
    for i in range(n_sphere):
        t = float(specials[i]) if special[i] else float(rng.uniform(-6.0, 6.0))
        argv = ["sphere", "--t", _fmt(t), "--cutoff", _fmt(cutoffs[i])]
        if fmts[i] != "text":
            argv.append("--" + fmts[i])
        reqs.append({"kind": "cli", "argv": argv,
                     "ref": {"type": "sphere", "format": fmts[i]}})

    k_coll = 4 + np.floor(_ladder(rng, n_coll) * 11).astype(int)
    for i, k in enumerate(k_coll):
        argv = ["collisions", "--k-max", str(int(k))]
        if i % 2 == 0:
            argv.append("--json")
        reqs.append({"kind": "cli", "argv": argv, "ref": {"type": "collisions"}})

    k_curve = 2 + np.floor(_ladder(rng, n_curve) * 9).astype(int)
    curve_steps = _by_size(k_curve, _cycled(n_curve, [21, 41, 61, 81, 101]))
    for i, (k, steps) in enumerate(zip(k_curve, curve_steps)):
        lo = -rng.uniform(2.0, 6.0)
        argv = ["sphere-curve", "--t-range",
                f"{_fmt(lo)}:{_fmt(lo + rng.uniform(4.0, 10.0))}:{steps}",
                "--k-max", str(int(k))]
        if i % 2 == 0:
            argv += ["--window", f"{_fmt(-rng.uniform(3, 8))}:{_fmt(rng.uniform(3, 8))}"]
        else:
            argv += ["--window", "none"]
        reqs.append({"kind": "cli", "argv": argv, "ref": {"type": "sphere-curve"}})

    for _ in range(n_bounds):
        argv = ["bounds", "--model", "sphere", "--t", _fmt(rng.uniform(-6.0, 6.0))]
        reqs.append({"kind": "cli", "argv": argv, "ref": {"type": "bounds"}})

    return [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# oracle-verify

# (n, cutoff windows) of the dense gauge checks, smallest to largest; the
# largest 2D window has operator dimension 2 * 25^2 = 1250.
# Every window starts above oracle.JACOBI_MAX_DIM (64), so the dense checks
# run LAPACK only.
GAUGE_WINDOWS = [
    (2, (3, 5, 7)), (3, (2, 3)), (2, (3, 6, 9)), (2, (4, 7, 10)),
    (2, (4, 8, 12)),
]
GAUGE_PLAN = [0, 0, 0, 1, 1, 2, 2, 3, 4]
IDENTITY_PLAN = [(2, 4), (2, 5), (2, 6), (2, 6), (2, 7), (2, 8), (3, 3)]


def _gauge_request(rng, n: int, cutoffs) -> dict:
    rows = _well_conditioned_basis(rng, n)
    # a 3D window reaches only cutoff 3, so its potential is weaker
    amp = 0.15 if n == 2 else 0.015
    terms = []
    seen = set()
    for _ in range(int(rng.integers(1, 3))):
        nu = tuple(int(c) for c in rng.integers(-1, 2, size=n))
        if not any(nu) or nu in seen or tuple(-c for c in nu) in seen:
            continue
        seen.add(nu)
        terms.append([list(nu), float(rng.uniform(-amp, amp)),
                      float(rng.uniform(-amp, amp))])
    if not terms:
        terms.append([[1] + [0] * (n - 1), amp / 2, amp / 3])
    argv = [
        "verify", "gauge",
        "--basis", "[" + ",".join("[" + _floats(r) + "]" for r in rows) + "]",
        "--delta", ",".join(str(int(d)) for d in ([1] + [0] * (n - 1))),
        "--f-terms", repr(terms).replace("'", '"'),
        "--cutoffs", ",".join(str(c) for c in cutoffs),
    ]
    return {"kind": "cli", "argv": argv, "ref": {"type": "verify"}}


def _identity_request(rng, n: int, cutoff: int) -> dict:
    rows = _well_conditioned_basis(rng, n)
    terms = []
    seen = set()
    for _ in range(int(rng.integers(1, 3))):
        nu = tuple(int(c) for c in rng.integers(-1, 2, size=n))
        if not any(nu):
            nu = (1,) + nu[1:]
        if nu in seen or tuple(-c for c in nu) in seen:
            continue
        seen.add(nu)
        coeff = rng.uniform(-0.5, 0.5, size=(2, n))
        terms.append([list(nu), coeff[0].tolist(), coeff[1].tolist()])
    spec = {
        "basis": rows.tolist(),
        "delta": rng.integers(0, 2, size=n).tolist(),
        "theta": rng.uniform(0.0, 1.0, size=n).tolist(),
        "A": rng.normal(0.0, 2.0, size=n).tolist(),
        "terms": terms,
        "cutoff": int(cutoff),
    }
    return {"kind": "identity", "spec": spec, "ref": {"type": "verify"}}


def oracle_stream(rng) -> list:
    reqs = []
    n_blocks, n_modes = 44, 40

    k_blocks = 10 + np.floor(_ladder(rng, n_blocks) * 21).astype(int)
    grid_points = _by_size(k_blocks, _cycled(n_blocks, [2, 3, 4, 5, 6]))
    for k, pts in zip(k_blocks, grid_points):
        lo = -rng.uniform(1.0, 4.0)
        hi = rng.uniform(1.0, 4.0)
        argv = ["verify", "sphere-blocks", "--k-max", str(int(k)),
                "--t-grid", f"{_fmt(lo)}:{_fmt(hi)}:{pts}"]
        reqs.append({"kind": "cli", "argv": argv, "ref": {"type": "verify"}})

    dims = _cycled(n_modes, [2, 3, 4, 5, 6])
    for n in dims:
        samples = 20 if n < 6 else 8
        argv = ["verify", "torus-modes", "--n", str(n), "--samples", str(samples),
                "--seed", str(int(rng.integers(0, 2**31)))]
        reqs.append({"kind": "cli", "argv": argv, "ref": {"type": "verify"}})

    for w in GAUGE_PLAN:
        n, cutoffs = GAUGE_WINDOWS[w]
        reqs.append(_gauge_request(rng, n, cutoffs))
    for n, cutoff in IDENTITY_PLAN:
        reqs.append(_identity_request(rng, n, cutoff))

    return [reqs[i] for i in rng.permutation(len(reqs))]


_BUILDERS = {
    "torus-spectra": torus_stream,
    "sphere-spectra": sphere_stream,
    "oracle-verify": oracle_stream,
}


def build(workload: str, seed: int) -> list:
    """The request stream of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(sorted(_BUILDERS))}")
    rng = np.random.default_rng([int(seed), sorted(_BUILDERS).index(workload)])
    return _BUILDERS[workload](rng)


def warmup(workload: str) -> list:
    """Small fixed requests that touch every code path of ``workload``.

    They run in the set-up phase, so one-off costs (imports inside the
    program, first LAPACK call) land in ``setup_s`` rather than in the
    first timed request.
    """
    rng = np.random.default_rng(0)
    if workload == "torus-spectra":
        return [_torus_request(rng, n, fmt, 30.0, n == 2)
                for n, fmt in ((1, "json"), (2, "csv"), (3, "json"), (4, "csv"))]
    if workload == "sphere-spectra":
        return [
            {"kind": "cli", "argv": ["sphere", "--t", "0.0", "--cutoff", "6"]},
            {"kind": "cli", "argv": ["sphere", "--t", "0.3", "--cutoff", "6", "--csv"]},
            {"kind": "cli", "argv": ["sphere", "--t", "1.0", "--cutoff", "6", "--json"]},
            {"kind": "cli", "argv": ["collisions", "--k-max", "3", "--json"]},
            {"kind": "cli", "argv": ["sphere-curve", "--k-max", "2", "--t-range", "-1:1:5"]},
            {"kind": "cli", "argv": ["bounds", "--model", "sphere", "--t", "0.5"]},
        ]
    if workload == "oracle-verify":
        return [
            {"kind": "cli", "argv": ["verify", "sphere-blocks", "--k-max", "3",
                                     "--t-grid", "-1:1:3"]},
            {"kind": "cli", "argv": ["verify", "torus-modes", "--n", "4",
                                     "--samples", "3"]},
            _gauge_request(rng, 2, (3, 5, 7)),
            _identity_request(rng, 2, 4),
        ]
    raise ValueError(f"unknown workload {workload!r}")
