"""Reference answers and output checks, computed without magdirac.

* sphere: the three family formulas 3/2 + t + k, 3/2 - t + k and
  1/2 +- sqrt(f0(k, p, t)), each of multiplicity k + 1;
* torus: brute-force enumeration of a coordinate box around the cutoff
  ball, values +-2 pi |theta'(m)| (signed 2 pi theta'(m) when n = 1);
* collisions, sphere-curve, bounds: the same closed forms, row by row;
* verify and identity_checks: exit code 0 and ``"pass": true``.

Values are merged exactly as documented for ``Spectrum``: sorted values
whose consecutive gaps are <= the merge tolerance form one entry.  A
checked value must lie within that tolerance of the reference value, and
multiplicities and labels must agree exactly.
"""

import json
import math

import numpy as np

MERGE_TOL = 1e-9  # documented default; the run leaves MAGDIRAC_TOLERANCE unset
EDGE = 1e-12  # the program keeps |value| <= cutoff + 1e-12
ZERO_MODE_TOL = 1e-10
REL_TOL = 1e-9  # for single closed-form values such as collision couplings


class Mismatch(Exception):
    """Output disagrees with the reference."""


def _opts(argv) -> dict:
    out = {}
    i = 0
    while i < len(argv):
        if argv[i].startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                out[argv[i][2:]] = argv[i + 1]
                i += 2
                continue
            out[argv[i][2:]] = True
        i += 1
    return out


def _floats(text) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")], dtype=np.float64)


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# merging


def merge(values, mults, labels):
    """Chain-merge (value, multiplicity, label) triples.

    Returns (values, multiplicities, sorted label lists) per entry.
    """
    values = np.asarray(values, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    v, m = values[order], mults[order]
    if v.size == 0:
        return v, m, []
    starts = np.concatenate(([0], np.nonzero(np.diff(v) > MERGE_TOL)[0] + 1))
    mult = np.add.reduceat(m, starts)
    value = np.add.reduceat(v * m, starts) / mult
    ends = np.append(starts[1:], v.size)
    groups = [sorted(labels[j] for j in order[s:e]) for s, e in zip(starts, ends)]
    return value, mult, groups


def _compare(got, ref, what):
    gv, gm, gl = got
    rv, rm, rl = ref
    if len(gv) != len(rv):
        raise Mismatch(f"{what}: {len(gv)} entries, reference has {len(rv)}")
    if len(gv) == 0:
        return
    gv = np.asarray(gv, dtype=np.float64)
    if not np.array_equal(np.asarray(gm), rm):
        i = int(np.nonzero(np.asarray(gm) != rm)[0][0])
        raise Mismatch(f"{what}: multiplicity {gm[i]} at {gv[i]!r}, reference {rm[i]}")
    worst = float(np.max(np.abs(gv - rv)))
    if worst > MERGE_TOL:
        raise Mismatch(f"{what}: value off by {worst:.3e} > {MERGE_TOL}")
    if gl is not None:
        for i, (a, b) in enumerate(zip(gl, rl)):
            if sorted(a) != b:
                raise Mismatch(f"{what}: labels at {gv[i]!r} differ")


# ---------------------------------------------------------------------------
# sphere


def sphere_triples(t: float, cutoff: float):
    """All family members with |value| <= cutoff, as (values, mults, labels)."""
    edge = cutoff + EDGE
    # plus/minus need k <= cutoff + |t|; branch values satisfy
    # |1/2 -+ sqrt(f0)| >= 2 sqrt(k) - 1/2 since f0 >= 4k for 0 <= p < k
    k_top = int(max(cutoff + abs(t), (cutoff + 0.5) ** 2 / 4.0)) + 2
    k = np.arange(k_top + 1)
    vals, mults, labels = [], [], []
    for fam, v in (("plus", 1.5 + t + k), ("minus", 1.5 - t + k)):
        keep = np.abs(v) <= edge
        vals.append(v[keep])
        mults.append(k[keep] + 1)
        labels += [(fam, int(kk), None, None) for kk in k[keep]]
    kk, pp = np.nonzero(np.tri(k_top + 1, k_top + 1, -1, dtype=bool))
    f0 = (1.0 + t + 2 * pp - kk) ** 2 + 4.0 * (kk - pp) * (pp + 1)
    root = np.sqrt(f0)
    for sign in (1, -1):
        v = 0.5 + sign * root
        keep = np.abs(v) <= edge
        vals.append(v[keep])
        mults.append(kk[keep] + 1)
        labels += [("branch", int(a), int(b), sign) for a, b in zip(kk[keep], pp[keep])]
    return np.concatenate(vals), np.concatenate(mults), labels


def _sphere_label(text):
    parts = dict(p.split("=") for p in text.split(":")[1:])
    fam = text.split(":")[0]
    if fam == "branch":
        return (fam, int(parts["k"]), int(parts["p"]), int(parts["s"]))
    return (fam, int(parts["k"]), None, None)


def check_sphere(argv, text):
    o = _opts(argv)
    t = float(o["t"])
    cutoff = float(o["cutoff"])
    ref = merge(*sphere_triples(t, cutoff))
    if "json" in o:
        doc = json.loads(text)
        ev = doc["eigenvalues"]
        got = ([e["value"] for e in ev], [e["multiplicity"] for e in ev],
               [[tuple(x) for x in e["labels"]] for e in ev])
    elif "csv" in o:
        rows = text.strip().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        got = ([float(c[0]) for c in cells], [int(c[1]) for c in cells],
               [[_sphere_label(x) for x in c[2].split(";")] for c in cells])
    else:
        rows = [r.split() for r in text.strip().splitlines()[2:]]
        got = ([float(r[0]) for r in rows], [int(r[1]) for r in rows], None)
    _compare(got, ref, f"sphere t={t} cutoff={cutoff}")


def check_collisions(argv, text):
    o = _opts(argv)
    k_max = int(o["k-max"])
    curves = [(k, p) for k in range(k_max + 1) for p in range(k)]
    ref = []
    for i, (k, p) in enumerate(curves):
        for k2, p2 in curves[i + 1:]:
            a, b = 1 + 2 * p - k, 1 + 2 * p2 - k2
            if a == b:
                continue
            # (t + a)^2 + 4(k - p)(p + 1) = (t + b)^2 + 4(k2 - p2)(p2 + 1)
            rhs = 4 * ((k2 - p2) * (p2 + 1) - (k - p) * (p + 1)) - a * a + b * b
            t = rhs / (2.0 * (a - b))
            ref.append((k, p, k2, p2, t, (t + a) ** 2 + 4.0 * (k - p) * (p + 1)))
    if "json" in o:
        got = [(r["k"], r["p"], r["k2"], r["p2"], r["t"], r["f0"])
               for r in json.loads(text)["collisions"]]
    else:
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        got = [tuple(int(x) for x in r[:4]) + (float(r[4]), float(r[5])) for r in rows]
    if len(got) != len(ref):
        raise Mismatch(f"collisions k_max={k_max}: {len(got)} rows, reference {len(ref)}")
    for g, r in zip(got, ref):
        if g[:4] != r[:4] or not _close(g[4], r[4]) or not _close(g[5], r[5]):
            raise Mismatch(f"collisions: row {g} differs from reference {r}")


def check_sphere_curve(argv, text):
    o = _opts(argv)
    start, stop, steps = o["t-range"].split(":")
    k_max = int(o["k-max"])
    window = None if o["window"] == "none" else [float(x) for x in o["window"].split(":")]
    ref = []
    for t in np.linspace(float(start), float(stop), int(steps)):
        t = float(t)
        for k in range(k_max + 1):
            ref.append((t, "plus", k, "", "", 1.5 + t + k))
            ref.append((t, "minus", k, "", "", 1.5 - t + k))
            for p in range(k):
                root = math.sqrt((1.0 + t + 2 * p - k) ** 2 + 4.0 * (k - p) * (p + 1))
                ref.append((t, "branch", k, str(p), "1", 0.5 + root))
                ref.append((t, "branch", k, str(p), "-1", 0.5 - root))
    if window is not None:
        ref = [r for r in ref if window[0] <= r[5] <= window[1]]
    rows = [r.split(",") for r in text.strip().splitlines()[1:]]
    if len(rows) != len(ref):
        raise Mismatch(f"sphere-curve: {len(rows)} rows, reference {len(ref)}")
    for g, r in zip(rows, ref):
        if (g[1], int(g[2]), g[3], g[4]) != r[1:5] or not (
            _close(float(g[0]), r[0]) and _close(float(g[5]), r[5])
        ):
            raise Mismatch(f"sphere-curve: row {g} differs from reference {r}")


def check_bounds(argv, text):
    t = float(_opts(argv)["t"])
    v, _, _ = sphere_triples(t, 5.0 + abs(t))
    lam1 = float(np.min(np.abs(v)))
    expect = {
        "friedrich": lam1 ** 2,
        "hijazi": lam1,
        "basic": 0.5 + math.sqrt(t * t + 4.0),
        "diamagnetic": lam1 ** 2,
    }
    doc = json.loads(text)
    names = [rep["name"] for rep in doc["bounds"]]
    if doc["model"] != "sphere" or names != list(expect):
        raise Mismatch(f"bounds t={t}: reports {names} for model {doc['model']!r}")
    for rep, (name, value) in zip(doc["bounds"], expect.items()):
        if not rep["satisfied"] or not _close(rep["reference"], value):
            raise Mismatch(f"bounds t={t}: {name} report {rep} vs reference {value}")


# ---------------------------------------------------------------------------
# torus


def torus_triples(rows, delta, theta, A, cutoff):
    """Brute-force reference: every mode of the box around the cutoff ball."""
    basis = np.asarray(rows, dtype=np.float64).T  # generator columns
    n = basis.shape[0]
    dual = np.linalg.inv(basis).T
    shift = dual @ ((np.asarray(delta) + np.asarray(theta)) / 2.0) + np.asarray(A) / (4 * np.pi)
    radius = cutoff / (2 * np.pi)
    # theta'(m) = dual @ m + shift, so m = basis.T @ x - basis.T @ shift, |x| <= radius
    inv = basis.T
    centre = -inv @ shift
    reach = radius * np.linalg.norm(inv, axis=1) + 1e-6
    axes = [np.arange(math.floor(c - r), math.ceil(c + r) + 1)
            for c, r in zip(centre, reach)]
    modes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    tp = modes @ dual.T + shift
    if n == 1:
        values = 2 * np.pi * tp[:, 0]
        keep = np.abs(values) <= cutoff + EDGE
        return values[keep], np.ones(int(keep.sum()), np.int64), [
            (int(m[0]),) for m in modes[keep]]
    r = np.linalg.norm(tp, axis=1)
    N = 2 ** (n // 2)
    zero = r <= ZERO_MODE_TOL
    vals, mults, labels = [], [], []
    for sign in (-1.0, 1.0):
        v = sign * 2 * np.pi * r
        keep = (~zero) & (np.abs(v) <= cutoff + EDGE)
        vals.append(v[keep])
        mults.append(np.full(int(keep.sum()), N // 2))
        labels += [tuple(int(c) for c in m) for m in modes[keep]]
    vals.append(np.zeros(int(zero.sum())))
    mults.append(np.full(int(zero.sum()), N))
    labels += [tuple(int(c) for c in m) for m in modes[zero]]
    return np.concatenate(vals), np.concatenate(mults), labels


def _torus_zero_mode(rows, delta, theta, A):
    basis = np.asarray(rows, dtype=np.float64).T
    dual = np.linalg.inv(basis).T
    shift = dual @ ((np.asarray(delta) + np.asarray(theta)) / 2.0) + np.asarray(A) / (4 * np.pi)
    m = np.rint(-basis.T @ shift)
    return [int(c) for c in m] if np.linalg.norm(dual @ m + shift) <= ZERO_MODE_TOL else None


def check_torus(argv, text):
    o = _opts(argv)
    rows = json.loads(o["basis"])
    delta = [int(x) for x in o["delta"].split(",")]
    theta, A, cutoff = _floats(o["theta"]), _floats(o["A"]), float(o["cutoff"])
    ref = merge(*torus_triples(rows, delta, theta, A, cutoff))
    if "csv" in o:
        cells = [r.split(",") for r in text.strip().splitlines()[1:]]
        got = ([float(c[0]) for c in cells], [int(c[1]) for c in cells],
               [[tuple(int(x) for x in m.split()) for m in c[2].split(";")]
                for c in cells])
    else:
        doc = json.loads(text)
        ev = doc["eigenvalues"]
        got = ([e["value"] for e in ev], [e["multiplicity"] for e in ev],
               [[tuple(m) for m in e["modes"]] for e in ev])
        zm = _torus_zero_mode(rows, delta, theta, A)
        if doc["zero_mode"] != zm:
            raise Mismatch(f"torus: zero_mode {doc['zero_mode']} vs reference {zm}")
    _compare(got, ref, f"torus n={len(rows)} cutoff={cutoff}")


# ---------------------------------------------------------------------------


def check_verify(text):
    if json.loads(text).get("pass") is not True:
        raise Mismatch(f"oracle report does not pass: {text[:300]}")


_CHECKS = {
    "sphere": check_sphere,
    "collisions": check_collisions,
    "sphere-curve": check_sphere_curve,
    "bounds": check_bounds,
    "torus": check_torus,
}


def check(request, rc, output: bytes, error):
    """Raise Mismatch unless the request's output is right."""
    if error is not None:
        raise Mismatch(f"raised: {error.strip().splitlines()[-1]}")
    if rc != 0:
        raise Mismatch(f"exit code {rc}")
    text = output.decode()
    kind = request["ref"]["type"]
    if kind == "verify":
        check_verify(text)
    else:
        _CHECKS[kind](request["argv"], text)
