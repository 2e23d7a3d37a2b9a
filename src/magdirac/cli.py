"""Command-line interface.

Subcommands:

* ``sphere``       -- exact 3-sphere spectrum at one coupling;
* ``sphere-curve`` -- eigenvalue curves on a coupling grid (CSV);
* ``collisions``   -- couplings where branch curves cross;
* ``torus``        -- exact flat-torus spectrum for given spin-c data;
* ``bounds``       -- evaluate eigenvalue bounds against the exact spectrum;
* ``verify``       -- run the matrix-oracle cross-checks.

Exit codes: 0 on success, 1 on invalid input, 2 when an oracle
cross-check reports a mismatch.  Floating-point output uses shortest
round-trip decimal form.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import bounds as bounds_mod
from . import oracle, sphere, torus
from .lattice import Lattice
from .spectrum import check_size


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2.

    Tokens that start with a minus and a digit (grids like ``-4:4:17``,
    comma lists like ``-0.3,0.1``) count as values, not option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    return repr(float(x))


def _json_default(obj):
    """numpy values json cannot encode itself (np.float64 is a float)."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _print_json(payload):
    print(json.dumps(payload, indent=2, default=_json_default))


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:steps' into a uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:steps, got {text!r}")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    return np.linspace(start, stop, steps)


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip() != ""]


def _parse_basis(text: str) -> Lattice:
    rows = json.loads(text)
    return Lattice.from_rows(np.array(rows, dtype=np.float64))


def _parse_f_terms(text: str):
    """JSON list of [frequency-list, re, im] triples."""
    raw = json.loads(text)
    terms = []
    for item in raw:
        if len(item) != 3:
            raise ValueError(
                f"each f-term must be [freq-list, re, im], got {item!r}"
            )
        freq, re, im = item
        terms.append((tuple(int(c) for c in freq), complex(float(re), float(im))))
    return terms


def _spinc_from_args(ns) -> torus.SpinCData:
    lat = _parse_basis(ns.basis)
    n = lat.n
    delta = _parse_ints(ns.delta) if ns.delta else [0] * n
    theta = _parse_floats(ns.theta) if ns.theta else [0.0] * n
    if ns.flux is not None and ns.A is not None:
        raise ValueError("give either --A or --flux, not both")
    if ns.flux is not None:
        A = torus.potential_from_fluxes(lat, _parse_floats(ns.flux))
    elif ns.A is not None:
        A = np.array(_parse_floats(ns.A), dtype=np.float64)
    else:
        A = np.zeros(n)
    return torus.SpinCData(lat, delta, theta, A)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sphere(ns) -> int:
    t = float(ns.t)
    cutoff = float(ns.cutoff) if ns.cutoff is not None else 5.0 + abs(t)
    spec = sphere.spectrum(t, cutoff)
    if ns.json:
        _print_json({"t": t, "cutoff": cutoff, "eigenvalues": [
            {"value": e.value, "multiplicity": e.multiplicity,
             "labels": [list(lbl) for lbl in e.labels]}
            for e in spec
        ]})
    elif ns.csv:
        print("value,multiplicity,labels")
        for e in spec:
            lbls = ";".join(
                f"{fam}:k={k}" + ("" if p is None else f":p={p}:s={s:+d}")
                for fam, k, p, s in e.labels
            )
            print(f"{_fmt(e.value)},{e.multiplicity},{lbls}")
    else:
        print(f"# spectrum at t = {_fmt(t)}, |value| <= {_fmt(cutoff)}")
        print(f"{'value':>24}  {'mult':>5}  families")
        for e in spec:
            lbls = " ".join(
                f"{fam}(k={k}" + ("" if p is None else f",p={p},{s:+d}") + ")"
                for fam, k, p, s in e.labels
            )
            print(f"{_fmt(e.value):>24}  {e.multiplicity:>5}  {lbls}")
    return 0


def cmd_sphere_curve(ns) -> int:
    t_values = _parse_grid(ns.t_range)
    window = None
    if ns.window is not None and ns.window.lower() != "none":
        lo, hi = (float(p) for p in ns.window.split(":"))
        window = (lo, hi)
    rows = sphere.curve_samples(t_values, ns.k_max, window=window)
    print("t,family,k,p,sign,value")
    for t, fam, k, p, s, v in rows:
        p_str = "" if p is None else str(p)
        s_str = "" if s is None else str(s)
        print(f"{_fmt(t)},{fam},{k},{p_str},{s_str},{_fmt(v)}")
    return 0


def cmd_collisions(ns) -> int:
    k_max = int(ns.k_max)
    curves = max(k_max, 0) * (k_max + 1) / 2
    check_size(curves * (curves - 1) / 2, "curve pairs")
    ks, ps = np.tril_indices(max(k_max + 1, 0), -1)  # curves (k, p), 0 <= p < k
    i, j = np.triu_indices(len(ks), 1)
    keep = 2 * (ps[i] - ps[j]) != ks[i] - ks[j]
    cols = [ks[i[keep]], ps[i[keep]], ks[j[keep]], ps[j[keep]]]
    cols.append(sphere.collision_t(*cols))
    rows = [{"k": k, "p": p, "k2": k2, "p2": p2, "t": t, "f0": sphere.f0(k, p, t)}
            for k, p, k2, p2, t in zip(*(c.tolist() for c in cols))]
    if ns.json:
        _print_json({"k_max": k_max, "collisions": rows})
    else:
        print("k,p,k2,p2,t,f0")
        for r in rows:
            print(
                f"{r['k']},{r['p']},{r['k2']},{r['p2']},"
                f"{_fmt(r['t'])},{_fmt(r['f0'])}"
            )
    return 0


def cmd_torus(ns) -> int:
    data = _spinc_from_args(ns)
    spec = torus.spectrum(data, float(ns.cutoff))
    if ns.csv:
        print("value,multiplicity,modes")
        for e in spec:
            modes = ";".join(" ".join(str(c) for c in m) for m in e.labels)
            print(f"{_fmt(e.value)},{e.multiplicity},{modes}")
        return 0
    zm = torus.zero_mode(data)
    _print_json({
        "eigenvalues": [
            {"value": e.value, "multiplicity": e.multiplicity,
             "modes": [list(m) for m in e.labels]}
            for e in spec
        ],
        "zero_mode": None if zm is None else [int(c) for c in zm],
    })
    return 0


def _sphere_diamagnetic(data, t):
    """Diamagnetic upper bound on S^3: the smaller of the two Sasakian sectors."""
    ups = [bounds_mod.diamagnetic_upper(*bounds_mod.sasaki_q(1, 0.0, s), data.eta_Linf, t)
           for s in ("top", "bottom")]
    return min(ups, key=lambda b: b.value)


# bound name -> evaluator (GeometricData, t) -> BoundValue on the round S^3
_SPHERE_BOUNDS = {"friedrich": bounds_mod.friedrich, "hijazi": bounds_mod.hijazi,
                  "basic": bounds_mod.basic, "diamagnetic": _sphere_diamagnetic}


def cmd_bounds(ns) -> int:
    t = float(ns.t)
    which = [w.strip() for w in ns.which.split(",") if w.strip()]
    for w in which:
        if w not in _SPHERE_BOUNDS:
            raise ValueError(f"unknown bound {w!r}; choose from {', '.join(_SPHERE_BOUNDS)}")

    if ns.model == "sphere":
        data = bounds_mod.sphere3_data()
        lam1 = sphere.lambda1(t)
        # the exact quantity each bound form is compared against (see compare)
        reference = {"squared": lam1**2, "upper_squared": lam1**2, "absolute": lam1,
                     "first_positive": sphere.lambda1_basic(t)}
        reports = [bounds_mod.compare(b, reference[b.form])
                   for b in (_SPHERE_BOUNDS[w](data, t) for w in which)]
        payload = {"model": "sphere", "t": t, "bounds": [vars(r) for r in reports]}
    elif ns.model == "torus":
        data_sc = _spinc_from_args(ns)
        spec = torus.spectrum(data_sc, float(ns.cutoff))
        lam1 = spec.min_abs()
        geo = bounds_mod.torus_data(data_sc.lattice.basis, data_sc.A / 2.0)
        entries = []
        for w in which:
            if w == "friedrich":
                bv = bounds_mod.friedrich(geo, 1.0)
                if bv.vacuous:
                    entries.append({"name": "friedrich", "applicable": False,
                                    "reason": bv.reason})
                else:
                    entries.append(vars(bounds_mod.compare(bv, lam1**2)))
            else:
                reasons = {
                    "hijazi": "flat tori have Yamabe invariant 0, so the "
                              "bound is nonpositive and carries no information",
                    "basic": "flat translations have vanishing O'Neill "
                             "tensor; the basic bound degenerates to |t|",
                    "diamagnetic": "needs a quasi-Killing eigenspinor of the "
                                   "plain operator, available on Sasakian "
                                   "geometries, not on flat tori",
                }
                entries.append({"name": w, "applicable": False,
                                "reason": reasons[w]})
        payload = {"model": "torus", "bounds": entries}
    else:
        raise ValueError(f"unknown model {ns.model!r}")

    _print_json(payload)
    return 0


def cmd_verify(ns) -> int:
    if ns.target == "sphere-blocks":
        report = oracle.verify_sphere_blocks(
            k_max=int(ns.k_max), t_values=_parse_grid(ns.t_grid)
        )
    elif ns.target == "torus-modes":
        report = oracle.verify_torus_modes(
            n=int(ns.n), samples=int(ns.samples), seed=int(ns.seed)
        )
    elif ns.target == "gauge":
        lat = _parse_basis(ns.basis)
        delta = _parse_ints(ns.delta) if ns.delta else [1] + [0] * (lat.n - 1)
        data = torus.SpinCData(lat, delta, [0.0] * lat.n, np.zeros(lat.n))
        report = oracle.verify_gauge(
            data, _parse_f_terms(ns.f_terms),
            cutoffs=tuple(_parse_ints(ns.cutoffs)),
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown verify target {ns.target!r}")
    _print_json(report)
    return 0 if report["pass"] else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="magdirac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("sphere", help="exact 3-sphere spectrum at coupling t")
    p.add_argument("--t", required=True, type=float, help="coupling strength")
    p.add_argument("--cutoff", type=float, default=None,
                   help="keep |value| <= cutoff (default 5 + |t|)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("sphere-curve",
                       help="eigenvalue curves on a coupling grid (CSV)")
    p.add_argument("--t-range", default="-5:5:201",
                   help="grid start:stop:steps (default -5:5:201)")
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--window", default="-5:5",
                   help="keep lo <= value <= hi, or 'none'")
    p.set_defaults(func=cmd_sphere_curve)

    p = sub.add_parser("collisions",
                       help="couplings where two branch curves cross")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_collisions)

    p = sub.add_parser("torus", help="exact flat-torus spectrum")
    p.add_argument("--basis", required=True,
                   help="JSON matrix whose rows generate the lattice")
    p.add_argument("--delta", default=None, help="spin structure bits, e.g. 1,0")
    p.add_argument("--theta", default=None, help="holonomy parameters in [0,1)")
    p.add_argument("--A", default=None, help="harmonic potential covector")
    p.add_argument("--flux", default=None,
                   help="holonomies of A over the generators (alternative to --A)")
    p.add_argument("--cutoff", required=True, type=float)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("bounds", help="evaluate eigenvalue bounds")
    p.add_argument("--model", choices=("sphere", "torus"), required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--which", default="friedrich,hijazi,basic,diamagnetic")
    p.add_argument("--basis", default="[[1]]",
                   help="torus model: lattice rows (JSON)")
    p.add_argument("--delta", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--A", default=None)
    p.add_argument("--flux", default=None)
    p.add_argument("--cutoff", type=float, default=20.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="matrix-oracle cross-checks")
    vsub = p.add_subparsers(dest="target", required=True, parser_class=_Parser)

    v = vsub.add_parser("sphere-blocks")
    v.add_argument("--k-max", type=int, default=30)
    v.add_argument("--t-grid", default="-4:4:17")
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("torus-modes")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--seed", type=int, default=7)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("gauge")
    v.add_argument("--basis", required=True,
                   help="JSON matrix whose rows generate the lattice")
    v.add_argument("--delta", default=None)
    v.add_argument("--f-terms", required=True,
                   help="JSON list of [freq-list, re, im] for f")
    v.add_argument("--cutoffs", default="4,8,12")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (ValueError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
