"""Command-line interface.

Subcommands:

* ``sphere``       -- exact 3-sphere spectrum at one coupling;
* ``sphere-curve`` -- eigenvalue curves on a coupling grid (CSV);
* ``collisions``   -- couplings where branch curves cross;
* ``torus``        -- exact flat-torus spectrum for given spin-c data;
* ``bounds``       -- evaluate eigenvalue bounds against the exact spectrum;
* ``verify``       -- run the matrix-oracle cross-checks.

Exit codes: 0 on success; 1 on invalid input, including a ``verify``
request that would check nothing, or when the reader closes stdout early;
2 when an oracle cross-check reports a mismatch.  Floating-point output
uses shortest round-trip decimal form.
"""

import argparse
import json
import os
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


# The eigenvalue lists of `sphere` and `torus` are written from the
# spectrum's arrays with fixed templates, in the layout json.dumps(indent=2)
# gives; floats are float.__repr__, as json prints them.


def _json_list(items: list, indent: str) -> str:
    """A list in json.dumps(indent=2) layout; ``items`` are rendered one
    level deeper than ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_row(cells: list, indent: str) -> str:
    """Template of a flat list that is an item at ``indent``: one cell
    template per element."""
    return indent + _json_list([indent + "  " + c for c in cells], indent)


def _json_entry(key: str) -> str:
    """Template of one eigenvalue object: value, multiplicity, member list."""
    return ('    {\n      "value": %s,\n      "multiplicity": %d,\n      "'
            + key + '": [\n%s\n      ]\n    }')


def _value_strings(values: np.ndarray) -> list:
    """repr of each of the ascending ``values``.  A negative value that is
    exactly minus its mirror ``values[-1 - i]`` takes the mirror's string
    behind a "-", since repr(-x) == "-" + repr(x) for every finite x > 0."""
    mirrored = (values < 0.0) & (values == -values[::-1])
    out = np.empty(len(values), dtype=object)
    out[~mirrored] = list(map(repr, values[~mirrored].tolist()))
    out[mirrored] = list(map("-".__add__, out[::-1][mirrored]))
    return out.tolist()


def _entry_lines(spec, template: str, members: list, sep: str) -> list:
    """``template % (value string, multiplicity, its members joined by sep)``
    per entry; ``members`` holds one rendered string per label in merged
    order."""
    if len(members) == len(spec):  # one member per entry: no joins
        groups = members
    else:
        bounds = spec.members()[1].tolist()
        groups = [sep.join(members[a:b]) for a, b in zip(bounds, bounds[1:])]
    return list(map(template.__mod__, zip(_value_strings(spec.values()),
                                          spec.multiplicities().tolist(), groups)))


def _cells(template: str, columns) -> list:
    """``template % row`` per row of the equal-length ``columns`` (lists,
    arrays or one (width, rows) array), all rows in one % call; neither the
    template nor a str cell may contain NUL."""
    rows, width = len(columns[0]), len(columns)
    if isinstance(columns, np.ndarray):  # its transpose is the cells row by row
        flat = columns.T.ravel().tolist()
    else:
        flat = [None] * (rows * width)
        for j, column in enumerate(columns):
            flat[j::width] = column.tolist() if isinstance(column, np.ndarray) else column
    return ((template + "\0") * rows % tuple(flat)).split("\0")[:-1]


def _sphere_members(labels, end: str, branch: str) -> list:
    """Each (family, k, p, sign) row of ``labels`` rendered by the end
    template (family name, k) or the branch template (name, k, p, sign)."""
    names = np.array(sphere.FAMILIES, dtype=object)[labels[:, 0]]
    ends = labels[:, 0] < 2
    out = np.empty(len(labels), dtype=object)
    out[ends] = _cells(end, [names[ends], labels[ends, 1]])
    out[~ends] = _cells(branch, [names[~ends], *labels[~ends, 1:].T])
    return out.tolist()


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
    labels = spec.members()[0]
    if ns.json:
        members = _sphere_members(labels, _json_row(['"%s"', "%d", "null", "null"], " " * 8),
                                  _json_row(['"%s"', "%d", "%d", "%d"], " " * 8))
        lines = _entry_lines(spec, _json_entry("labels"), members, ",\n")
        print('{\n  "t": %r,\n  "cutoff": %r,\n  "eigenvalues": %s\n}'
              % (t, cutoff, _json_list(lines, "  ")))
    elif ns.csv:
        members = _sphere_members(labels, "%s:k=%d", "%s:k=%d:p=%d:s=%+d")
        print("\n".join(["value,multiplicity,labels",
                         *_entry_lines(spec, "%s,%d,%s", members, ";")]))
    else:
        members = _sphere_members(labels, "%s(k=%d)", "%s(k=%d,p=%d,%+d)")
        print("\n".join([f"# spectrum at t = {_fmt(t)}, |value| <= {_fmt(cutoff)}",
                         f"{'value':>24}  {'mult':>5}  families",
                         *_entry_lines(spec, "%24s  %5d  %s", members, " ")]))
    return 0


def cmd_sphere_curve(ns) -> int:
    window = None if ns.window is None or ns.window.lower() == "none" else ns.window.split(":")
    t_values, members, i, j, value = sphere.curve_table(_parse_grid(ns.t_range), ns.k_max, window)
    # the t cell of each coupling and the family,k,p,sign cell of each member, once
    ts = np.array(list(map(repr, t_values.tolist())), dtype=object)
    cells = np.array(_sphere_members(np.stack(members, axis=1), "%s,%d,,", "%s,%d,%d,%d"),
                     dtype=object)
    print("\n".join(["t,family,k,p,sign,value", *_cells("%s,%s,%r", [ts[i], cells[j], value])]))
    return 0


def cmd_collisions(ns) -> int:
    k_max = sphere._check_level(ns.k_max)
    curves = k_max * (k_max + 1) / 2
    check_size(curves * (curves - 1) / 2, "curve pairs")
    ks, ps = np.tril_indices(k_max + 1, -1)  # curves (k, p), 0 <= p < k
    i, j = np.triu_indices(len(ks), 1)
    keep = 2 * (ps[i] - ps[j]) != ks[i] - ks[j]
    cols = [ks[i[keep]], ps[i[keep]], ks[j[keep]], ps[j[keep]]]
    cols.append(sphere.collision_t(*cols))
    cols.append(sphere.f0(cols[0], cols[1], cols[4]))
    if ns.json:
        item = ('    {\n      "k": %d,\n      "p": %d,\n      "k2": %d,\n      "p2": %d,\n'
                '      "t": %r,\n      "f0": %r\n    }')
        print('{\n  "k_max": %d,\n  "collisions": %s\n}'
              % (k_max, _json_list(_cells(item, cols), "  ")))
    else:
        print("\n".join(["k,p,k2,p2,t,f0", *_cells("%d,%d,%d,%d,%r,%r", cols)]))
    return 0


def cmd_torus(ns) -> int:
    data = _spinc_from_args(ns)
    spec = torus.spectrum(data, float(ns.cutoff))
    if ns.csv:
        members = _cells(" ".join(["%d"] * data.n), spec.members()[0].T)
        print("\n".join(["value,multiplicity,modes",
                         *_entry_lines(spec, "%s,%d,%s", members, ";")]))
        return 0
    zm = torus.zero_mode(data)
    members = _cells(_json_row(["%d"] * data.n, " " * 8), spec.members()[0].T)
    lines = _entry_lines(spec, _json_entry("modes"), members, ",\n")
    zero = "null" if zm is None else _json_list(["    %d" % c for c in zm.tolist()], "  ")
    print('{\n  "eigenvalues": %s,\n  "zero_mode": %s\n}' % (_json_list(lines, "  "), zero))
    return 0


def _sphere_diamagnetic(data, t):
    """Diamagnetic upper bound on S^3: the smaller of the two quasi-Killing sectors."""
    ups = [bounds_mod.diamagnetic_upper(*bounds_mod.berger_q(data.S, s), data.eta_Linf, t)
           for s in ("top", "bottom")]
    return min(ups, key=lambda b: b.value)


# bound name -> evaluator (GeometricData, coupling) -> BoundValue
_BOUNDS = {"friedrich": bounds_mod.friedrich, "hijazi": bounds_mod.hijazi,
           "basic": bounds_mod.basic, "diamagnetic": _sphere_diamagnetic}

# flat tori: bound name -> why it does not apply
_TORUS_REASONS = {
    "hijazi": "flat tori have Yamabe invariant 0, so the bound is nonpositive and carries "
              "no information",
    "basic": "flat translations have vanishing O'Neill tensor; the basic bound degenerates "
             "to |t|",
    "diamagnetic": "needs a quasi-Killing eigenspinor of the plain operator, available on "
                   "Sasakian geometries, not on flat tori",
}


# bounds options that only the torus model reads
_TORUS_OPTIONS = ("basis", "delta", "theta", "A", "flux", "cutoff")


def _sphere_model(ns):
    given = [f"--{o}" for o in _TORUS_OPTIONS if getattr(ns, o) is not None]
    if given:
        raise ValueError(f"bounds --model sphere takes no {', '.join(given)}")
    t = 0.0 if ns.t is None else ns.t
    lam1 = sphere.lambda1(t)
    reference = {"squared": lam1**2, "upper_squared": lam1**2, "absolute": lam1,
                 "first_positive": sphere.lambda1_basic(t)}
    return {"model": "sphere", "t": t}, bounds_mod.sphere3_data(), t, reference, {}


def _torus_model(ns):
    if ns.t is not None:
        raise ValueError("bounds --model torus takes no --t: its coupling is 1")
    ns.basis = "[[1]]" if ns.basis is None else ns.basis
    spinc = _spinc_from_args(ns)
    lam1 = torus.spectrum(spinc, 20.0 if ns.cutoff is None else ns.cutoff).min_abs()
    geo = bounds_mod.torus_data(spinc.lattice.basis, spinc.A / 2.0)
    return {"model": "torus"}, geo, 1.0, {"squared": lam1**2}, _TORUS_REASONS


# --model -> (report head, GeometricData, coupling, the exact quantity each
# bound form is compared against (see compare), why a bound does not apply)
_BOUND_MODELS = {"sphere": _sphere_model, "torus": _torus_model}


def cmd_bounds(ns) -> int:
    which = [w.strip() for w in ns.which.split(",") if w.strip()]
    if not which:
        raise ValueError(f"bounds request names no bound; choose from {', '.join(_BOUNDS)}")
    for w in which:
        if w not in _BOUNDS:
            raise ValueError(f"unknown bound {w!r}; choose from {', '.join(_BOUNDS)}")
    head, data, coupling, reference, reasons = _BOUND_MODELS[ns.model](ns)
    entries = []
    for w in which:
        bv = None if w in reasons else _BOUNDS[w](data, coupling)
        if bv is None or bv.vacuous:
            entries.append({"name": w, "applicable": False,
                            "reason": reasons[w] if bv is None else bv.reason})
        else:
            entries.append(vars(bounds_mod.compare(bv, reference[bv.form])))
    _print_json({**head, "bounds": entries})
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
    p.add_argument("--model", choices=tuple(_BOUND_MODELS), required=True)
    p.add_argument("--t", type=float, default=None,
                   help="sphere model: coupling (default 0)")
    p.add_argument("--which", default="friedrich,hijazi,basic,diamagnetic")
    p.add_argument("--basis", default=None,
                   help="torus model: lattice rows (JSON; default [[1]])")
    p.add_argument("--delta", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--A", default=None)
    p.add_argument("--flux", default=None)
    p.add_argument("--cutoff", type=float, default=None,
                   help="torus model: spectrum cutoff (default 20)")
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
    except BrokenPipeError:
        # the reader is gone: stdout to devnull, so the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
