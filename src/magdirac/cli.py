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


def _print_json(payload):
    print(json.dumps(payload, indent=2))


# Tables are written from the arrays a block of rows at a time, so the text
# held at once is one block, whatever the size of the table.  The eigenvalue
# lists of `sphere` and `torus` use fixed templates in the layout
# json.dumps(indent=2) gives; floats are float.__repr__, as json prints them.
BLOCK = 1024


def _write_table(head: str, edges: list, render, tail: str, sep: str = ""):
    """Write head, the rows and tail to stdout.  For consecutive ``edges``
    a < b, ``render(a, b)`` gives the text of rows a..b, each row followed
    by ``sep``, and is written before the next block is rendered; the sep
    after the last row is dropped."""
    write = sys.stdout.write
    write(head)
    for a, b in zip(edges, edges[1:]):
        text = render(a, b)
        write(text[:len(text) - len(sep)] if b == edges[-1] else text)
    write(tail)


def _write_json_list(head: str, edges: list, render, tail: str):
    """``_write_table`` of items each followed by a comma, as a list at
    indent 2."""
    if edges[-1]:
        _write_table(head + "[\n", edges, render, "\n  ]" + tail, ",\n")
    else:
        sys.stdout.write(head + "[]" + tail)


def _row_edges(rows: int) -> list:
    """Block edges over ``rows`` rows, BLOCK at a time."""
    return [*range(0, rows, BLOCK), rows]


def _entry_edges(offsets: np.ndarray) -> list:
    """Block edges over spectrum entries with member ``offsets``: a block
    holds at most BLOCK members, or one entry that has more."""
    edges = [0]
    while edges[-1] < len(offsets) - 1:
        a = edges[-1]
        b = int(np.searchsorted(offsets, offsets[a] + BLOCK, "right")) - 1
        edges.append(max(a + 1, b))
    return edges


def _json_list(items: list, indent: str) -> str:
    """A list, not empty, in json.dumps(indent=2) layout at ``indent``; the
    ``items`` (one cell template each) one level deeper."""
    return "[\n" + ",\n".join(indent + "  " + c for c in items) + "\n" + indent + "]"


def _value_strings(values: np.ndarray) -> list:
    """repr of each of the ascending ``values``.  If every negative value is
    exactly minus its mirror ``values[-1 - i]``, the negatives take the top
    values' strings by one slice behind a "-", since repr(-x) == "-" +
    repr(x) for every finite x > 0; else each value gets its own repr."""
    neg = int(np.searchsorted(values, 0.0))  # the negatives lead the ascending list
    pos = list(map(repr, values[neg:].tolist()))
    if np.array_equal(values[:neg], -values[::-1][:neg]):
        return list(map("-".__add__, pos[::-1][:neg])) + pos
    return list(map(repr, values[:neg].tolist())) + pos


# a cell of a template: the text before a conversion (%s, %d or %r, with
# flags and width), the conversion, and the text after the last conversion
_CELL = re.compile(r"([^%]*%[-+ #0]*\d*([sdr])(?:[^%]*\Z)?)")


def _join(vocab: np.ndarray, index: np.ndarray) -> str:
    """The text of a block of rows: the strings ``vocab[index]``, row by row."""
    return "".join(vocab[index.ravel()].tolist())


def _distinct(column, kind: str) -> tuple:
    """(cells, keys) of a column of %``kind`` cells, row r holding
    cells[keys[r]]: integers over lo..hi where that span is dense, which
    spares the sort; else numbers once per bit pattern, so -0.0 and 0.0
    stay apart; strings as they are."""
    if kind == "s":
        return column, np.arange(len(column))
    column = np.asarray(column, np.float64 if kind == "r" else np.int64)
    if kind == "d" and column.size:
        lo, hi = int(column.min()), int(column.max())
        if hi - lo < 2 * column.size + 64:
            return range(lo, hi + 1), column - lo
    cells, keys = np.unique(column.view(np.int64), return_inverse=True)
    return cells.view(column.dtype).tolist(), keys


class _Cells:
    """A block of rows as ``index``, (rows, cells) places in ``vocab``, its
    distinct cell strings.

    Row r follows ``templates[variant[r]]`` (``templates[0]`` without
    variant): its i-th cell (``_CELL``) takes ``columns[i][r]``, and is
    empty past the template's last.  Each string is made once per template
    and distinct cell (``_distinct``); a bare %s cell is its string.
    """

    def __init__(self, templates, columns, variant=0):
        parts = [_CELL.findall(t) for t in templates]
        vocab, self.index = [], np.empty((len(columns[0]), len(columns)), np.intp)
        for i, column in enumerate(columns):
            cells, keys = _distinct(column, next(p[i][1] for p in parts if i < len(p)))
            self.index[:, i] = keys + len(vocab) + variant * len(cells)
            for p in parts:  # "%.0s" renders the empty cells past a template's last
                f = p[i][0] if i < len(p) else "%.0s"
                vocab.extend(cells if f == "%s" else map(f.__mod__, cells))
        self.vocab = np.array(vocab, dtype=object)

    def text(self) -> str:
        return _join(self.vocab, self.index)


def _entry_blocks(spec, template: str, members, join: str) -> tuple:
    """Block edges and renderer of the spectrum's entries for
    ``_write_table``: ``template % (value string, multiplicity, the entry's
    members joined by join)``, ``members(labels)`` being the ``_Cells`` of
    a block's labels.  Each member is a row, led by join or, in an entry's
    first, by the template's head (behind the tail of the entry before),
    value and multiplicity.  Value strings are made once for the whole
    list, since the mirror rule reads its far end."""
    labels, offsets = spec.members()
    values, mults = _value_strings(spec.values()), spec.multiplicities()
    head, rest = template.split("%", 1)
    entry, _, tail = ("%" + rest).rpartition("%s")  # the value and multiplicity cells
    leads = np.array([head, tail + head, join, ""], dtype=object)

    def render(a, b):
        lo, hi = offsets[a], offsets[b]
        first = offsets[a:b] - lo
        entries, cells = _Cells([entry], [values[a:b], mults[a:b]]), members(labels[lo:hi])
        index = np.full((hi - lo, 3 + len(cells.index.T)), 3)  # lead, value, multiplicity
        index[:, 0] = 2  # join
        index[first, 0] = 1  # the tail of the entry before and the head
        index[0, 0] = 0  # the head
        index[first, 1:3] = entries.index + 4
        index[:, 3:] = cells.index + 4 + len(entries.vocab)
        return _join(np.concatenate([leads, entries.vocab, cells.vocab]), index) + tail

    return _entry_edges(offsets), render


def _write_entries(fmt: str, spec, head: str, tail: str, key: str, members):
    """Write ``spec`` between ``head`` and ``tail`` as a list of entries
    (value, multiplicity, members; ``members(labels)`` the ``_Cells`` of a
    block of labels) in output format "text", "csv" or "json", which sets the
    entry template, the member join and the writer; json lists members under
    ``key``."""
    template, join, write = {
        "text": ("%24s  %5d  %s\n", " ", _write_table),
        "csv": ("%s,%d,%s\n", ";", _write_table),
        "json": ('    {\n      "value": %s,\n      "multiplicity": %d,\n      "' + key
                 + '": [\n%s\n      ]\n    },\n', ",\n", _write_json_list)}[fmt]
    write(head, *_entry_blocks(spec, template, members, join), tail)


def _parse_grid(text: str, option: str) -> np.ndarray:
    """Parse 'start:stop:steps', the value of ``option``, into a uniform grid."""
    try:
        start, stop, steps = text.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ValueError(f"{option} must be start:stop:steps with integer steps, "
                         f"got {text!r}") from None
    if not np.isfinite([start, stop, stop - start]).all():
        raise ValueError(f"{option} needs finite start, stop and stop - start, got {text!r}")
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps} in {option}")
    check_size(steps, "grid points", f"the {option} steps")
    return np.linspace(start, stop, steps)


def _parse_list(text: str, option: str, kind=float) -> list:
    """The comma-separated values of ``option``: numbers, or with ``kind``
    int, integers that fit int64."""
    try:
        values = [kind(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        values = None
    if values is None or kind is int and any(abs(v) >= 2 ** 63 for v in values):
        what = "integers less than 2**63 in size" if kind is int else "numbers"
        raise ValueError(f"{option} must be a comma-separated list of {what}, got {text!r}")
    return values


def _parse_json(text: str, option: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{option} is not valid JSON ({exc}), got {text!r}") from None


def _is_number(x) -> bool:
    """A JSON number: int or float, not true or false."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_basis(text: str) -> "Lattice":
    from .lattice import Lattice
    rows = _parse_json(text, "--basis")
    if not (isinstance(rows, list) and rows and all(
            isinstance(r, list) and len(r) == len(rows) and all(map(_is_number, r))
            for r in rows)):
        raise ValueError(f"--basis must be a square JSON matrix of numbers, got {text!r}")
    return Lattice.from_rows(np.array(rows, dtype=np.float64))


def _parse_f_terms(text: str, n: int):
    """JSON list of [frequency-list, re, im] triples; a frequency is a list
    of n integers."""
    raw = _parse_json(text, "--f-terms")
    if not isinstance(raw, list):
        raise ValueError(f"--f-terms must be a JSON list of [freq-list, re, im], got {text!r}")
    terms = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 3 and isinstance(item[0], list)
                and all(map(_is_number, item[1:]))):
            raise ValueError(
                f"each f-term must be [freq-list, re, im] in --f-terms, got {json.dumps(item)}"
            )
        freq, real, imag = item
        if len(freq) != n or not all(type(c) is int and abs(c) < 2 ** 63 for c in freq):
            raise ValueError(f"--f-terms frequency {json.dumps(freq)} must be a list of "
                             f"{n} integers, one per lattice generator, each less than "
                             "2**63 in size")
        coeff = complex(float(real), float(imag))
        if not np.isfinite(coeff):
            raise ValueError(f"--f-terms coefficient {json.dumps(item[1:])} is not finite")
        terms.append((tuple(freq), coeff))
    return terms


def _spinc_from_args(ns) -> "torus.SpinCData":
    from . import torus
    lat = _parse_basis(ns.basis)
    n = lat.n
    delta = _parse_list(ns.delta, "--delta", int) if ns.delta else [0] * n
    theta = _parse_list(ns.theta, "--theta") if ns.theta else [0.0] * n
    if ns.flux is not None and ns.A is not None:
        raise ValueError("give either --A or --flux, not both")
    if ns.flux is not None:
        A = torus.potential_from_fluxes(lat, _parse_list(ns.flux, "--flux"))
    elif ns.A is not None:
        A = np.array(_parse_list(ns.A, "--A"), dtype=np.float64)
    else:
        A = np.zeros(n)
    return torus.SpinCData(lat, delta, theta, A)


# ---------------------------------------------------------------------------
# subcommands


def _family_templates(end: str, branch: str) -> list:
    """The member template of each of sphere.FAMILIES, its name in the {}."""
    from . import sphere
    return [f.format(name) for f, name in zip((end, end, branch), sphere.FAMILIES)]


def cmd_sphere(ns) -> int:
    from . import sphere
    cutoff = 5.0 + abs(ns.t) if ns.cutoff is None else ns.cutoff
    spec = sphere.spectrum(ns.t, cutoff)
    if ns.json:
        fmt, head = "json", '{\n  "t": %r,\n  "cutoff": %r,\n  "eigenvalues": ' % (ns.t, cutoff)
        end, branch = (" " * 8 + _json_list(['"{}"', "%d", *cells], " " * 8)
                       for cells in (["null", "null"], ["%d", "%d"]))
    elif ns.csv:
        fmt, head = "csv", "value,multiplicity,labels\n"
        end, branch = "{}:k=%d", "{}:k=%d:p=%d:s=%+d"
    else:
        fmt, end, branch = "text", "{}(k=%d)", "{}(k=%d,p=%d,%+d)"
        head = (f"# spectrum at t = {ns.t!r}, |value| <= {cutoff!r}\n"
                f"{'value':>24}  {'mult':>5}  families\n")
    families = _family_templates(end, branch)
    _write_entries(fmt, spec, head, "\n}\n" if ns.json else "", "labels",
                   lambda labels: _Cells(families, labels[:, 1:].T, labels[:, 0]))
    return 0


def cmd_sphere_curve(ns) -> int:
    from . import sphere
    window = None if ns.window.lower() == "none" else ns.window.split(":")
    t_values, members, i, j, value = sphere.curve_table(
        _parse_grid(ns.t_range, "--t-range"), ns.k_max, window)
    # the ,family,k,p,sign text of each member once
    names = _Cells(_family_templates(",{},%d,,", ",{},%d,%d,%d"), members[1:], members[0])
    names = np.array(list(map("".join, names.vocab[names.index].tolist())), dtype=object)
    _write_table("t,family,k,p,sign,value\n", _row_edges(len(i)), lambda a, b: _Cells(
        ["%r%s,%r\n"], [t_values[i[a:b]], names[j[a:b]], value[a:b]]).text(), "")
    return 0


def cmd_collisions(ns) -> int:
    from . import sphere
    k_max = sphere._check_level(ns.k_max)
    curves = k_max * (k_max + 1) / 2
    check_size(curves * (curves - 1) / 2, "curve pairs", "--k-max")
    ks, ps = np.tril_indices(k_max + 1, -1)  # curves (k, p), 0 <= p < k
    i, j = np.triu_indices(len(ks), 1)
    keep = 2 * (ps[i] - ps[j]) != ks[i] - ks[j]
    cols = [ks[i[keep]], ps[i[keep]], ks[j[keep]], ps[j[keep]]]
    cols.append(sphere.collision_t(*cols))
    cols.append(sphere.f0(cols[0], cols[1], cols[4]))
    edges = _row_edges(len(cols[0]))
    if ns.json:
        item = ('    {\n      "k": %d,\n      "p": %d,\n      "k2": %d,\n      "p2": %d,\n'
                '      "t": %r,\n      "f0": %r\n    },\n')
        _write_json_list('{\n  "k_max": %d,\n  "collisions": ' % k_max, edges,
                         lambda a, b: _Cells([item], [c[a:b] for c in cols]).text(), "\n}\n")
    else:
        _write_table("k,p,k2,p2,t,f0\n", edges, lambda a, b: _Cells(
            ["%d,%d,%d,%d,%r,%r\n"], [c[a:b] for c in cols]).text(), "")
    return 0


def cmd_torus(ns) -> int:
    from . import torus
    data = _spinc_from_args(ns)
    spec = torus.spectrum(data, ns.cutoff)
    if ns.csv:
        fmt, head, tail, mode = "csv", "value,multiplicity,modes\n", "", " ".join(["%d"] * data.n)
    else:
        zm = torus.zero_mode(data)
        zero = "null" if zm is None else _json_list(["%d"] * data.n, "  ") % tuple(zm.tolist())
        fmt, head, tail = "json", '{\n  "eigenvalues": ', ',\n  "zero_mode": %s\n}\n' % zero
        mode = " " * 8 + _json_list(["%d"] * data.n, " " * 8)
    _write_entries(fmt, spec, head, tail, "modes", lambda labels: _Cells([mode], labels.T))
    return 0


def _sphere_model(bounds, ns):
    from . import oracle, sphere
    t = 0.0 if ns.t is None else ns.t
    lam1 = sphere.lambda1(t)  # refuses a non-finite or oversized t first
    # basic: LAPACK's least positive value on the weight-0 rows of levels 0..3 (p = 0, 1)
    rows, cols, values, weight = oracle.sphere_level_entries(3)
    at, mine = np.cumsum(weight == 0) - 1, weight[rows] == 0
    block = np.zeros((2, 4, 4), dtype=np.complex128)
    block[:, at[rows[mine]], at[cols[mine]]] = values[:, mine]
    basic = np.linalg.eigvalsh(block[0] + t * block[1])
    return ({"model": "sphere", "t": t}, bounds.sphere3_data(), t, lam1, min(basic[basic > 0]))


def _torus_model(bounds, ns):
    from . import torus
    ns.basis = "[[1]]" if ns.basis is None else ns.basis
    spinc = _spinc_from_args(ns)
    cutoff = 20.0 if ns.cutoff is None else ns.cutoff
    spec = torus.spectrum(spinc, cutoff)
    if not len(spec):
        raise ValueError(f"no eigenvalue has |value| <= the cutoff {cutoff!r}; raise --cutoff")
    geo = bounds.torus_data(spinc.lattice.basis, spinc.A / 2.0)
    return {"model": "torus"}, geo, 1.0, spec.min_abs(), None


# --model -> (the options it reads, (bounds module, options) -> (report head, GeometricData,
# coupling, lambda_1, first positive basic eigenvalue or None)); the evaluators say what applies
_BOUND_MODELS = {"sphere": (("t",), _sphere_model),
                 "torus": (("basis", "delta", "theta", "A", "flux", "cutoff"), _torus_model)}


def cmd_bounds(ns) -> int:
    from . import bounds
    names = ", ".join(bounds.BOUNDS)
    which = list(bounds.BOUNDS) if ns.which is None else [
        w.strip() for w in ns.which.split(",") if w.strip()]
    if not which:
        raise ValueError(f"bounds request names no bound; choose from {names}")
    for i, w in enumerate(which):
        if w not in bounds.BOUNDS or w in which[:i]:
            what = "repeated" if w in bounds.BOUNDS else "unknown"
            raise ValueError(f"{what} bound {w!r}; choose from {names}")
    reads, model = _BOUND_MODELS[ns.model]
    given = [f"--{o}" for o, v in vars(ns).items() if v is not None and o not in reads
             and any(o in row[0] for row in _BOUND_MODELS.values())]  # in declaration order
    if given:
        raise ValueError(f"bounds --model {ns.model} takes no {', '.join(given)}")
    head, data, coupling, lam1, basic = model(bounds, ns)
    reference = {"squared": lam1**2, "upper_squared": lam1**2, "absolute": lam1,
                 "first_positive": basic}  # what each bound form is checked against (compare)
    evaluated = [bounds.BOUNDS[w](data, coupling) for w in which]
    for bv in evaluated:
        if not bv.vacuous and reference[bv.form] is None:
            raise ValueError(f"bounds --model {ns.model} has no reference for {bv.name}")
    entries = [{"name": bv.name, "applicable": False, "reason": bv.reason} if bv.vacuous
               else bounds.compare(bv, reference[bv.form]) for bv in evaluated]
    _print_json({**head, "bounds": entries})
    return 0


def _verify_gauge(oracle, ns) -> dict:
    from . import torus
    lat = _parse_basis(ns.basis)
    delta = _parse_list(ns.delta, "--delta", int) if ns.delta else [1] + [0] * (lat.n - 1)
    data = torus.SpinCData(lat, delta, [0.0] * lat.n, np.zeros(lat.n))
    return oracle.verify_gauge(data, _parse_f_terms(ns.f_terms, lat.n),
                               tuple(_parse_list(ns.cutoffs, "--cutoffs", int)))


def _checked(report):
    """The run of a verify target: print report(oracle, ns) as JSON; exit 0 on a pass, else 2."""
    def run(ns) -> int:
        from . import oracle
        result = report(oracle, ns)
        _print_json(result)
        return 0 if result["pass"] else 2
    return run


def _command_table() -> dict:
    """command -> (its add_parser keywords, its options function, the function
    that runs it).  An options function declares through add_argument and
    add_mutually_exclusive_group alone, so that ``_read`` can record it with
    ``_Options``; verify's options are the same kind of table, of its targets,
    and its run is None."""
    def sphere_options(p):
        p.add_argument("--t", required=True, type=float, help="coupling strength")
        p.add_argument("--cutoff", type=float, default=None,
                       help="keep |value| <= cutoff (default 5 + |t|)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")

    def sphere_curve_options(p):
        p.add_argument("--t-range", default="-5:5:201",
                       help="grid start:stop:steps (default -5:5:201)")
        p.add_argument("--k-max", type=int, default=5)
        p.add_argument("--window", default="-5:5",
                       help="keep lo <= value <= hi, or 'none'")

    def collisions_options(p):
        p.add_argument("--k-max", type=int, required=True)
        p.add_argument("--json", action="store_true")

    def torus_options(p):
        p.add_argument("--basis", required=True,
                       help="JSON matrix whose rows generate the lattice")
        p.add_argument("--delta", default=None, help="spin structure bits, e.g. 1,0")
        p.add_argument("--theta", default=None, help="holonomy parameters in [0,1)")
        p.add_argument("--A", default=None, help="harmonic potential covector")
        p.add_argument("--flux", default=None,
                       help="holonomies of A over the generators (alternative to --A)")
        p.add_argument("--cutoff", required=True, type=float)
        p.add_argument("--csv", action="store_true")

    def bounds_options(p):
        p.add_argument("--model", choices=tuple(_BOUND_MODELS), required=True)
        p.add_argument("--t", type=float, default=None,
                       help="sphere model: coupling (default 0)")
        p.add_argument("--which", default=None)
        p.add_argument("--basis", default=None,
                       help="torus model: lattice rows (JSON; default [[1]])")
        p.add_argument("--delta", default=None)
        p.add_argument("--theta", default=None)
        p.add_argument("--A", default=None)
        p.add_argument("--flux", default=None)
        p.add_argument("--cutoff", type=float, default=None,
                       help="torus model: spectrum cutoff (default 20)")

    def sphere_blocks_options(v):
        v.add_argument("--k-max", type=int, default=30)
        v.add_argument("--t-grid", default="-4:4:17")

    def torus_modes_options(v):
        v.add_argument("--n", type=int, default=3)
        v.add_argument("--samples", type=int, default=200)
        v.add_argument("--seed", type=int, default=7)

    def gauge_options(v):
        v.add_argument("--basis", required=True,
                       help="JSON matrix whose rows generate the lattice")
        v.add_argument("--delta", default=None)
        v.add_argument("--f-terms", required=True,
                       help="JSON list of [freq-list, re, im] for f")
        v.add_argument("--cutoffs", default="4,8,12")

    targets = {name: ({}, options, _checked(report)) for name, options, report in (
        ("sphere-blocks", sphere_blocks_options, lambda oracle, ns: oracle.verify_sphere_blocks(
            ns.k_max, _parse_grid(ns.t_grid, "--t-grid"))),
        ("torus-modes", torus_modes_options,
         lambda oracle, ns: oracle.verify_torus_modes(ns.n, ns.samples, ns.seed)),
        ("gauge", gauge_options, _verify_gauge))}
    return {name: ({"help": summary}, options, run) for name, summary, options, run in (
        ("sphere", "exact 3-sphere spectrum at coupling t", sphere_options, cmd_sphere),
        ("sphere-curve", "eigenvalue curves on a coupling grid (CSV)", sphere_curve_options,
         cmd_sphere_curve),
        ("collisions", "couplings where two branch curves cross", collisions_options,
         cmd_collisions),
        ("torus", "exact flat-torus spectrum", torus_options, cmd_torus),
        ("bounds", "evaluate eigenvalue bounds", bounds_options, cmd_bounds),
        ("verify", "matrix-oracle cross-checks", targets, None))}


_COMMANDS = _command_table()


def _add_commands(parser, dest, rows):
    """Add to ``parser`` the parser of each row of a ``_COMMANDS`` table, its
    name going to ``dest`` and its run to ``func``; under verify, its targets'."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Parser)
    for name, (keywords, options, run) in rows.items():
        child = sub.add_parser(name, **keywords)
        if run is None:
            _add_commands(child, "target", options)
        else:
            options(child)
            child.set_defaults(func=run)


def build_parser() -> _Parser:
    """The root parser with every parser of ``_COMMANDS`` built, for help, usage
    errors and argv that does not start with a command (see ``_parse``)."""
    parser = _Parser(prog="magdirac", description=__doc__.splitlines()[0])
    _add_commands(parser, "command", _COMMANDS)
    return parser


class _Options:
    """For ``_read``: each ``--name`` option an options function declares, with
    its keywords, in order; exclusive groups share them and note their ``names``.
    A keyword the rows do not use raises TypeError, lest argparse read otherwise."""

    def __init__(self, options=None):
        self.options, self.names, self.groups = {} if options is None else options, [], []

    def add_argument(self, name, **kw):
        if name[:2] != "--" or kw.get("action", "store_true") != "store_true" or kw.keys() - {
                "type", "default", "required", "choices", "help", "action"}:
            raise TypeError(f"an options function declares {name} with {sorted(kw)}, "
                            "which only argparse reads")
        self.options[name] = kw
        self.names.append(name)

    def add_mutually_exclusive_group(self):
        self.groups.append(_Options(self.options))
        return self.groups[-1]


def _read(options, args, ns):
    """``ns`` with each option that ``options`` declares, in declaration order:
    its value in ``args``, else False for a flag, else its default; or None if
    args is not plain, for argparse to read (see README, "Command line")."""
    declared, given, args = _Options(), {}, iter(args)
    options(declared)
    for name in args:
        kw = declared.options.get(name)
        if kw is None or name in given:
            return None
        value = True if "action" in kw else next(args, "-")
        if value is not True:
            if value[:1] == "-" and not value[1:2].isdecimal():  # none, or an option name
                return None
            try:
                value = (kw.get("type") or str)(value)
            except (TypeError, ValueError):
                return None
        if value not in kw.get("choices", [value]):
            return None
        given[name] = value
    if any(kw.get("required") and name not in given for name, kw in declared.options.items()
           ) or any(len(given.keys() & g.names) > 1 for g in declared.groups):
        return None
    for name, kw in declared.options.items():
        setattr(ns, name[2:].replace("-", "_"),
                given.get(name, False if "action" in kw else kw.get("default")))
    return ns


def _parse(argv) -> argparse.Namespace:
    """The namespace of ``argv``: argv that names a command (and for verify a
    target) and then gives only its declared options, plainly, is read from
    its row (``_read``), ``func`` its run, with no parser built; any other argv
    goes to ``build_parser()``, which prints every help text and error."""
    ns, options = argparse.Namespace(), _COMMANDS
    for depth, (dest, name) in enumerate(zip(("command", "target"), argv)):
        if name not in options:
            break
        setattr(ns, dest, name)
        _, options, ns.func = options[name]
        if ns.func is not None:
            return _read(options, argv[depth + 1:], ns) or build_parser().parse_args(argv)
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (ValueError, OverflowError) as exc:
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
