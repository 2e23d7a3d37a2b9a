"""Per-layer tracing from outside the program.

The tracer replaces selected attributes of the ``magdirac`` modules with
wrappers for the length of a traced pass and puts the originals back
afterwards.  Each name is wrapped where the program looks it up: a
``from ... import`` binding (``oracle.f0``, ``oracle.jacobi_eigvals``, ...)
is a separate name from the one in its home module.  A name missing at some
commit is skipped, and the metrics fed by it read 0.

Three kinds of wrapper:

* ``span``  -- calls that handle whole arrays.  Each call records
  (id, name, start, end, parent id, request id, time covered by children)
  in memory; self time is the duration minus the child time.
* ``timed`` -- per-element calls whose time a metric needs.  They add to a
  count and a time total and to the child time of the enclosing span, but
  record no span.
* ``count`` -- per-element calls that only get a counter (``f0``,
  ``mode_eigenvalues``); their time stays in the enclosing span's self time.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute path, kind, span or counter name)
TARGETS = [
    ("magdirac.cli", "main", SPAN, "cli.main"),
    ("magdirac.lattice", "Lattice.enumerate_shifted", SPAN, "lattice.enumerate_shifted"),
    ("magdirac.lattice", "enumerate_core", SPAN, "lattice.enumerate_core"),
    ("magdirac.torus", "spectrum", SPAN, "torus.spectrum"),
    ("magdirac.torus", "zero_mode", SPAN, "torus.zero_mode"),
    ("magdirac.torus", "mode_eigenvalues", COUNT, "torus.mode_eigenvalues"),
    ("magdirac.oracle", "mode_eigenvalues", COUNT, "torus.mode_eigenvalues"),
    ("magdirac.sphere", "spectrum", SPAN, "sphere.spectrum"),
    ("magdirac.sphere", "curve_samples", SPAN, "sphere.curve_samples"),
    ("magdirac.sphere", "collision_t", TIMED, "sphere.collision_t"),
    ("magdirac.sphere", "f0", COUNT, "sphere.f0"),
    ("magdirac.oracle", "f0", COUNT, "sphere.f0"),
    ("magdirac.spectrum", "Spectrum.from_triples", SPAN, "spectrum.from_triples"),
    ("magdirac.oracle", "torus_fourier_operator", SPAN, "oracle.torus_fourier_operator"),
    ("magdirac.oracle", "_assemble", SPAN, "oracle._assemble"),
    ("magdirac.oracle", "hermitian_eigs", SPAN, "oracle.hermitian_eigs"),
    ("magdirac.oracle", "jacobi_eigvals", TIMED, "kernels.jacobi_eigvals"),
    ("magdirac.oracle", "vector_action", TIMED, "clifford.vector_action"),
    ("magdirac.oracle", "identity_checks", SPAN, "oracle.identity_checks"),
    ("magdirac.oracle", "verify_sphere_blocks", SPAN, "oracle.verify"),
    ("magdirac.oracle", "verify_torus_modes", SPAN, "oracle.verify"),
    ("magdirac.oracle", "verify_gauge", SPAN, "oracle.verify"),
]

# per-layer metric -> unit; every traced run reports all of them
LAYER_METRICS = {
    "lattice.enumerate_s": "s",
    "lattice.points": "count",
    "kernels.enumerate_s": "s",
    "kernels.jacobi_s": "s",
    "kernels.jacobi_calls": "count",
    "torus.spectrum_self_s": "s",
    "torus.mode_calls": "count",
    "sphere.spectrum_self_s": "s",
    "sphere.f0_calls": "count",
    "spectrum.merge_s": "s",
    "spectrum.triples_in": "count",
    "spectrum.entries_out": "count",
    "cli.format_s": "s",
    "cli.bytes_out": "B",
    "oracle.assemble_s": "s",
    "oracle.assembled_bytes": "B",
    "oracle.eig_s": "s",
    "oracle.eig_calls": "count",
    "oracle.eig_dim_max": "count",
    "oracle.eig_work": "count",
    "oracle.identity_self_s": "s",
    "oracle.verify_self_s": "s",
    "clifford.vector_action_s": "s",
    "clifford.vector_action_calls": "count",
    "trace.overhead_frac": "ratio",
}

_ASSEMBLY = ("oracle.torus_fourier_operator", "oracle._assemble")


def _size(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _dim(obj) -> int:
    shape = getattr(obj, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    """Wraps the program's layers and records spans and counters in memory."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, request, child_s)
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.sizes = defaultdict(int)  # per-call sizes summed by the span wrappers
        self.request = None
        self._stack = []  # [span id, child seconds] of the open spans
        self._next_id = 0
        self._saved = []  # (owner, attribute, original raw value)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((sid, name, t0, t1, parent, tracer.request, frame[1]))
            tracer._measure(name, args, kwargs, result)
            return result

        return wrapper

    def _timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.counts[name] += 1
                tracer.times[name] += dt
                if tracer._stack:
                    tracer._stack[-1][1] += dt

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _measure(self, name, args, kwargs, result):
        sizes = self.sizes
        if name == "lattice.enumerate_shifted":
            sizes["lattice.points"] += _dim(result)
        elif name == "spectrum.from_triples":
            triples = args[1] if len(args) > 1 else kwargs.get("triples")
            sizes["spectrum.triples_in"] += _size(triples)
            sizes["spectrum.entries_out"] += _size(result)
        elif name == "oracle._assemble":
            sizes["oracle.assembled_bytes"] += 16 * _dim(result) ** 2
        elif name == "oracle.hermitian_eigs":
            dim = _dim(result)
            sizes["oracle.eig_calls"] += 1
            sizes["oracle.eig_work"] += dim ** 3
            sizes["oracle.eig_dim_max"] = max(sizes["oracle.eig_dim_max"], dim)

    # -- install / restore --------------------------------------------------

    def install(self):
        """Wrap every target that exists; return the names wrapped."""
        make = {SPAN: self._span, TIMED: self._timed, COUNT: self._count}
        wrapped = []
        for module_name, path, kind, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                continue
            raw = vars(owner).get(attr)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make[kind](name, raw.__func__))
            elif callable(raw):
                new = make[kind](name, raw)
            else:
                continue
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            wrapped.append(f"{module_name}.{path}")
        return wrapped

    def restore(self):
        """Put back every original attribute, in reverse order of wrapping."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over everything recorded so far."""
        dur = defaultdict(float)
        self_s = defaultdict(float)
        tree = {sp[0]: (sp[1], sp[4]) for sp in self.spans}
        outer_assembly = 0.0
        for sid, name, t0, t1, parent, _req, child in self.spans:
            dur[name] += t1 - t0
            self_s[name] += (t1 - t0) - child
            if name in _ASSEMBLY and not _has_ancestor(tree, parent, _ASSEMBLY):
                outer_assembly += t1 - t0
        c, t, s = self.counts, self.times, self.sizes
        return {
            "lattice.enumerate_s": dur["lattice.enumerate_shifted"],
            "lattice.points": s["lattice.points"],
            "kernels.enumerate_s": dur["lattice.enumerate_core"],
            "kernels.jacobi_s": t["kernels.jacobi_eigvals"],
            "kernels.jacobi_calls": c["kernels.jacobi_eigvals"],
            "torus.spectrum_self_s": self_s["torus.spectrum"],
            "torus.mode_calls": c["torus.mode_eigenvalues"],
            "sphere.spectrum_self_s": self_s["sphere.spectrum"]
            + self_s["sphere.curve_samples"] + t["sphere.collision_t"],
            "sphere.f0_calls": c["sphere.f0"],
            "spectrum.merge_s": dur["spectrum.from_triples"],
            "spectrum.triples_in": s["spectrum.triples_in"],
            "spectrum.entries_out": s["spectrum.entries_out"],
            "cli.format_s": self_s["cli.main"],
            "oracle.assemble_s": outer_assembly,
            "oracle.assembled_bytes": s["oracle.assembled_bytes"],
            "oracle.eig_s": dur["oracle.hermitian_eigs"],
            "oracle.eig_calls": s["oracle.eig_calls"],
            "oracle.eig_dim_max": s["oracle.eig_dim_max"],
            "oracle.eig_work": s["oracle.eig_work"],
            "oracle.identity_self_s": self_s["oracle.identity_checks"],
            "oracle.verify_self_s": self_s["oracle.verify"],
            "clifford.vector_action_s": t["clifford.vector_action"],
            "clifford.vector_action_calls": c["clifford.vector_action"],
        }


def _has_ancestor(tree, sid, names) -> bool:
    """Whether span ``sid`` or one of its ancestors has a name in ``names``."""
    while sid is not None:
        name, parent = tree[sid]
        if name in names:
            return True
        sid = parent
    return False


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request", "child_s")


def write_spans(spans, path):
    """Write recorded spans as JSON lines: a header of field names, then one
    array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(SPAN_FIELDS) + "\n")
        for sp in spans:
            fh.write(json.dumps(sp, separators=(",", ":")) + "\n")
