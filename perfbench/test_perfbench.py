"""Self-tests of the benchmark: streams, tracer and checker.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root; they import magdirac from ``src/``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import streams  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from magdirac import cli  # noqa: E402

WORKLOADS = sorted(streams.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream_other_seed_other_stream(workload):
    a = json.dumps(streams.build(workload, 3))
    assert a == json.dumps(streams.build(workload, 3))
    assert a != json.dumps(streams.build(workload, 4))
    assert len(streams.build(workload, 3)) >= 100


def _snapshot():
    out = {}
    for module_name, path, _, _ in tracer.TARGETS:
        owner = __import__(module_name, fromlist=["_"])
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[(module_name, path)] = vars(owner)[attr]
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _snapshot()
    tr = tracer.Tracer()
    wrapped = tr.install()
    try:
        assert len(wrapped) == len(tracer.TARGETS)
        during = _snapshot()
        assert all(during[k] is not before[k] for k in before)
    finally:
        tr.restore()
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)
    # an untraced request afterwards records nothing
    worker.run_request(cli, streams.warmup("sphere-spectra")[0])
    assert not tr.spans and not tr.counts


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("magdirac.torus", "no_such_function", tracer.COUNT, "torus.mode_eigenvalues"),
        ("magdirac.no_such_module", "f", tracer.SPAN, "x"),
    ])
    tr = tracer.Tracer()
    try:
        assert len(tr.install()) == len(tracer.TARGETS) - 2
    finally:
        tr.restore()
    assert tr.layer_metrics()["torus.mode_calls"] == 0


def _run(req):
    _, rc, output, error = worker.run_request(cli, req)
    return rc, output, error


def _first(workload, argv0, fmt=None):
    for req in streams.build(workload, 5):
        if req["kind"] == "cli" and req["argv"][0] == argv0 and (
            fmt is None or req["ref"].get("format") == fmt
        ):
            return req
    raise AssertionError("no such request")


def _perturb_first_value(text, fmt, delta):
    if fmt == "json":
        doc = json.loads(text)
        doc["eigenvalues"][0]["value"] += delta
        return json.dumps(doc)
    lines = text.splitlines()
    head = 1 if fmt == "csv" else 2
    sep = "," if fmt == "csv" else None
    cells = lines[head].split(sep)
    cells[0] = repr(float(cells[0]) + delta)
    lines[head] = (sep or "  ").join(cells)
    return "\n".join(lines)


def _bump_first_multiplicity(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        doc["eigenvalues"][0]["multiplicity"] += 1
        return json.dumps(doc)
    lines = text.splitlines()
    head = 1 if fmt == "csv" else 2
    sep = "," if fmt == "csv" else None
    cells = lines[head].split(sep)
    cells[1] = str(int(cells[1]) + 1)
    lines[head] = (sep or "  ").join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("argv0,fmt", [
    ("torus", "json"), ("torus", "csv"),
    ("sphere", "json"), ("sphere", "csv"), ("sphere", "text"),
])
def test_checker_rejects_perturbed_value_and_multiplicity(argv0, fmt):
    workload = "torus-spectra" if argv0 == "torus" else "sphere-spectra"
    req = _first(workload, argv0, fmt)
    rc, output, error = _run(req)
    reference.check(req, rc, output, error)
    text = output.decode()
    for bad in (_perturb_first_value(text, fmt, 1e-6),
                _bump_first_multiplicity(text, fmt)):
        with pytest.raises(reference.Mismatch):
            reference.check(req, rc, bad.encode(), error)
    with pytest.raises(reference.Mismatch):
        reference.check(req, 1, output, error)


def _smallest_per_kind(workload):
    """One cheap request of each kind in the workload."""
    best = {}
    for req in streams.build(workload, 7):
        kind = req["argv"][:2] if req["kind"] == "cli" else ["identity"]
        key = kind[0] if kind[0] != "verify" else " ".join(kind)
        size = len(json.dumps(req))
        if key in ("torus", "sphere"):
            size = float(req["argv"][req["argv"].index("--cutoff") + 1])
        if key not in best or size < best[key][0]:
            best[key] = (size, req)
    return [req for _, req in best.values()]


BYPASSED = {
    "torus-spectra": ("oracle.", "kernels.jacobi", "clifford."),
    "sphere-spectra": ("oracle.", "kernels.", "clifford.", "lattice.", "torus."),
    "oracle-verify": ("lattice.", "kernels.enumerate", "spectrum."),
}
USED = {
    "torus-spectra": ("lattice.points", "torus.mode_calls", "spectrum.triples_in"),
    "sphere-spectra": ("sphere.f0_calls", "spectrum.triples_in"),
    "oracle-verify": ("oracle.eig_calls", "oracle.assembled_bytes",
                      "kernels.jacobi_calls", "clifford.vector_action_calls",
                      "torus.mode_calls", "sphere.f0_calls"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bypass_layers_read_zero(workload):
    tr = tracer.Tracer()
    tr.install()
    try:
        for req in _smallest_per_kind(workload):
            rc, output, error = _run(req)
            assert error is None and rc == 0, (req, error)
    finally:
        tr.restore()
    metrics = tr.layer_metrics()
    for name, value in metrics.items():
        if name.startswith(BYPASSED[workload]):
            assert value == 0, (workload, name, value)
    for name in USED[workload]:
        assert metrics[name] > 0, (workload, name)
    assert set(metrics) | {"cli.bytes_out", "trace.overhead_frac"} == set(tracer.LAYER_METRICS)
