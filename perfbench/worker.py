"""Workload process: set up the program, then run closed-loop passes.

Started by ``run.py`` in a fresh interpreter with the job as JSON on stdin.
It imports ``magdirac.cli``, builds the parser, runs the warm-up requests
and writes ``READY`` to stdout; the parent's clock from spawn to that line
is one ``setup_s`` sample.  A set-up probe stops there.

Otherwise it runs the request stream in passes, one request at a time,
until ``seconds`` have elapsed.  With tracing, untraced and traced passes
alternate.  Outputs of the first pass go back to the parent, which checks
them against its own reference; later passes must reproduce them byte for
byte (compared by digest here).  The last stdout line is ``RESULT`` + JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _out(data: bytes):
    sys.__stdout__.buffer.write(data)
    sys.__stdout__.buffer.flush()


def _identity_call(spec):
    import numpy as np
    from magdirac import oracle
    from magdirac.lattice import Lattice
    from magdirac.torus import SpinCData

    lat = Lattice.from_rows(np.array(spec["basis"], dtype=np.float64))
    data = SpinCData(lat, spec["delta"], spec["theta"], spec["A"])
    terms = []
    for nu, re, im in spec["terms"]:
        coeff = np.array(re) + 1j * np.array(im)
        terms.append((tuple(nu), coeff))
        terms.append((tuple(-c for c in nu), np.conj(coeff)))
    potential = oracle.FourierPotential(lat, terms)
    return oracle.identity_checks(data, potential, spec["cutoff"])


def run_request(cli, req):
    """Run one request; return (seconds, exit code, output bytes, error)."""
    buf = io.StringIO()
    err = io.StringIO()
    error = None
    rc = None
    result = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            if req["kind"] == "cli":
                rc = cli.main(req["argv"])
            else:
                result = _identity_call(req["spec"])
                rc = 0
    except Exception:  # a request that raises is a failure, not a crash
        error = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - t0
    if result is not None:
        buf.write(json.dumps(result, default=float))
    return elapsed, rc, buf.getvalue().encode(), error


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel that does not touch magdirac.

    The machine's speed drifts by tens of percent over minutes; this probe,
    run next to the requests, measures the drift so ``run.py`` can report
    times at a reference speed.
    """
    t0 = time.perf_counter()
    items = []
    for i in range(2500):
        x = (i * 0.5 + 1.0) ** 0.5
        items.append((x, i))
    items.sort(key=lambda p: -p[0])
    return time.perf_counter() - t0


def run_pass(cli, requests, tracer, index, digests, mismatches):
    """Run the stream once; return (latencies, stdout bytes, median probe).

    The first pass sends every output to the parent and keeps its digest;
    a later pass counts each output that differs from it in ``mismatches``.
    """
    latencies = []
    probes = []
    bytes_out = 0
    for i, req in enumerate(requests):
        probes.append(calibrate())
        if tracer:
            tracer.request = (index, i)
        elapsed, rc, output, error = run_request(cli, req)
        latencies.append(elapsed)
        bytes_out += len(output)
        if index == 0:
            digests.append(hashlib.sha256(output).hexdigest())
            header = {"i": i, "rc": rc, "error": error, "nbytes": len(output)}
            _out(b"OUT " + json.dumps(header).encode() + b"\n" + output)
        elif error or hashlib.sha256(output).hexdigest() != digests[i]:
            mismatches[i] += 1
    return latencies, bytes_out, statistics.median(probes)


def _config():
    """What the result depends on, recorded with it."""
    import importlib.util

    import numpy as np
    from magdirac import spectrum

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        tol = spectrum.merge_tolerance()
    except AttributeError:
        tol = getattr(spectrum, "DEFAULT_TOLERANCE", None)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "merge_tolerance": tol,
        "merge_tolerance_source": "default, MAGDIRAC_TOLERANCE unset"
        if "MAGDIRAC_TOLERANCE" not in os.environ else "MAGDIRAC_TOLERANCE",
    }


def main():
    job = json.loads(sys.stdin.read())
    src = job["src"]
    sys.path.insert(0, src)
    from magdirac import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"magdirac imported from {cli.__file__}, not from {src}")
    cli.build_parser()
    for req in job["warmup"]:
        _, rc, _, error = run_request(cli, req)
        if error is not None or rc != 0:
            raise SystemExit(f"warm-up request failed: {req} {error or rc}")
    _out(b"READY\n")
    _out(b"PROBE %r\n" % statistics.median(calibrate() for _ in range(5)))
    if job["setup_only"]:
        return

    from tracer import Tracer, write_spans

    requests = job["requests"]
    trace = bool(job["trace"])
    deadline = time.perf_counter() + job["seconds"]
    min_passes = 2 if trace else 1
    passes = []
    layers = []  # per traced pass
    spans = []
    digests = []  # per request, from the first pass
    mismatches = [0] * len(requests)  # later passes that differ from the first
    while len(passes) < min_passes or time.perf_counter() < deadline:
        traced = trace and len(passes) % 2 == 1
        with Tracer() if traced else contextlib.nullcontext() as tracer:
            latencies, bytes_out, probe = run_pass(cli, requests, tracer, len(passes),
                                                   digests, mismatches)
        # a pass's wall_s is the sum of its request latencies: the stream's
        # time inside the program, without the client's digests and pipe writes
        passes.append({"traced": traced, "wall_s": sum(latencies),
                       "latencies_s": latencies, "probe_s": probe})
        if tracer:
            metrics = tracer.layer_metrics()
            metrics["cli.bytes_out"] = bytes_out
            layers.append(metrics)
            spans.extend(tracer.spans)
    if trace:
        write_spans(spans, job["spans_path"])
    result = {
        "passes": passes,
        "layers": layers,
        "attempted": len(passes) * len(requests),
        "mismatches": mismatches,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config": _config(),
    }
    _out(b"RESULT " + json.dumps(result).encode() + b"\n")


if __name__ == "__main__":
    main()
