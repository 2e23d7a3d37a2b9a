"""magdirac end-to-end benchmark.

    python3 perfbench/run.py --workload torus-spectra --seed 1 --seconds 20 --trace 0

Run from the repository root; ``--workload all`` runs the three workloads
one after another.  One run:

1. builds the seeded request stream of the workload (``streams.py``);
2. starts fresh interpreters that import ``magdirac.cli`` from ``src/``,
   build the parser and run the warm-up requests; the median of their
   spawn-to-ready times is ``setup_s``;
3. in one more such interpreter, sends the requests one at a time (a
   closed loop with one client) through ``magdirac.cli.main`` or
   ``oracle.identity_checks``, pass after pass, for ``--seconds``;
4. checks the outputs of the first pass against references computed here
   without magdirac (``reference.py``); later passes must repeat them byte
   for byte;
5. prints a table of every metric with its unit, the configuration, and as
   the last line one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
   with ``--trace 1``).

End-to-end times are scaled to a reference machine speed by a probe that
runs next to the requests (``worker.calibrate``); the measured times are in
the configuration line.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap the program's layers from outside (``tracer.py``) and their spans are
written to ``.bench_trace/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import streams  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_PROBES = 7  # set-up-only interpreters; the measuring one adds an eighth sample
WORKER_TIMEOUT_S = 150.0
BLAS_THREADS = 1  # single-threaded, so runs on a shared machine stay steady
# Times are reported at the machine speed where worker.calibrate() takes
# this long (see README.md, "Machine speed").
REFERENCE_PROBE_S = 0.0007

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MAGDIRAC_TOLERANCE"}
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(job: dict):
    """Start a worker; return (process, kill timer, seconds from spawn to
    READY, speed probe seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=_worker_env(), cwd=str(ROOT),
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        probe = proc.stdout.readline()
        if line != b"READY\n" or not probe.startswith(b"PROBE "):
            proc.stdout.read()
            proc.wait()
            raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    return proc, timer, setup, float(probe[6:])


def _finish(proc, timer) -> bytes:
    try:
        data = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return data


def _parse_worker_output(data: bytes, count: int):
    """Split the worker's stdout into first-pass outputs and the result."""
    outputs = []
    pos = 0
    while data.startswith(b"OUT ", pos):
        end = data.index(b"\n", pos)
        header = json.loads(data[pos + 4:end])
        body = data[end + 1:end + 1 + header["nbytes"]]
        outputs.append((header, body))
        pos = end + 1 + header["nbytes"]
    if not data.startswith(b"RESULT ", pos) or len(outputs) != count:
        raise BenchError("worker output is incomplete")
    return outputs, json.loads(data[pos + 7:])


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _scale(probe_s: float) -> float:
    """Factor from a time measured while the speed probe took ``probe_s`` to
    the same time at the reference speed."""
    return REFERENCE_PROBE_S / probe_s


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "magdirac" / "cli.py").is_file():
        raise BenchError(f"no magdirac sources under {ROOT / 'src'}")
    requests = streams.build(workload, seed)
    job = {
        "src": str(ROOT / "src"),
        "warmup": streams.warmup(workload),
        "requests": requests,
        "seconds": seconds,
        "trace": int(trace),
        "setup_only": True,
    }
    setups = []  # (seconds, speed probe seconds)

    def probe():
        proc, timer, setup, speed = _spawn(job)
        setups.append((setup, speed))
        return proc, timer

    # half the set-up probes before the measured stream, half after it
    for _ in range(SETUP_PROBES // 2):
        _finish(*probe())

    spans_dir = ROOT / ".bench_trace"
    if trace:
        spans_dir.mkdir(exist_ok=True)
    job.update(setup_only=False,
               spans_path=str(spans_dir / f"spans-{workload}-seed{seed}.jsonl"))
    outputs, result = _parse_worker_output(_finish(*probe()), len(requests))
    job.update(setup_only=True)
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        _finish(*probe())

    # a wrong first-pass output is repeated by every later pass, which
    # must reproduce it; a later pass that differs fails on its own
    failures = []
    failed = 0
    for req, (header, body), later in zip(requests, outputs, result["mismatches"]):
        try:
            reference.check(req, header["rc"], body, header["error"])
            failed += later
        except (reference.Mismatch, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{' '.join(req.get('argv', ['identity_checks']))[:120]}: {exc}")
            failed += len(result["passes"])

    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    latencies = [x * _scale(p["probe_s"]) for p in untraced for x in p["latencies_s"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    wall = statistics.median(p["wall_s"] * _scale(p["probe_s"]) for p in untraced)
    e2e = {
        "setup_s": statistics.median(t * _scale(speed) for t, speed in setups),
        "wall_s": wall,
        "req_p50_ms": 1e3 * deciles[4],
        "req_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layers = {}
    if trace:
        per_pass = result["layers"]
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] * _scale(p["probe_s"]) for p in traced) - wall) / wall
    config = dict(result["config"])
    config.update(
        workload=workload, seed=seed, requests_per_pass=len(requests),
        passes=len(untraced), traced_passes=len(traced),
        measured_pass_walls_s=[round(p["wall_s"], 4) for p in result["passes"]],
        measured_setups_s=[round(t, 4) for t, _ in setups],
        speed_scale=[round(_scale(p["probe_s"]), 4) for p in result["passes"]],
        latency_samples=len(latencies), git_sha=_git_sha(), src_digest=_src_digest(),
        src_lines=_src_lines(), nproc=os.cpu_count(), output_digest=result["digest"],
    )
    return {
        "e2e": e2e,
        "layers": layers,
        "config": config,
        "attempted": result["attempted"],
        "failed": failed,
        "failures": failures,
        "fail_frac": failed / result["attempted"],
    }


def report(workload: str, res: dict, trace: bool):
    """Print failures, configuration, the metric table and the JSON line."""
    for line in res["failures"][:10]:
        print(f"FAIL {line}")
    print("config " + json.dumps(res["config"], sort_keys=True))
    rows = [(k, v, END_TO_END[k]) for k, v in res["e2e"].items()]
    rows.append(("fail_frac", res["fail_frac"], "ratio"))
    if trace:
        rows += [(k, v, LAYER_METRICS[k]) for k, v in res["layers"].items()]
    for name, value, unit in rows:
        print(f"{workload:>15}  {name:<30} {value:>16.6g} {unit}")
    metrics, units = (res["layers"], LAYER_METRICS) if trace else (res["e2e"], END_TO_END)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(streams.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    workloads = sorted(streams.WORKLOADS) if ns.workload == "all" else [ns.workload]
    try:
        results = [(w, run(w, ns.seed, ns.seconds, bool(ns.trace))) for w in workloads]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for workload, res in results:
        report(workload, res, bool(ns.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
