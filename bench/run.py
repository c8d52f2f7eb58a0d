"""lipvar benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload omega_flat --seed 1 --seconds 15 --trace 0

Workloads: omega_flat, probe_saw, field_build (see bench/README.md).  With
``--trace 0`` the run prints the end-to-end metrics: three or more set-ups
in fresh processes (the median is ``setup_s``), then ops in the last one
for ``--seconds`` seconds of op time.  With ``--trace 1`` it runs the ops once
untraced and once with span wrappers, and prints the per-layer metrics and
the tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  lipvar is imported from ./src only;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("omega_flat", "probe_saw", "field_build")
# Set-up samples per run, the op process's included: at least SETUP_MIN, and
# more while they sum to under SETUP_SECONDS, so that a set-up of well under
# a second (field_build: imports only) still gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0
TIME_LIMIT_S = 170.0  # kill workers that would take the run past this


def units(kind):
    """Metric name -> unit, from BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class WorkerError(RuntimeError):
    pass


def run_worker(root, args, role, trace, deadline, ops=None):
    """Run worker.py to completion; return (seconds until READY, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--role", role, "--root", str(root)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise WorkerError(f"worker ({role}) exited with status {code}")
    return ready, (json.loads(last) if role == "main" else None)


def end_to_end(root, args, deadline):
    setups = []
    while len(setups) < SETUP_MIN - 1 or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX - 1):
        setups.append(run_worker(root, args, "setup", 0, deadline)[0])
    ready, res = run_worker(root, args, "main", 0, deadline)
    setups.append(ready)
    times = res["op_times"]
    values = {"op_p50_s": statistics.median(times),
              "ops_per_s": len(times) / sum(times),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": res["peak_rss_mb"]}
    unit = units("end_to_end")
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    return [res], metrics


def traced(root, args, deadline):
    _, res = run_worker(root, args, "main", 1, deadline)
    # the same ops untraced, for the tracing overhead
    _, plain = run_worker(root, args, "main", 0, deadline, ops=len(res["op_times"]))
    values = dict(res["layers"])
    values["trace.op_p50_s"] = statistics.median(res["op_times"])
    values["trace.overhead_s"] = values["trace.op_p50_s"] - statistics.median(plain["op_times"])
    metrics = {k: {"value": values[k], "unit": u} for k, u in units("per_layer").items()}
    for n, counts in enumerate(res["counts"]):
        print(f"op {n} counts {json.dumps(counts)}")
    return [res, plain], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lipvar" / "__init__.py").is_file():
        print(f"error: run from the repository root; {root}/src/lipvar is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        runs, metrics = (traced if args.trace else end_to_end)(root, args, deadline)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(len(r["op_times"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    print("env " + json.dumps(runs[-1]["env"]))
    for r in runs:
        for n, (inp, t, s) in enumerate(zip(r["inputs"], r["op_times"], r["summaries"])):
            print(f"op {n} {t:.3f} s inputs={json.dumps(inp)} result={json.dumps(s)}")
    for f in failures:
        print(f"FAILED op {f['op']} inputs={json.dumps(f['inputs'])} error={f['error']}")
    print(f"fail_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
