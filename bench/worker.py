"""One benchmark process: set up a workload, then run its ops closed-loop.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` on
stdout when set-up is done, then (role ``main``) runs ops until their summed
wall time reaches ``--seconds`` (or exactly ``--ops`` ops), and prints one
JSON line with the per-op times, failures, summaries and environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREADS = 1

# Pin BLAS threads before numpy loads; the same variables `lipvar`'s CLI sets.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def _import_lipvar(root: Path):
    src = root / "src"
    if not (src / "lipvar" / "__init__.py").is_file():
        sys.exit(f"error: no lipvar sources under {src}")
    sys.path.insert(0, str(src))
    import lipvar

    if Path(lipvar.__file__).resolve().parent != (src / "lipvar").resolve():
        sys.exit(f"error: imported lipvar from {lipvar.__file__}, not {src}")


def _environment(root: Path, power_paths) -> dict:
    import subprocess

    import numpy as np
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {"threads": THREADS, "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas_version(np), "openblas_scipy": blas_version(scipy),
            "git_rev": rev, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "power_paths": sorted(power_paths)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    ap.add_argument("--ops", type=int, default=None, help="fixed op count")
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    root = Path(args.root)

    _import_lipvar(root)
    import gc
    import json
    import resource
    from time import perf_counter

    from lipvar.errors import LipvarError
    from workloads import WORKLOADS, power_path

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    state = wl.setup()
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    op_times, inputs, summaries, failures = [], [], [], []
    paths = {power_path(state)} if state is not None else set()
    k = 0
    while (k < args.ops) if args.ops is not None else (k == 0 or sum(op_times) < args.seconds):
        inp = wl.draw(args.seed, k)
        if tracer:
            tracer.op = k
        t0 = perf_counter()
        try:
            out = wl.op(state, inp)
        except LipvarError as e:
            out, err = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if tracer:
            tracer.op = None      # checks are not part of the op
        if out is not None:
            try:
                errors, summary = wl.check(state, inp, out)
                err = "; ".join(errors) or None
            except LipvarError as e:
                summary, err = {}, f"check raised {type(e).__name__}: {e}"
            if state is None:            # field_build builds its domain in the op
                paths.add(power_path(out[0]))
        else:
            summary = {}
        if err is not None:
            failures.append({"op": k, "inputs": inp, "error": err})
            print(f"FAILED op {k} inputs={json.dumps(inp)} error={err}",
                  file=sys.stderr, flush=True)
        op_times.append(dt)
        inputs.append(inp)
        summaries.append(summary)
        del out
        gc.collect()             # drop the op's reference cycles before the next op
        k += 1

    env = _environment(root, paths)
    result = {"op_times": op_times, "failures": failures, "summaries": summaries,
              "inputs": inputs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": env}
    if tracer:
        from spans import layer_metrics, op_counts

        result["layers"] = layer_metrics(tracer.spans, range(k), op_times)
        result["counts"] = [op_counts(tracer.spans, i) for i in range(k)]
        out_dir = root / "bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "env": env})
        tracer.uninstall()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
