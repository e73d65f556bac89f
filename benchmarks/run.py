"""cvepdecode benchmark: one workload run, end-to-end or traced.

    python3 benchmarks/run.py --workload online|curve|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from the
checkout's src/; without it the benchmark exits with code 2. Each run
starts its own processes (see worker.py): one that simulates the session
and writes its archive, then, with --trace 0, six cold set-up probes and
the workload process, or with --trace 1, the workload untraced for half
the time and traced for the other half. The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1). Exit code 1
means a correctness check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracing import metric_unit
from worker import METHODS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 6           # plus the workload process's own set-up
TIME_LIMIT_S = 170.0       # every process of one run ends within this
#: Worker processes run OpenBLAS on one thread unless the environment says
#: otherwise. With its default threading on a shared 2-core host the same
#: commit's per-decision times drifted by 20-30 % between runs minutes apart
#: (see README.md), more than any regression bound can absorb.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "worker_openblas_threads": WORKER_ENV["OPENBLAS_NUM_THREADS"],
    }


def call(role: str, args, workdir: Path, deadline: float, **extra) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    for key, value in extra.items():
        if value is True:
            cmd.append(f"--{key}")
        elif value is not False:
            cmd += [f"--{key}", str(value)]
    proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {role} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    setups = [call("setup", args, workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = call("run", args, workdir, deadline, seconds=args.seconds)
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "trials_per_s": (run["trials_per_s"], "1/s"),
    }
    for tag in METHODS:
        metrics[f"{tag}_ms"] = (run["methods"][tag]["ms"], "ms")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    return run, metrics


def traced(args, workdir: Path, deadline: float, gen: dict) -> tuple[dict, dict]:
    base = call("run", args, workdir, deadline, seconds=args.seconds / 2.0)
    run = call("run", args, workdir, deadline, rounds=base["rounds"], trace=True)
    shutil.copy(workdir / "spans.json", WORK / f"spans-{args.workload}-{args.seed}.json")
    layers = dict(run["layers"])
    layers.update(gen["layers"])
    layers["archive.bytes"] = gen["archive_bytes"]
    layers["trace.overhead_pct"] = 100.0 * (run["wall_s"] / base["wall_s"] - 1.0)
    metrics = {k: (v, metric_unit(k)) for k, v in sorted(layers.items())}
    run["problems"] = base["problems"] + run["problems"]
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"]
    print(f"{base['rounds']} rounds untraced in {base['wall_s']:.3f} s, "
          f"traced in {run['wall_s']:.3f} s")
    return run, metrics


def main() -> int:
    p = argparse.ArgumentParser(description="cvepdecode benchmark (one workload run)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "cvepdecode" / "__init__.py").is_file():
        print(f"no cvepdecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT_S
    print("environment: " + json.dumps(environment()))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        gen = call("gen", args, workdir, deadline, trace=bool(args.trace))
        (workdir / "gen.json").write_text(json.dumps(gen))
        if args.trace:
            run, metrics = traced(args, workdir, deadline, gen)
        else:
            run, metrics = end_to_end(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {run['rounds']} rounds in "
          f"{run['wall_s']:.2f} s, {run['attempted']} decisions attempted, "
          f"{run['failed']} failed")
    for tag in METHODS:
        m = run["methods"][tag]
        tail = f", p90 {m['p90_ms']:.3f} ms" if "p90_ms" in m else ""
        print(f"  {tag:8s} {m['n']:6d} decisions, median {m['ms']:.3f} ms{tail}, "
              f"labels {m['labels_sha1']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not run["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
