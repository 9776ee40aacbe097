"""critevo benchmark: one workload per invocation.

Usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/critevo`` next to ``perfbench``).
Each workload runs in fresh worker processes (``perfbench/workload.py``)
with BLAS/OpenMP threads capped at the number of usable CPUs.  Two extra
workers only set up, so ``setup_s`` is the median of three set-ups.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The line before it holds the detail: per-workload
timings with sample counts, the environment, and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("analysis", "sweep-1d", "field-2d")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({v: nproc for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, setup_only: bool, tag: str, size: str, started: float) -> dict:
    result = OUT / f"result-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, "-m", "perfbench.workload", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result), "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(DEADLINE_S - (time.monotonic() - started), 1.0)
    t0 = time.monotonic()
    # its own process group, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {tag} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{stderr[-2000:]}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def main(argv: list[str] | None = None, size: str = "full") -> int:
    """Run one workload; ``size='toy'`` shrinks its inputs for the self-test."""
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "critevo" / "__init__.py").is_file():
        print(f"error: no critevo sources under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args, True, f"setup{k}", size, started)["setup_s"]
                      for k in range(SETUP_SAMPLES - 1)]
        report = run_worker(args, False, "measure", size, started)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    detail = report["detail"]
    if args.trace:
        metrics = report["per_layer"]
    else:
        detail["setup_s"] = {"median": statistics.median(setups), "n": len(setups),
                             "samples": setups}
        metrics = {
            "op_s": {"value": detail["op_s"]["median"], "unit": "s"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "detail": detail, "env": report["env"], "failures": report["failures"],
            "absent": report.get("absent", []), "spans": report.get("spans")}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps({"correct": report["failed"] == 0 and report["attempted"] > 0,
                      "attempted": report["attempted"], "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
