"""Run one benchmark workload for one seed and print its figures.

    python3 bench/run.py --workload primes6-serve --seed 1 --seconds 6 --trace 0

Run it from the root of a checkout.  The workload runs in a child process
(``workloads.py``) with numpy's BLAS pool pinned to one thread and the
checkout's ``src`` on the import path.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up
time is measured in three launches (a set-up-only probe before the full
run, the full run, and a probe after it) and their median is
reported.  ``--trace 1`` runs the workload once untraced and once traced,
and reports the per-layer metrics of BENCHMARK.json with the tracing
overhead of each phase.  The traced run's
spans go to ``bench/out/trace-<workload>.npz``.

Any error, or a run that would exceed the time limit, exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 1          # set-up-only launches before and again after the full run
TIME_LIMIT_S = 170.0      # whole invocation, all child processes included
WORKLOADS = ("primes6-serve", "wide25-build", "grow-churn")
PHASES = ("build", "query", "insert", "persist")

# one BLAS thread: the machine has two CPUs and the caller is one closed loop
PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in PIN_THREADS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, deadline: float, extra: list[str]) -> dict:
    """Run workloads.py once and return the JSON object it printed last."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the next launch")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--tmp", str(OUT / f"tmp-{os.getpid()}")]
    cmd += extra
    cmd += ["--launch-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def metric_table(key: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[key]


def end_to_end(args, deadline: float) -> dict:
    def probes() -> list[float]:
        return [launch(args, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]

    setups = probes()
    res = launch(args, deadline, [])
    setups += [res["setup_s"]] + probes()
    figures = dict(res["metrics"], setup_s=statistics.median(setups))
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in metric_table("end_to_end")},
    }


def per_layer(args, deadline: float) -> dict:
    plain = launch(args, deadline, [])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{args.workload}.npz"
    traced = launch(args, deadline, ["--queries", ",".join(map(str, plain["slices"])),
                                     "--trace-out", str(spans)])
    figures = dict(traced["layers"])
    for phase in PHASES:  # both runs' phase times at reference speed
        untraced = plain["phase_s"][phase] / plain["slowness"]
        extra = traced["phase_s"][phase] / traced["slowness"] - untraced
        figures[f"trace.overhead.{phase}.s"] = extra
        figures[f"trace.overhead.{phase}.share"] = extra / untraced
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        # a layer that was never entered in a phase has zero calls and time
        "metrics": {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]}
                    for m in metric_table("per_layer")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the closed-loop query window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "planesep" / "__init__.py").is_file():
        print(f"bench: no planesep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / f"tmp-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
