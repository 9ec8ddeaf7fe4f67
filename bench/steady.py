"""How steady is the benchmark?  Runs every workload repeatedly and compares.

    python3 bench/steady.py --runs 10 --sets 2

Each set runs every workload of BENCHMARK.json ``--runs`` times for its
``run_seconds``, each time with another seed (set k uses seeds
1 + k*runs ... (k+1)*runs), on the same code.  For each workload and
end-to-end metric it prints the median and quartiles of every set, the
spread (interquartile distance as a share of the median) and, with two or
more sets, how far each later set's median lies from the first set's, in
either direction, as a share of the first.  Every spread and every such
distance is compared with the metric's bound; the exit code is 0 only if
all are within it.  Raw results go to ``bench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def flag(share: float, metric: dict) -> str:
    """'' within a third of the bound, '!' within the bound, '!!' beyond it."""
    return "" if share <= metric["bound"] / 3 else "!" if share <= metric["bound"] else "!!"


def report(spec: dict, results: dict) -> bool:
    """Print the table; True when every bound holds."""
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = {round(r["failed"] / r["attempted"], 12) for runs in sets for r in runs}
        print(f"  failed share per run: {sorted(shares)}"
              + ("" if len(shares) == 1 else "  <- differs between runs"))
        ok &= len(shares) == 1 and all(r["correct"] for runs in sets for r in runs)
        print(f"  {'metric':22s} {'bound':>6s} " + " ".join(
            f"{'set' + str(k) + ' median [q1, q3] spread':>44s}" for k in range(len(sets)))
            + "   apart")
        for name, m in bounds.items():
            cols, medians = [], []
            for runs in sets:
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                ok &= sp <= m["bound"]
                cols.append(f"{med:12.5g} [{q1:10.5g}, {q3:10.5g}] {sp:6.3f}{flag(sp, m):2s}")
            apart = [abs(b - medians[0]) / medians[0] for b in medians[1:]]
            ok &= all(d <= m["bound"] for d in apart)
            print(f"  {name:22s} {m['bound']:6.2f} " + " ".join(cols)
                  + "".join(f"   {d:6.3f}{flag(d, m)}" for d in apart))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(args.sets)] for w in names}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            for w in names:  # interleaved, so drift in the machine hits every workload
                results[w][k].append(run_once(w, seed, spec["run_seconds"]))
                print(f"set {k} seed {seed} {w} done", file=sys.stderr, flush=True)
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    return 0 if report(spec, results) else 1

if __name__ == "__main__":
    sys.exit(main())
