"""Reference figures for the README: one plain and one traced run per workload.

    python3 bench/reference.py --seed 1

For each workload it runs ``run.py --trace 0`` and ``run.py --trace 1``
with the given seed and the ``run_seconds`` of BENCHMARK.json, and prints
q, q after every insert, bytes per stored value, a few end-to-end figures,
and the layer split of every phase: the self time of each traced
function, from the spans the traced run wrote, as a share of the phase's
traced time.  It also builds the final set of
``grow-churn`` in one shot, to compare its q with the staged one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def splits(spans_file: Path) -> dict[str, tuple[float, list[tuple[str, float]]]]:
    """Per phase: traced time of the root spans, and each function's self-time share."""
    import numpy as np
    from spans import PHASES, aggregate

    table = aggregate(np.load(spans_file))
    out = {}
    for phase in PHASES:
        own = sorted(((self_s, name) for (ph, name), (_, _, self_s) in table.items()
                      if ph == phase), reverse=True)
        whole = sum(self_s for self_s, _ in own)
        out[phase] = (whole, [(name, self_s / whole) for self_s, name in own if self_s > 0])
    return out


def one_shot_q() -> tuple[int, float]:
    """q and build time of grow-churn's final set, built at once with the workloads' seed."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import numpy as np
    from planesep import repository
    from workloads import BUILD_SEED

    primes = np.nonzero(checks.sieve(3 * 10**5))[0].tolist()
    t = time.perf_counter()
    repo = repository.build(primes, n=6, seed=BUILD_SEED)
    return repo.q, time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        plain = run(w, args.seed, spec["run_seconds"], 0)
        layers = run(w, args.seed, spec["run_seconds"], 1)
        print(f"{w} (seed {args.seed}): q {plain['planes_q']} -> {plain['planes_q_final']}, "
              f"{plain['file_bytes_per_value']:.1f} B/value, build {plain['build_s']:.2f} s, "
              f"{plain['query_per_s']:.0f} queries/s, insert "
              f"{plain['insert_values_per_s']:.0f} values/s, load {plain['load_s']:.3f} s")
        for phase, (whole, parts) in splits(HERE / "out" / f"trace-{w}.npz").items():
            top = ", ".join(f"{name} {share:.0%}" for name, share in parts[:6])
            print(f"  {phase:8s} {whole:6.2f} s traced (overhead "
                  f"{layers[f'trace.overhead.{phase}.share']:+.0%}): {top}")
        print(f"  fits per plane: build {layers['build.separator.fits_per_plane']:.2f}, "
              f"insert {layers['insert.separator.fits_per_plane']:.2f}; "
              f"partial planes: build {layers['build.separator.emit_plane.partial']:.0f}, "
              f"insert {layers['insert.separator.emit_plane.partial']:.0f}; "
              f"bit comparisons per query {layers['query.counters.bit_comparisons_per_query']:.0f}")
    q, secs = one_shot_q()
    print(f"grow-churn final set built in one shot at n=6: q {q} in {secs:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
