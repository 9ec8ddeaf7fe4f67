"""One benchmark workload, run in a process of its own.

``run.py`` launches this file; it is not meant to be called by hand.  The
process makes its inputs, warms up, and then drives ``planesep.repository``
through the workload's phases: build, queries, staged inserts and
save/load.  Every output is checked against the benchmark's own
computations (``checks.py``), outside the timed regions.  The last line
of standard output is one JSON object with the figures.

Each workload's stored set, build seed and insert schedule are fixed
(drawn once with ``DATA_SEED``); ``--seed`` draws the query stream.  Insert
cost is set by a handful of plane emissions, and letting the seed redraw
the stored set moved insert throughput 2.5-fold between seeds.  The
machine's speed drifts over seconds, so timed work is repeated and spread
over the run: builds, the insert schedule on copies of the built
repository, query slices and save/load samples take turns in rounds, and
the median or total is reported.  Every timed region is also scaled to
the machine's reference speed by ``clock.Clock``, which probes that speed
on a timer signal throughout the run.

With ``--trace-out`` the layers are wrapped (``spans.py``), the per-layer
figures are added to the result and the spans are written to that file.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import resource
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed
from clock import Clock
from planesep import OpCounters, PlanesepError, repository

DATA_SEED = 0            # draws each workload's stored set and insert schedule
BUILD_SEED = 0           # the seed handed to repository.build
QUERY_BLOCK = 5_000      # queries per round of the closed loop
SINGLES = 450            # single-value insert calls per schedule
ROUNDS = 10              # query slices per run; repeats and samples are spread over them
RELOAD_QUERIES = 10_000  # checked queries against the reloaded repository

# an operation that raises one of these counts as failed; anything else aborts
OP_ERRORS = (PlanesepError, ValueError, AssertionError)


@dataclass
class Workload:
    name: str
    n: int                        # digit width of the build
    base: list[int]               # values given to build
    batches: list[list[int]]      # staged batch inserts, in order
    singles: list[int]            # then one insert call per value
    candidates: list[int]         # the query stream, cycled as needed
    final: np.ndarray             # membership table of the final set
    min_queries: int
    build_repeats: int            # builds timed; the median is reported
    insert_replicas: int          # runs of the insert schedule, all but the first on copies
    persist_samples: int          # save/load samples, spread over the rounds
    save_group: int               # saves per timing sample, so a sample is >= ~50 ms
    load_group: int               # loads per save/load sample, each one a timing sample
    grow_to: int | None = None    # grow_dimension target after the build
    queries_after_build: bool = True
    burst: int = 0                # checked queries after every insert stage


def _staged(values: list[int]) -> tuple[list[list[int]], list[int]]:
    """Halving batch sizes down to single digits, then SINGLES one-value calls."""
    batches = []
    rest = values
    while len(rest) > SINGLES + 8:
        take = (len(rest) - SINGLES + 1) // 2
        batches.append(rest[:take])
        rest = rest[take:]
    return batches, rest


def primes6_serve(seed: int) -> Workload:
    """All primes below 10^6 at n=6; a ~2% share is held out and inserted later."""
    table = checks.sieve(10**6)
    primes = np.nonzero(table)[0]
    rng = np.random.default_rng([DATA_SEED, 0])
    held_mask = rng.random(primes.size) < 0.02
    held = primes[held_mask][rng.permutation(int(held_mask.sum()))]
    batches, singles = _staged(held.tolist())
    cands = np.random.default_rng([seed, 1]).integers(0, 10**6, 50_000)
    return Workload(
        name="primes6-serve", n=6, base=primes[~held_mask].tolist(),
        batches=batches, singles=singles, candidates=cands.tolist(), final=table,
        min_queries=100_000, build_repeats=1, insert_replicas=4, persist_samples=7,
        save_group=1, load_group=1,
    )


def wide25_build(seed: int) -> Workload:
    """8,000 distinct values below 10^6 stored at n=25: 6,000 built, 2,000 staged."""
    rng = np.random.default_rng([DATA_SEED, 0])
    values = rng.choice(10**6, 8_000, replace=False)
    batches, singles = _staged(values[6_000:].tolist())
    crng = np.random.default_rng([seed, 1])
    cands = np.concatenate([crng.choice(values, 25_000), crng.integers(0, 10**6, 25_000)])
    return Workload(
        name="wide25-build", n=25, base=values[:6_000].tolist(),
        batches=batches, singles=singles, candidates=crng.permutation(cands).tolist(),
        final=checks.membership(values, 10**6), min_queries=50_000,
        build_repeats=3, insert_replicas=8, persist_samples=10, save_group=10, load_group=2,
        queries_after_build=False,
    )


def grow_churn(seed: int) -> Workload:
    """Primes below 10^5 at n=5, grown to n=6, then every prime in [10^5, 3*10^5)."""
    table = checks.sieve(3 * 10**5)
    primes = np.nonzero(table)[0]
    new = primes[primes >= 10**5]
    rng = np.random.default_rng([DATA_SEED, 0])
    batches, singles = _staged(new[rng.permutation(new.size)].tolist())
    cands = np.random.default_rng([seed, 1]).integers(0, 3 * 10**5, 50_000)
    return Workload(
        name="grow-churn", n=5, base=primes[primes < 10**5].tolist(),
        batches=batches, singles=singles, candidates=cands.tolist(), final=table,
        min_queries=50_000, build_repeats=4, insert_replicas=5, persist_samples=7,
        save_group=2, load_group=1,
        grow_to=6, queries_after_build=False, burst=2_000,
    )


WORKLOADS = {"primes6-serve": primes6_serve, "wide25-build": wide25_build,
             "grow-churn": grow_churn}


def warm_up(w: Workload) -> None:
    """Touch every code path once on a small store before the first timed call."""
    small = w.base[:: max(1, len(w.base) // 200)][:200]
    repo = repository.build(small[:-10], w.n, BUILD_SEED)
    for v in small[:50]:
        repository.query(repo, v)
        repository.query(repo, v - 1)
    repository.insert(repo, small[-10:])
    buf = io.StringIO()
    repository.save(repo, buf)
    repository.load(io.StringIO(buf.getvalue()))


def addresses(repo) -> dict[int, int]:
    return {value: ov.bits for value, _, ov in repo.entries()}


class Run:
    """The state of one workload run: counts, timings, check failures."""

    def __init__(self, w: Workload, tracer, tmp: Path, clock: Clock):
        self.w = w
        self.clock = clock
        self.tracer = tracer
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.phase_s = {"build": 0.0, "query": 0.0, "insert": 0.0, "persist": 0.0}
        # timed samples, each with the wall-clock interval it covers; times
        # exclude the speed probes and are scaled to reference speed at the end
        self.build_times: list[tuple[float, float, float]] = []     # (a, b, s)
        self.replicas: list[list[tuple[float, float, float, float]]] = []  # stages of each
        self.slices: list[tuple[float, float, int, float, array]] = []  # (a, b, queries, s, ns each)
        self.saves: list[tuple[float, float, float]] = []
        self.loads: list[tuple[float, float, float]] = []
        self.cursor = 0
        self.counters: dict[str, dict[str, int]] = {}

    def phase(self, name: str | None) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))

    def tally(self, phase: str, counters: OpCounters) -> None:
        into = self.counters.setdefault(phase, {})
        for k, v in counters.as_dict().items():
            into[k] = into.get(k, 0) + v

    # -- queries --------------------------------------------------------------

    def queries(self, repo, truth: np.ndarray, count: int | None,
                seconds: float = 0.0, at_least: int = 0, timed: bool = True) -> None:
        """Closed-loop scalar queries in whole blocks; answers checked afterwards.

        Runs ``count`` queries, or else whole blocks until both ``seconds``
        have passed and ``at_least`` queries were made.  A ``timed`` call
        is one slice of the query metrics.
        """
        cands = self.w.candidates
        clock = time.perf_counter_ns
        probes = self.clock
        query = repository.query
        counters = OpCounters()
        lat = array("q")
        asked: list[int] = []
        found: list[bool] = []
        done = 0
        self.phase("query")
        start = self.clock.mark()
        while True:
            lo = self.cursor % len(cands)
            block = cands[lo : lo + QUERY_BLOCK]
            block += cands[: QUERY_BLOCK - len(block)]
            for v in block:
                t0 = clock()
                spent = probes.spent
                try:
                    res = query(repo, v, counters)
                except OP_ERRORS:
                    self.failed += 1
                    continue
                finally:
                    spent = probes.spent - spent
                    lat.append(clock() - t0 - int(spent * 1e9))
                asked.append(v)
                found.append(res.found)
            self.cursor += QUERY_BLOCK
            done += QUERY_BLOCK
            if count is not None:
                if done >= count:
                    break
            elif done >= at_least and time.perf_counter() - start[0] >= seconds:
                break
        end = self.clock.mark()
        wall = Clock.busy(start, end)
        self.phase(None)
        if timed:
            self.slices.append((start[0], end[0], done, wall, lat))
        self.phase_s["query"] += wall
        self.attempted += done
        self.check(checks.check_answers, asked, found, truth, "queries")
        self.check(checks.check_total_query_cost, counters.multiplications, len(asked),
                   repo.mapping.n, repo.q, "queries")
        self.tally("query", counters)

    def checked_queries(self, repo, truth: np.ndarray, cands: list[int], what: str) -> None:
        """Untimed queries with a per-query cost check."""
        counters = OpCounters()
        found, mults = [], []
        for v in cands:
            before = counters.multiplications
            found.append(repository.query(repo, v, counters).found)
            mults.append(counters.multiplications - before)
        self.attempted += len(cands)
        self.check(checks.check_answers, cands, found, truth, what)
        self.check(checks.check_query_cost, mults, repo.mapping.n, repo.q, what)

    # -- phases ---------------------------------------------------------------

    def build(self):
        self.phase("build")
        a = self.clock.mark()
        repo = repository.build(self.w.base, self.w.n, BUILD_SEED)
        b = self.clock.mark()
        dt = Clock.busy(a, b)
        self.phase(None)
        self.build_times.append((a[0], b[0], dt))
        self.phase_s["build"] += dt
        self.attempted += 1
        self.tally("build", repo.counters)
        return repo

    def grow(self, repo):
        before = addresses(repo)
        q = repo.q
        self.phase("insert")
        a = self.clock.mark()
        repo = repository.grow_dimension(repo, self.w.grow_to)
        self.phase_s["insert"] += Clock.busy(a, self.clock.mark())
        self.phase(None)
        self.attempted += 1
        self.check(checks.check_prefixes, before, q, addresses(repo), repo.q, "grow_dimension")
        if repo.q != q or repo.mapping.n != self.w.grow_to:
            self.failures.append(f"grow_dimension: q {q}->{repo.q}, n {repo.mapping.n}")
        return repo

    def insert_calls(self, repo, calls: list[list[int]], stored: np.ndarray | None,
                     lat: array, quiet: array) -> None:
        """Timed insert calls, each latency appended to ``lat``, and to
        ``quiet`` if the call added no plane; values that went in are marked
        in ``stored``."""
        for values in calls:
            self.phase("insert")
            t0 = time.perf_counter_ns()
            spent = self.clock.spent
            planes = -1
            try:
                planes = repository.insert(repo, values).planes_added
            except OP_ERRORS:
                self.failed += 1
            else:
                if stored is not None:
                    stored[values] = True
            finally:
                spent = self.clock.spent - spent
                dt = time.perf_counter_ns() - t0 - int(spent * 1e9)
                self.phase(None)
            self.attempted += 1
            lat.append(dt)
            if planes == 0:
                quiet.append(dt)

    def schedule(self, repo, stored: np.ndarray | None) -> None:
        """The staged insert schedule; with ``stored``, checked after every stage."""
        before = repo.counters.snapshot()
        stages = [([b], f"insert stage {i} ({len(b)} values)")
                  for i, b in enumerate(self.w.batches)]
        stages.append(([[v] for v in self.w.singles], "single-value inserts"))
        prior, q = (addresses(repo), repo.q) if stored is not None else (None, 0)
        parts = []  # per stage: (a, b, s in insert calls, mean ns of the calls adding no plane)
        for calls, what in stages:
            lat, quiet = array("q"), array("q")
            a = time.perf_counter()
            self.insert_calls(repo, calls, stored, lat, quiet)
            parts.append((a, time.perf_counter(), sum(lat) / 1e9,
                          sum(quiet) / len(quiet) if quiet else 0.0))
            if stored is None:
                continue
            now = addresses(repo)
            self.check(checks.check_prefixes, prior, q, now, repo.q, what)
            self.check(checks.check_count, repo.count, int(stored.sum()), what)
            prior, q = now, repo.q
            if self.w.burst:
                self.queries(repo, stored, self.w.burst, timed=False)
        self.tally("insert", repo.counters.delta(before))
        self.phase_s["insert"] += sum(part[2] for part in parts)
        self.replicas.append(parts)

    def persist_sample(self, repo) -> tuple[object, Path]:
        """One timed group of saves, then timed loads of the last file.

        Every save writes a new file: rewriting one path in place made ext4
        flush on close, which doubled some saves.
        """
        w = self.w
        paths = [self.tmp / f"repo-{len(self.saves)}-{k}.txt" for k in range(w.save_group)]
        self.phase("persist")
        a = self.clock.mark()
        for path in paths:
            repository.save(repo, path)
        b = self.clock.mark()
        t_save = Clock.busy(a, b)
        self.saves.append((a[0], b[0], t_save / w.save_group))
        for _ in range(w.load_group):
            a = self.clock.mark()
            loaded = repository.load(paths[-1])
            b = self.clock.mark()
            self.loads.append((a[0], b[0], Clock.busy(a, b)))
        self.phase(None)
        self.phase_s["persist"] += t_save + sum(t for _, _, t in self.loads[-w.load_group:])
        self.attempted += w.save_group + w.load_group
        for path in paths[:-1]:
            path.unlink()
        return loaded, paths[-1]


def spaced(repeats: int, i: int) -> bool:
    """Whether round ``i`` takes one of ``repeats`` samples spread evenly over the rounds."""
    return (i + 1) * repeats // ROUNDS > i * repeats // ROUNDS


def at_reference_speed(clock: Clock, samples: list[tuple]) -> np.ndarray:
    """Each sample's figures after its interval (the first two fields),
    divided by the machine's slowness over that interval."""
    return np.array([[x / clock.slowness(a, b) for x in rest] for a, b, *rest in samples])


def run(w: Workload, seconds: float, slices: list[int] | None, tracer, tmp: Path,
        clock: Clock) -> dict:
    """Build, then ROUNDS rounds of query slices, insert replicas and persist samples.

    The first build and the checked insert pass make the workload's final
    repository.  Repeated builds, insert replicas (on copies of the built
    repository) and save/load samples are spread over the rounds with the
    query slices, so every timed figure samples the whole run.
    """
    r = Run(w, tracer, tmp, clock)
    repo = r.build()
    planes_q = repo.q
    built = np.zeros(w.final.shape[0], dtype=bool)
    built[w.base] = True
    r.check(checks.check_count, repo.count, len(set(w.base)), "build")
    r.check(checks.check_separation, addresses(repo), repo.q, repo.state.plane_matrix,
            repo.state.config.epsilon)
    if w.grow_to is not None:
        repo = r.grow(repo)
    pristine = copy.deepcopy(repo)
    stored = built.copy()
    r.schedule(repo, stored)

    # queries run on the built repository or on the final one
    target, truth = (pristine, built) if w.queries_after_build else (repo, stored)
    at_least = -(-w.min_queries // ROUNDS)
    for i in range(ROUNDS):
        if spaced(w.build_repeats - 1, i):
            r.build()
        r.queries(target, truth, slices[i] if slices else None, seconds / ROUNDS, at_least)
        if spaced(w.insert_replicas - 1, i):
            r.schedule(copy.deepcopy(pristine), None)
        if spaced(w.persist_samples, i):
            loaded, path = r.persist_sample(repo)
            data = path.read_bytes()
            path.unlink()
    del pristine

    # the final set, separated, persisted and served again after reload
    again = tmp / "resaved.txt"
    repository.save(loaded, again)
    r.check(checks.check_same_bytes, data, again.read_bytes(), "save -> load -> save")
    again.unlink()
    r.check(checks.check_count, repo.count, int(w.final.sum()), "final set")
    if not np.array_equal(stored, w.final):
        r.failures.append("final stored set differs from the workload's value set")
    final = addresses(repo)
    r.check(checks.check_separation, final, repo.q, repo.state.plane_matrix,
            repo.state.config.epsilon)
    r.check(checks.check_prefixes, final, repo.q, addresses(loaded), loaded.q, "reload")
    r.check(checks.check_count, loaded.count, repo.count, "reload")
    r.checked_queries(loaded, stored, w.candidates[:RELOAD_QUERIES], "queries after reload")

    clock.stop()
    # medians over slices, replicas and samples at reference speed: a slow
    # spell of the machine moves one of them, not the figure
    count = np.array([s[2] for s in r.slices])
    wall = at_reference_speed(clock, [s[:2] + s[3:4] for s in r.slices])[:, 0]
    latencies = np.concatenate([np.frombuffer(lat, dtype=np.int64) / clock.slowness(a, b)
                                for a, b, _, _, lat in r.slices])
    replica_wall = [at_reference_speed(clock, [p[:3] for p in parts]).sum() for parts in r.replicas]
    replica_quiet = [at_reference_speed(clock, [parts[-1]])[0, 1] for parts in r.replicas]
    builds, saves, loads = (at_reference_speed(clock, x)[:, 0]
                            for x in (r.build_times, r.saves, r.loads))
    inserted = sum(len(b) for b in w.batches) + len(w.singles)
    result = {
        "correct": not r.failures,
        "failures": r.failures,
        "attempted": r.attempted,
        "failed": r.failed,
        "slices": count.tolist(),
        "phase_s": r.phase_s,
        "slowness": clock.mean_slowness(),
        "metrics": {
            "build_s": float(np.median(builds)),
            "query_per_s": float(np.median(count / wall)),
            "query_p99_us": float(np.percentile(latencies, 99)) / 1e3,
            "insert_values_per_s": float(np.median(inserted / np.array(replica_wall))),
            "insert1_mean_us": float(np.median(replica_quiet)) / 1e3,
            "save_s": float(np.median(saves)),
            "load_s": float(np.median(loads)),
            "planes_q": planes_q,
            "planes_q_final": repo.q,
            "file_bytes_per_value": len(data) / repo.count,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if tracer is not None:
        layers = tracer.metrics()
        for phase, counters in r.counters.items():
            for k, v in counters.items():
                layers[f"{phase}.counters.{k}"] = v
        nq, asked = r.counters["query"], layers["query.repository.query.calls"]
        layers["query.counters.multiplications_per_query"] = nq["multiplications"] / asked
        layers["query.counters.bit_comparisons_per_query"] = nq["bit_comparisons"] / asked
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--launch-ns", type=int, required=True,
                    help="time.monotonic_ns() when the parent launched this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--queries", help="exact query counts of the slices, comma-separated")
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args(argv)

    clock = Clock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock: Clock) -> int:
    begun = time.perf_counter()
    w = WORKLOADS[args.workload](args.seed)
    warm_up(w)
    # set-up at reference speed, from the probes made since the imports
    ready = clock.mark()
    setup_s = ((time.monotonic_ns() - args.launch_ns) / 1e9 - ready[1]) \
        / clock.slowness(begun, ready[0], past_only=True)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_out is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    args.tmp.mkdir(parents=True, exist_ok=True)
    slices = [int(k) for k in args.queries.split(",")] if args.queries else None
    result = run(w, args.seconds, slices, tracer, args.tmp, clock)
    result["setup_s"] = setup_s
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
    for line in result["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
