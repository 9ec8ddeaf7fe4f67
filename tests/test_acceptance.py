"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the reports.
"""

import io
import xml.etree.ElementTree as ET
from collections import deque

import numpy as np
import pytest

from planesep import oracle, repository, svgplot
from planesep.counters import OpCounters
from planesep.separator import OfferKind, emit_plane, finalize, init, offer, run

EPS = 1e-9


def report(msg: str) -> None:
    print(f"[acceptance] {msg}")


def primes_below(limit):
    return [int(p) for p in oracle.sieve(limit).primes() if p < limit]


def digit_points(values, n):
    return np.array([[(v // 10**i) % 10 for i in range(n)] for v in values],
                    dtype=float)


def test_c01_separation_soundness_200_instances():
    """200 seeded instances across sizes, dims, digit and real data: the
    independent verifier must pass every time."""
    checked = 0
    total_points = 0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 26))
        count = int(round(10 ** rng.uniform(1.0, np.log10(5000))))
        if i % 2 == 0:
            cap = 10 ** min(n, 6)
            count = min(count, max(10, cap // 2))
            values = rng.choice(cap, size=count, replace=False)
            pts = digit_points([int(v) for v in values], n)
        else:
            scale = 1.0 if i % 4 == 1 else 9.0
            pts = rng.random((count, n)) * scale
        state = run(pts, n, seed=i)
        verdict = oracle.verify_separation(state.points, state.plane_matrix, EPS)
        assert verdict.ok, (
            f"instance {i} (n={n}, N={count}): "
            f"incidences={verdict.incidences[:3]} collisions={verdict.collisions[:3]}"
        )
        assert state.count == pts.shape[0]
        checked += 1
        total_points += pts.shape[0]
    report(f"criterion 1 PASS: 200/200 instances verified ({total_points} points)")


def test_c02_exact_retrieval_primes_1e4():
    """Repository of all primes below 10^4 answers every candidate exactly."""
    table = oracle.sieve(10_000)
    repo = repository.build(primes_below(10_000), 4, 42)
    false_pos = false_neg = 0
    for v in range(10_000):
        found = repository.query(repo, v).found
        truth = bool(table.is_prime[v])
        false_pos += found and not truth
        false_neg += truth and not found
    assert false_pos == 0
    assert false_neg == 0
    report(
        f"criterion 2 PASS: {repo.count} primes, 10000 queries, "
        f"0 false positives, 0 false negatives (q={repo.q})"
    )


def test_c03_cube_2000_15_reproduction():
    """2000 uniform points in 15 dimensions over 10 seeds: plane counts in
    [11, 44], reference count 22."""
    lo = int(np.ceil(np.log2(2000)))
    assert lo == 11
    qs = []
    for seed in range(10):
        pts = np.random.default_rng(seed).random((2000, 15))
        state = run(pts, 15, seed)
        assert oracle.verify_separation(state.points, state.plane_matrix, EPS).ok
        assert lo <= state.q <= 44, f"seed {seed}: q={state.q} outside [11, 44]"
        qs.append(state.q)
    med = float(np.median(qs))
    report(f"criterion 3 PASS: cube:2000:15 q={sorted(qs)} median={med} (reference 22)")


def test_c04_cube_50000_25_reproduction():
    """50000 uniform points in 25 dimensions over 3 seeds: plane counts in
    [16, 54], reference count 27."""
    qs = []
    for seed in range(3):
        pts = np.random.default_rng(100 + seed).random((50_000, 25))
        state = run(pts, 25, 100 + seed)
        assert oracle.verify_separation(state.points, state.plane_matrix, EPS).ok
        assert 16 <= state.q <= 54, f"seed {seed}: q={state.q} outside [16, 54]"
        qs.append(state.q)
    med = float(np.median(qs))
    report(f"criterion 4 PASS: cube:50000:25 q={sorted(qs)} median={med} (reference 27)")


def test_c05_two_digit_primes_figure():
    """Primes below 100 in the plane, 20 seeds: never more than the 20
    axis-threshold planes; the figure renders 25 markers."""
    values = primes_below(100)
    qs = []
    repo_for_svg = None
    for seed in range(20):
        repo = repository.build(values, 2, seed)
        assert oracle.verify_separation(
            repo.state.points, repo.state.plane_matrix, EPS
        ).ok
        assert repo.q <= 20, f"seed {seed}: q={repo.q} exceeds 20"
        qs.append(repo.q)
        if seed == 0:
            repo_for_svg = repo
    svg = svgplot.render_svg(repo_for_svg)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f".//{ns}circle")
    lines = root.findall(f".//{ns}line")
    assert len(circles) == 25
    assert len(lines) == repo_for_svg.q
    report(
        f"criterion 5 PASS: q over 20 seeds min={min(qs)} "
        f"median={float(np.median(qs))} max={max(qs)} (reference 10, bound 20); "
        f"SVG has 25 markers and {len(lines)} plane lines"
    )


def test_c06_operation_count_exactness():
    """One sign-vector evaluation costs exactly n*q multiplications, and a
    whole build's sign-vector work is exactly the sum of per-offer n*q."""
    rng = np.random.default_rng(7)
    stores = [
        (1, [2, 3, 5, 7], 4),
        (4, primes_below(10_000), 9_999),
        (25, sorted({int(v) for v in rng.integers(0, 10**18, size=300)}), 10**24 + 1),
    ]
    for n, values, fresh in stores:
        repo = repository.build(values, n, seed=3)
        q = repo.q
        for v in (values[-1], fresh):
            c = OpCounters()
            repository.query(repo, v, c)
            assert c.multiplications == n * q, "one query must cost n*q"
            assert c.additions == n * q
        before = repo.counters.snapshot()
        offer(repo.state, repository.map_to_point(fresh, repo.mapping))
        assert repo.counters.delta(before).ov_multiplications == n * q, (
            "one offer must cost n*q"
        )

    # manual drive with an independent per-offer tally
    n = 6
    pts = rng.random((400, n)) * 9
    pts = np.unique(pts, axis=0)
    state = init(pts[: n + 1], n, seed=11)
    after_init = state.counters.snapshot()
    expected = 0
    queue = deque(pts[n + 1:])
    stash = []
    while queue or stash:
        if not queue:
            if state.chains:
                emit_plane(state)
            queue.extend(stash)
            stash.clear()
            continue
        p = queue.popleft()
        expected += n * state.q
        res = offer(state, p)
        if res.kind is OfferKind.RECYCLED:
            stash.append(p)
        elif res.kind is OfferKind.PLANE_EMITTED:
            queue.extend(stash)
            stash.clear()
    finalize(state)
    delta = state.counters.delta(after_init)
    assert delta.ov_multiplications == expected, "build OV work must equal sum n*q"
    assert state.count == pts.shape[0]
    report(
        f"criterion 6 PASS: one query and one offer = n*q exactly; build OV work "
        f"{delta.ov_multiplications} equals independent tally {expected}"
    )


def test_c07_incremental_equivalence():
    """Building in two stages answers identically to one shot, and old
    addresses are bit-exact prefixes of the extended ones."""
    table = oracle.sieve(100)
    lo = [p for p in primes_below(100) if p < 50]
    hi = [p for p in primes_below(100) if p >= 50]

    staged = repository.build(lo, 2, 21)
    q_old = staged.q
    old_packed = {staged.values[i]: staged.state.packed[i] for i in range(staged.count)}
    repository.insert(staged, hi)
    oneshot = repository.build(primes_below(100), 2, 21)

    for v in range(100):
        truth = bool(table.is_prime[v])
        assert repository.query(staged, v).found == truth
        assert repository.query(oneshot, v).found == truth
    shift = staged.q - q_old
    for i, v in enumerate(staged.values):
        if v in old_packed:
            assert staged.state.packed[i] >> shift == old_packed[v]
    report(
        f"criterion 7 PASS: staged (q={staged.q}) and one-shot (q={oneshot.q}) "
        f"builds agree on all 100 queries; {len(old_packed)} prefixes intact"
    )


def test_c08_dimension_growth():
    """Growth from 2 to 5 digits preserves every stored address bit for bit
    and then accepts 5-digit primes."""
    table = oracle.sieve(100_000)
    repo = repository.build(primes_below(100), 2, 31)
    before = list(repo.state.packed)
    repository.grow_dimension(repo, 5)
    assert repo.state.packed == before
    assert repo.mapping.n == 5

    assert bool(table.is_prime[80917]), "80917 must be prime"
    newcomers = [int(p) for p in table.primes() if 80900 <= p < 81100] + [80917]
    newcomers = sorted(set(newcomers))
    repository.insert(repo, newcomers)
    assert repository.query(repo, 80917).found
    for v in newcomers:
        assert repository.query(repo, v).found
    small = oracle.sieve(100)
    for v in range(100):
        assert repository.query(repo, v).found == bool(small.is_prime[v])
    assert oracle.verify_separation(repo.state.points, repo.state.plane_matrix, EPS).ok
    report(
        f"criterion 8 PASS: grow 2->5 preserved {len(before)} addresses bit-exactly; "
        f"{len(newcomers)} five-digit primes inserted and retrievable"
    )


def test_c09_persistence_round_trips():
    """100 random repositories survive save/load byte-identically."""
    rng = np.random.default_rng(55)
    for case in range(100):
        n = int(rng.integers(1, 6))
        count = int(rng.integers(0, 60))
        cap = 10**n
        values = [int(v) for v in rng.choice(cap, size=min(count, cap // 2),
                                             replace=False)]
        repo = repository.build(values, n, 500 + case)
        buf = io.StringIO()
        repository.save(repo, buf)
        text = buf.getvalue()
        buf2 = io.StringIO()
        repository.save(repository.load(io.StringIO(text)), buf2)
        assert buf2.getvalue() == text, f"case {case} round-trip differs"
    report("criterion 9 PASS: 100/100 save/load round-trips byte-identical")


def test_c10_complexity_growth_bound():
    """Total multiplications for digit repositories at n = 2, 3, 4 stay under
    a fitted constant times n * 10^(n+1)."""
    ratios = {}
    mults = {}
    for n in (2, 3, 4):
        repo = repository.build(primes_below(10**n), n, 77)
        m = repo.counters.multiplications
        bound = n * 10 ** (n + 1)
        mults[n] = m
        ratios[n] = m / bound
    c = max(ratios.values())
    for n in (2, 3, 4):
        assert mults[n] <= c * n * 10 ** (n + 1) + 1e-9
    # the fitted constant must stay modest for the magnitude claim to mean
    # anything; runaway plane counts would push it far above 2
    assert c <= 2.0, f"fitted constant {c:.3f} is no longer O(1)"
    report(
        "criterion 10 PASS: multiplications "
        + ", ".join(f"n={n}: {mults[n]} (ratio {ratios[n]:.3f})" for n in (2, 3, 4))
        + f"; fitted c={c:.3f} <= 2.0"
    )
