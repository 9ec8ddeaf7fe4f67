"""Show that the benchmark's correctness checkers reject wrong outputs.

    python3 bench/selftest.py

Each checker in ``checks.py`` is first given the true outputs of a small
repository (all primes below 1000 at n=3) and must accept them, then a
deliberately wrong case and must reject it.  Exits 0 when every case
behaves, 1 otherwise.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from planesep import OpCounters, repository  # noqa: E402
from workloads import addresses  # noqa: E402


def answers(repo, cands):
    counters = OpCounters()
    found, mults = [], []
    for v in cands:
        before = counters.multiplications
        found.append(repository.query(repo, v, counters).found)
        mults.append(counters.multiplications - before)
    return found, mults


def saved(repo) -> str:
    buf = io.StringIO()
    repository.save(repo, buf)
    return buf.getvalue()


def main() -> int:
    table = checks.sieve(1000)
    primes = [v for v in range(1000) if table[v]]
    low = [v for v in primes if v < 500]
    repo = repository.build(low, n=3, seed=0)
    before, q_before = addresses(repo), repo.q
    repository.insert(repo, [v for v in primes if v >= 500])
    after = addresses(repo)
    cands = list(range(1000))
    found, mults = answers(repo, cands)
    n, q = repo.mapping.n, repo.q
    planes, eps = repo.state.plane_matrix, repo.state.config.epsilon
    text = saved(repo)
    resaved = saved(repository.load(io.StringIO(text)))

    # a plane coefficient negated in the file: it still loads, so only the
    # answer check can tell
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("plane "))
    parts = lines[i].split()
    parts[2] = repr(-float(parts[2]))
    lines[i] = " ".join(parts) + "\n"
    tampered = repository.load(io.StringIO("".join(lines)))
    tampered_found, _ = answers(tampered, cands)

    first = next(iter(after))
    flipped_answers = list(found)
    flipped_answers[97] = not flipped_answers[97]
    bad_prefix = dict(after)
    bad_prefix[first] ^= 1 << (q - 1)
    bad_mults = list(mults)
    bad_mults[500] -= 1
    # the first three planes alone leave many values sharing a sign row
    truncated = {v: bits >> (q - 3) for v, bits in after.items()}
    flipped_bit = dict(after)
    flipped_bit[first] ^= 1

    cases = [
        ("query answers", checks.check_answers,
         (cands, found, table, "q"), (cands, flipped_answers, table, "q")),
        ("answers after a tampered load", checks.check_answers,
         (cands, found, table, "q"), (cands, tampered_found, table, "q")),
        ("per-query cost n*q", checks.check_query_cost,
         (mults, n, q, "q"), (bad_mults, n, q, "q")),
        ("summed query cost", checks.check_total_query_cost,
         (sum(mults), len(mults), n, q, "q"), (sum(bad_mults), len(mults), n, q, "q")),
        ("prefix-stable addresses", checks.check_prefixes,
         (before, q_before, after, q, "insert"), (before, q_before, bad_prefix, q, "insert")),
        ("separation: address bit", checks.check_separation,
         (after, q, planes, eps), (flipped_bit, q, planes, eps)),
        ("separation: shared sign rows", checks.check_separation,
         (after, q, planes, eps), (truncated, 3, planes[:3], eps)),
        ("save -> load -> save", checks.check_same_bytes,
         (text.encode(), resaved.encode(), "r"),
         (text.encode(), resaved.replace("entry 2 ", "entry 3 ", 1).encode(), "r")),
        ("stored count", checks.check_count,
         (repo.count, len(primes), "c"), (repo.count - 1, len(primes), "c")),
    ]
    ok = True
    for name, fn, good, bad in cases:
        try:
            fn(*good)
        except CheckFailed as exc:
            print(f"FAIL  {name}: true outputs rejected: {exc}")
            ok = False
            continue
        try:
            fn(*bad)
        except CheckFailed as exc:
            print(f"ok    {name}: wrong case rejected: {exc}")
        else:
            print(f"FAIL  {name}: wrong case accepted")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
