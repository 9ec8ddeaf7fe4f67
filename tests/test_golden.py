"""Fixed-seed golden values: saved bytes and operation counters.

A change that claims to leave behaviour alone must keep a fixed-seed build,
and the same repository grown and fed inserts, byte-identical on disk with
exactly the same counters.  The digests and counts below were recorded
before the sign-vector store was reorganised, and pin it.  A diff here is a
behaviour change and needs a stated reason.

The bit_comparisons pins (and with them the digests, whose counters line
records them) were lowered once, when the chain-quadrant guard pass in
emit_plane was removed: that pass compared every pair of pending chain
keys on every plane, and those comparisons are no longer made.  Every
plane and entry line and the other six counters stayed as they were.

They were lowered again when an accepted offer began storing its point at
the position its missed index lookup returned, instead of searching the
index a second time for it.  That second search visited the same
midpoints as the miss, so each pin fell by exactly the lookup tallies of
the offers that were then stored (BUILT: 241,210 -> 142,714).  Inserts
made by plane emission and initial accretion still search, and again
every plane and entry line and the other six counters stayed as they
were: the offers' block evaluation alone leaves the saved bytes unchanged.

They were lowered a third time when the index became a hash table on
a key prefix (BUILT: 142,714 -> 31,767).  A probe no longer
binary-searches the sorted keys; it walks the chain of one hash slot,
and each key compared there counts the bits examined, up to and
including the first difference, and all q on a match.  An insert walks
its slot's chain too, to check that the key is new.  The other six
counters stayed as they were.

They were lowered a fourth time when the index began holding its keys
as uint64 word rows (BUILT: 31,767 -> 15,212).  Two things moved them.
A store no longer walks its slot's chain to check that the key is new:
every caller stores a key after its lookup missed or one that is new by
construction, so that walk could never find the key; dropping it alone
gives BUILT 15,184.  And the slot function changed: a slot is now the
top bits of a multiplicative hash of the prefix's 64-bit words, not of
Python's hash() of the prefix, so other keys share chains.  A window of
offers is tallied exactly as the same offers made one at a time.  Every
plane and entry line and the other six counters stayed as they were.

So that no counter re-pin can hide a change to a plane or entry line,
each store is also pinned by the digest of its saved text without the
``counters`` line (the ``*_PLANES_AND_ENTRIES_SHA256`` values), recorded
before the index became a hash table.

The full-text digests were re-pinned when point ids became the store's
only order.  A build used to renumber its points into dictionary order of
their keys, and save listed the entries in that order; now a build keeps
the ids its stream gave the points and save lists entry i for point id i.
The plane lines and every (value, key) pair are unchanged: the digests
above are taken with the entry lines put back in dictionary order of
their keys, and stayed as pinned.  So did the BUILT, WIDE and PRIMES5
counters, since a build tallies nothing after its last offer.  GROWN's
bit_comparisons fell by 6 (37,171 -> 37,165): its inserts walk slot
chains newest id first, and the ids of the built points differ.

Every digest and counter, and each pinned q, was re-pinned once when a
build became a batch insert into the empty store.  The random planes
that used to seed a build went, a point that meets a full pending chain
now forces one plane at once instead of waiting for the queue to drain,
and a build's stream order is drawn as an insert's is, from the seed
and the store's shape.  So every plane and entry line moved.  q went
63 -> 61 (BUILT), 37 -> 35 (WIDE), 47 -> 45 and 52 -> 53 (WIDE25), and
105 -> 107 (PRIMES5); the primes below 10^n at n = 2, 3 went 11 -> 12
and 28 -> 31.
"""

import hashlib
import io

import numpy as np
import pytest

from planesep import oracle
from planesep.repository import build, grow_dimension, insert, load, save

BUILT_SHA256 = "4ba73a4bf98615519489fdf7abf7a83756fcb1e5d480b2c2d0b8bbda03d31097"
BUILT_PLANES_AND_ENTRIES_SHA256 = "8fc7622053792985906d3d2ac5ebd0a447d17a12c7153e976cd4cb9e904264a6"
BUILT_COUNTERS = {
    "multiplications": 398698,
    "additions": 397999,
    "sign_evals": 98809,
    "bit_comparisons": 14029,
    "ov_multiplications": 199596,
    "extension_multiplications": 195640,
    "solve_multiplications": 2522,
}
GROWN_SHA256 = "5ed090e832f721b5ab098322fbf4e6516ced5d81e6210da6fdc18513112e4775"
GROWN_PLANES_AND_ENTRIES_SHA256 = "c1fddf8fada432f8d8b8291df17433b8f782dfaf911d9469e03f622838b5a7c1"
GROWN_COUNTERS = {
    "multiplications": 1327764,
    "additions": 1326313,
    "sign_evals": 283936,
    "bit_comparisons": 35967,
    "ov_multiplications": 536471,
    "extension_multiplications": 784400,
    "solve_multiplications": 5798,
}

# 400 distinct values below 10^4 at n=10: six dead digit coordinates, so the
# batches are rank-deficient and the narrowing walk is exercised
WIDE_SHA256 = "097a440b70834ff045f21e58adddf3f5a35157ba7ad2eac9fb54be94be858da5"
WIDE_PLANES_AND_ENTRIES_SHA256 = "07222d639274583f5447956727178ab2118cb97e12fc37e2b0afcb14459dde6f"
WIDE_COUNTERS = {
    "multiplications": 165421,
    "additions": 163842,
    "sign_evals": 14891,
    "bit_comparisons": 4103,
    "ov_multiplications": 84170,
    "extension_multiplications": 64740,
    "solve_multiplications": 15091,
}

# all 9,592 primes below 10^5 at n=5: q = 107, so the index's keys grow
# past 64 bits during the build
PRIMES5_SHA256 = "b0f3d0840dc56bd33a47b64b8ca2e7e8b45c74f69c5dce972b2a958cd1ee1178"
PRIMES5_PLANES_AND_ENTRIES_SHA256 = "c8ca9dc72cc258534120b00a4681482a2f2b300382209d53f8dbfd9e984af45c"
PRIMES5_COUNTERS = {
    "multiplications": 5768202,
    "additions": 5766479,
    "sign_evals": 1151630,
    "bit_comparisons": 65611,
    "ov_multiplications": 3729025,
    "extension_multiplications": 2029125,
    "solve_multiplications": 7487,
}


# 2,000 values below 10^6 at n=25, built, then 400 and 80 as batches and
# 20 one call each: a capacity of 10^25 > 2^63, so values are registered
# past int64 although each stored value fits in it
WIDE25_BUILT_SHA256 = "21d7a525edcf842361609f5bee6137e40842cf9be95affe93a2a443eafcd3ec2"
WIDE25_SHA256 = "847dd743bf264da11d12784a1ae213afb5b739762fad80b98b33c8f59f42a96d"
WIDE25_PLANES_AND_ENTRIES_SHA256 = "ee896e7be5aecbb4b5a52e92fe54663fa67625a4f0750c5636983c1eac63c08f"
WIDE25_COUNTERS = {
    "multiplications": 3491312,
    "additions": 3484227,
    "sign_evals": 132547,
    "bit_comparisons": 17136,
    "ov_multiplications": 2011900,
    "extension_multiplications": 1301775,
    "solve_multiplications": 168012,
}


def saved_text(repo):
    buf = io.StringIO()
    save(repo, buf)
    return buf.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def planes_and_entries(text):
    """The saved text without its ``counters`` line, and with its entry
    lines in dictionary order of their keys, as save once listed them."""
    lines = [line for line in text.splitlines(True) if not line.startswith("counters ")]
    first = next(i for i, line in enumerate(lines) if line.startswith(("entry ", "end")))
    entries = sorted(lines[first:-1], key=lambda line: int(line.rsplit(None, 1)[1], 16))
    return "".join(lines[:first] + entries + lines[-1:])


def test_fixed_seed_build_grow_and_inserts_are_unchanged():
    primes = [int(p) for p in oracle.sieve(2 * 10**4 + 200).primes()]

    # (i) primes below 10^4 at n=4, seed 0
    repo = build([p for p in primes if p < 10**4], 4, 0)
    text = saved_text(repo)
    assert sha256(planes_and_entries(text)) == BUILT_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == BUILT_SHA256
    assert repo.counters.as_dict() == BUILT_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text

    # (ii) grown to n=5, primes in [10^4, 2*10^4) as one batch, then the
    # next 20 primes one call each
    grow_dimension(repo, 5)
    insert(repo, [p for p in primes if 10**4 <= p < 2 * 10**4])
    for p in [p for p in primes if p >= 2 * 10**4][:20]:
        insert(repo, [p])
    text = saved_text(repo)
    assert sha256(planes_and_entries(text)) == GROWN_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == GROWN_SHA256
    assert repo.counters.as_dict() == GROWN_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text


def test_fixed_seed_rank_deficient_build_is_unchanged():
    """First pinned when an exact fit inconsistent at rank r < k-1 began
    sending the batch straight to r+1 midpoints: the one-step walk before
    that built this store with q = 37 (then 36) and about eight times the
    solve multiplications.

    Re-pinned when a batch inconsistent at rank k-1 whose segments all lie
    in its midpoints' span began narrowing to k-1 without its shifted
    refits, which provably split none of its segments.  29 of this build's
    30 such batches were skipped; none of the 29 had been rescued by a
    refit.  The skipped refits no longer draw free values and shift
    directions from the state's generator, so later planes are drawn from
    another point of its stream: q went 36 -> 37 here, and every plane
    line and counter moved (solve multiplications 48,810 -> 17,376).  The
    rule costs no planes overall: over seeds 0-11 of such stores (values
    drawn and built with the same seed) the summed q read 436 -> 431 for
    400 values below 10^4 at n=10, 635 -> 636 for 3,000 values below 10^6
    at n=25, and stayed 370 for 300 values below 10^4 at n=8."""
    values = [int(v) for v in np.random.default_rng(0).choice(10**4, 400, replace=False)]
    repo = build(values, 10, 0)
    text = saved_text(repo)
    assert repo.q == 35
    assert sha256(planes_and_entries(text)) == WIDE_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == WIDE_SHA256
    assert repo.counters.as_dict() == WIDE_COUNTERS


def test_fixed_seed_wide_build_and_inserts_are_unchanged():
    """Pinned before plane emission stopped taking segment lengths that
    only shifted refits read and values began to be registered in int64:
    neither may move a byte or a counter."""
    values = [int(v) for v in np.random.default_rng(25).choice(10**6, 2_500, replace=False)]
    repo = build(values[:2_000], 25, 0)
    assert repo.q == 45
    assert sha256(saved_text(repo)) == WIDE25_BUILT_SHA256
    insert(repo, values[2_000:2_400])
    insert(repo, values[2_400:2_480])
    for v in values[2_480:]:
        insert(repo, [v])
    text = saved_text(repo)
    assert (repo.q, repo.count) == (53, 2_500)
    assert sorted(repo.values) == sorted(values)
    assert sha256(planes_and_entries(text)) == WIDE25_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == WIDE25_SHA256
    assert repo.counters.as_dict() == WIDE25_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text


def test_fixed_seed_build_past_64_planes_is_unchanged():
    """Pinned before the index began storing keys MSB-aligned at a
    capacity width, when this build realigned every key at q = 4, 30, 60
    and 90; its keys pass 64 bits."""
    repo = build([int(p) for p in oracle.sieve(10**5).primes()], 5, 0)
    text = saved_text(repo)
    assert repo.q == 107
    assert sha256(planes_and_entries(text)) == PRIMES5_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == PRIMES5_SHA256
    assert repo.counters.as_dict() == PRIMES5_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text


@pytest.mark.parametrize("n, q, q_lb", [(2, 12, 7), (3, 31, 10), (4, 61, 14), (5, 107, 18)])
def test_plane_counts_of_primes_against_the_lower_bound(n, q, q_lb):
    """Primes below 10^n at n digits, seed 0: q of the build, and the least
    q any separator of that many points in n dimensions needs."""
    repo = build([int(p) for p in oracle.sieve(10**n).primes()], n, 0)
    assert repo.q == q
    assert oracle.plane_count_lower_bound(repo.count, n) == q_lb
