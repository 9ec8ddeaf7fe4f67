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
"""

import hashlib
import io

import numpy as np
import pytest

from planesep import oracle
from planesep.repository import build, grow_dimension, insert, load, save

BUILT_SHA256 = "9602b93998d2e37ac796f006b3493562db96c9773d0c3693bdbf4fbb9cd1023d"
BUILT_PLANES_AND_ENTRIES_SHA256 = "f685398380dace2b7b9d73d8d6c72c0a0d49c917c76c176bfa2172b0a0f3b205"
BUILT_COUNTERS = {
    "multiplications": 346180,
    "additions": 345557,
    "sign_evals": 85746,
    "bit_comparisons": 15212,
    "ov_multiplications": 202920,
    "extension_multiplications": 140064,
    "solve_multiplications": 2244,
}
GROWN_SHA256 = "8799236e1cdd04342bf51359ecb82aee1ba33efd4a35b92c97c82004e3e0df7e"
GROWN_PLANES_AND_ENTRIES_SHA256 = "dae680b265325f6382a13cefc3d1400f6538a30da8dad0d91b591c8ddc420f7b"
GROWN_COUNTERS = {
    "multiplications": 1464187,
    "additions": 1462534,
    "sign_evals": 308417,
    "bit_comparisons": 37165,
    "ov_multiplications": 552015,
    "extension_multiplications": 904324,
    "solve_multiplications": 6726,
}

# 400 distinct values below 10^4 at n=10: six dead digit coordinates, so the
# batches are rank-deficient and the narrowing walk is exercised
WIDE_SHA256 = "db26eca86f9a7c183ba45ec828c9f4a2c777eea786ff2a5ac20ebf782236fd1b"
WIDE_PLANES_AND_ENTRIES_SHA256 = "cd8d358aadee7c6c64be5b22d772f2ecb1218740d1844750f1b2c1ea4992275c"
WIDE_COUNTERS = {
    "multiplications": 200726,
    "additions": 198908,
    "sign_evals": 18189,
    "bit_comparisons": 4712,
    "ov_multiplications": 85360,
    "extension_multiplications": 96530,
    "solve_multiplications": 17376,
}

# all 9,592 primes below 10^5 at n=5: q = 105, so the index's keys grow
# past 64 bits during the build
PRIMES5_SHA256 = "566aa695bfcf4750a4b1423caff744e0dd3719a97807ea53517b7840f189fa86"
PRIMES5_PLANES_AND_ENTRIES_SHA256 = "d3a48e3a04e53629753962ca97c136dfe9ec41488598c563d804adea2db7e26e"
PRIMES5_COUNTERS = {
    "multiplications": 5662381,
    "additions": 5660826,
    "sign_evals": 1130624,
    "bit_comparisons": 58381,
    "ov_multiplications": 3642605,
    "extension_multiplications": 2010515,
    "solve_multiplications": 6741,
}


# 2,000 values below 10^6 at n=25, built, then 400 and 80 as batches and
# 20 one call each: a capacity of 10^25 > 2^63, so values are registered
# past int64 although each stored value fits in it
WIDE25_BUILT_SHA256 = "da650ed1647a95c9dcd5de949323d58d3e69612990eca4684c6b3cdcd25e7854"
WIDE25_SHA256 = "cc221bb505617b2de63e869ffda068a624dc7b2556f758031ed33504250cc9bd"
WIDE25_PLANES_AND_ENTRIES_SHA256 = "e2b5517cbd071f99b628995c942f56accb0fdf7e8dfe31adc297a352bec7fcc0"
WIDE25_COUNTERS = {
    "multiplications": 3406291,
    "additions": 3400245,
    "sign_evals": 130217,
    "bit_comparisons": 17238,
    "ov_multiplications": 2153850,
    "extension_multiplications": 1101575,
    "solve_multiplications": 143291,
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
    assert repo.q == 37
    assert sha256(planes_and_entries(text)) == WIDE_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == WIDE_SHA256
    assert repo.counters.as_dict() == WIDE_COUNTERS


def test_fixed_seed_wide_build_and_inserts_are_unchanged():
    """Pinned before plane emission stopped taking segment lengths that
    only shifted refits read and values began to be registered in int64:
    neither may move a byte or a counter."""
    values = [int(v) for v in np.random.default_rng(25).choice(10**6, 2_500, replace=False)]
    repo = build(values[:2_000], 25, 0)
    assert repo.q == 47
    assert sha256(saved_text(repo)) == WIDE25_BUILT_SHA256
    insert(repo, values[2_000:2_400])
    insert(repo, values[2_400:2_480])
    for v in values[2_480:]:
        insert(repo, [v])
    text = saved_text(repo)
    assert (repo.q, repo.count) == (52, 2_500)
    assert sorted(repo.values) == sorted(values)
    assert sha256(planes_and_entries(text)) == WIDE25_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == WIDE25_SHA256
    assert repo.counters.as_dict() == WIDE25_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text


def test_fixed_seed_build_past_64_planes_is_unchanged():
    """Pinned before the index began storing keys MSB-aligned at a
    capacity width: this build realigns every key four times, at its
    first emitted plane (q = 4) and at q = 30, 60 and 90."""
    repo = build([int(p) for p in oracle.sieve(10**5).primes()], 5, 0)
    text = saved_text(repo)
    assert repo.q == 105
    assert sha256(planes_and_entries(text)) == PRIMES5_PLANES_AND_ENTRIES_SHA256
    assert sha256(text) == PRIMES5_SHA256
    assert repo.counters.as_dict() == PRIMES5_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text


@pytest.mark.parametrize("n, q, q0, q_lb", [(2, 11, 2, 7), (3, 28, 2, 10), (4, 63, 3, 14),
                                           (5, 105, 4, 18)])
def test_plane_counts_of_primes_against_the_lower_bound(n, q, q0, q_lb):
    """Primes below 10^n at n digits, seed 0: q and q0 of the build, and the
    least q any separator of that many points in n dimensions needs."""
    repo = build([int(p) for p in oracle.sieve(10**n).primes()], n, 0)
    assert (repo.q, repo.state.q0) == (q, q0)
    assert oracle.plane_count_lower_bound(repo.count, n) == q_lb
