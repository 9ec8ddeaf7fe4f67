"""Fixed-seed golden values: saved bytes and operation counters.

A change that claims to leave behaviour alone must keep a fixed-seed build,
and the same repository grown and fed inserts, byte-identical on disk with
exactly the same counters.  The digests and counts below were recorded
before the sign-vector store was reorganised, and pin it.  A diff here is a
behaviour change and needs a stated reason.
"""

import hashlib
import io

from planesep import oracle
from planesep.repository import build, grow_dimension, insert, load, save

BUILT_SHA256 = "57b8034644b77fbb0632d723b8301e67c6d9d763b5dfdc851998f6d4ea57ff63"
BUILT_COUNTERS = {
    "multiplications": 346180,
    "additions": 345557,
    "sign_evals": 85746,
    "bit_comparisons": 242438,
    "ov_multiplications": 202920,
    "extension_multiplications": 140064,
    "solve_multiplications": 2244,
}
GROWN_SHA256 = "71b2e22163e8659f75b7e53249531a68ca13a0bb8348bdeeea06605ca53dfd5c"
GROWN_COUNTERS = {
    "multiplications": 1464187,
    "additions": 1462534,
    "sign_evals": 308417,
    "bit_comparisons": 585218,
    "ov_multiplications": 552015,
    "extension_multiplications": 904324,
    "solve_multiplications": 6726,
}


def saved_text(repo):
    buf = io.StringIO()
    save(repo, buf)
    return buf.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fixed_seed_build_grow_and_inserts_are_unchanged():
    primes = [int(p) for p in oracle.sieve(2 * 10**4 + 200).primes()]

    # (i) primes below 10^4 at n=4, seed 0
    repo = build([p for p in primes if p < 10**4], 4, 0)
    text = saved_text(repo)
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
    assert sha256(text) == GROWN_SHA256
    assert repo.counters.as_dict() == GROWN_COUNTERS
    assert saved_text(load(io.StringIO(text))) == text
