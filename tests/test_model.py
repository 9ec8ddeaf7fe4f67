"""A seeded model test: random operation sequences checked against a set.

Each sequence builds a small store and then applies up to 30 random
operations to it: inserts of batches and of single values (stored values,
values repeated within the call and fresh ones), dimension growth, save and
load round trips, deep copies (each copy and its original take the same
insert and must save the same bytes) and queries.  After every step the store
must agree with a plain Python ``set`` of the values it should hold, and
keep the paper's invariants:

- a value is found exactly when it is stored;
- a stored value's address only ever gains trailing bits;
- a query costs exactly n*q multiplications;
- ``load(save(s))`` saves the same bytes again and gives the same query
  counters as ``s``.  ``load`` builds the index's hash slots on all q bits
  for the stored count, and so does ``build``; an insert keeps the slots
  it has until they fill, so after one only ``bit_comparisons`` may differ.

The sequences are drawn with :mod:`random` from fixed seeds, so a failure
names the seed and the operations that led to it.
"""

import copy
import io
import random

import pytest

from planesep import DuplicatePointError, OpCounters
from planesep.repository import build, grow_dimension, insert, load, query, save

SEQUENCES = 200
MAX_OPS = 30
MAX_N = 4


def saved_text(repo):
    buf = io.StringIO()
    save(repo, buf)
    return buf.getvalue()


def addresses(repo):
    """Each stored value's sign vector as an int, with the q it has."""
    return {v: key for v, key in zip(repo.values, repo.state.index.items())}, repo.q


def probes(rnd, repo, model, k):
    """Up to k stored values and k values drawn from the store's range."""
    stored = rnd.sample(sorted(model), min(k, len(model)))
    return stored + [rnd.randrange(repo.mapping.capacity) for _ in range(k)]


def draw_values(rnd, repo, model, k):
    """k values to insert: fresh ones, stored ones and repeats of earlier ones."""
    values = []
    for _ in range(k):
        kind = rnd.random()
        if kind < 0.2 and model:
            values.append(rnd.choice(sorted(model)))
        elif kind < 0.35 and values:
            values.append(rnd.choice(values))
        else:
            values.append(rnd.randrange(repo.mapping.capacity))
    return values


def expected_report(values, model):
    """What insert reports: the first copy of each value not yet stored is
    added, and every other value is skipped, in input order."""
    added, skipped = set(), []
    for v in values:
        if v in model or v in added:
            skipped.append(v)
        else:
            added.add(v)
    return added, skipped


def query_counters(repo, values):
    counters = OpCounters()
    for v in values:
        query(repo, v, counters)
    return counters


class Sequence:
    """One seeded sequence: a store, the set it should hold, and a log of
    the operations applied to it."""

    def __init__(self, seed):
        self.rnd = random.Random(seed)
        self.log = [f"seed {seed}"]

    def build(self, n, repeated=False):
        rnd = self.rnd
        values = rnd.sample(range(10**n), rnd.randint(0, 40))
        repeated = repeated and bool(values)
        if repeated:
            values.insert(rnd.randrange(len(values) + 1), rnd.choice(values))
        self.log.append(f"build({values}, n={n})")
        if repeated:
            with pytest.raises(DuplicatePointError):
                build(values, n, rnd.randrange(1000))
            return
        self.repo = build(values, n, rnd.randrange(1000))
        self.model = set(values)
        self.addresses = addresses(self.repo)
        self.slots_rebuilt = True  # the index's slots are those load builds

    def check(self):
        repo, model = self.repo, self.model
        assert repo.count == len(model) and set(repo.values) == model
        # prefix stability: every address present before is a prefix now
        (before, q_before), (now, q) = self.addresses, addresses(repo)
        assert all(now[v] >> (q - q_before) == key for v, key in before.items())
        self.addresses = (now, q)
        for v in probes(self.rnd, repo, model, 8):
            counters = OpCounters()
            assert query(repo, v, counters).found == (v in model), v
            assert counters.multiplications == repo.state.n * repo.q

    def step(self):
        rnd, repo = self.rnd, self.repo
        op = rnd.choice(["batch", "batch", "single", "single", "grow", "reload", "copy",
                         "rebuild"])
        if op in ("batch", "single"):
            values = draw_values(rnd, repo, self.model, rnd.randint(2, 12) if op == "batch" else 1)
            self.log.append(f"insert({values})")
            added, skipped = expected_report(values, self.model)
            report = insert(repo, values)
            assert (report.added, report.skipped_duplicates) == (len(added), skipped)
            self.model |= added
            self.slots_rebuilt = False
        elif op == "grow":
            n = min(repo.state.n + 1, MAX_N)
            self.log.append(f"grow_dimension({n})")
            grow_dimension(repo, n)
        elif op == "reload":
            self.log.append("load(save(repo))")
            text = saved_text(repo)
            loaded = load(io.StringIO(text))
            assert saved_text(loaded) == text
            asked = probes(rnd, repo, self.model, 8)
            got = query_counters(loaded, asked).as_dict()
            want = query_counters(repo, asked).as_dict()
            if not self.slots_rebuilt:
                del got["bit_comparisons"], want["bit_comparisons"]
            assert got == want
            self.repo, self.slots_rebuilt = loaded, True
        elif op == "copy":
            # a deep copy and its original stay identical under the same insert
            values = draw_values(rnd, repo, self.model, rnd.randint(1, 6))
            self.log.append(f"deepcopy(repo), then insert({values}) into both")
            twin = copy.deepcopy(repo)
            assert insert(twin, values) == insert(repo, values)
            assert saved_text(twin) == saved_text(repo)
            self.model |= set(values)
            self.repo, self.slots_rebuilt = twin, False
        else:
            self.build(repo.state.n, repeated=rnd.random() < 0.2)


@pytest.mark.parametrize("block", range(4))
def test_random_sequences_agree_with_a_set(block):
    for seed in range(block, SEQUENCES, 4):
        seq = Sequence(seed)
        try:
            seq.build(seq.rnd.randint(2, 3))
            seq.check()
            for _ in range(seq.rnd.randint(1, MAX_OPS)):
                seq.step()
                seq.check()
        except Exception as exc:
            raise AssertionError("\n".join(seq.log)) from exc
