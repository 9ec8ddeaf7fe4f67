"""Integer store addressed by sign vectors.

An integer becomes a point whose coordinates are its digits, least
significant first (so 37 is (7, 3) and 1729 is (9, 2, 7, 1)); wider
values occupy higher dimensions.  A built repository holds the plane
family, one entry per stored value, and the sign-vector index, a hash
table on the vectors' leading bits.  Membership of a candidate value is
exact: compute its sign vector (q*n multiply-adds), probe the index's
one slot for it, and, on a quadrant hit, compare the stored value.
Point ids are the only order of the store: a build keeps the ids its
stream gave the points, ``save`` writes entry i for point id i, ``load``
numbers entry i as point id i, and values inserted later take the next
ids.

Build and insert need exclusive access; queries, ``save`` and the
entries are read-only, and a query takes a caller-owned counter
accumulator, so concurrent readers never contend.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import kernels, separator
from .config import RunConfig
from .counters import OpCounters
from .errors import (
    DigitOverflowError,
    NotADigitPointError,
    RepositoryFormatError,
)
from .geometry import OrientationVector, pack_sign_bits
from .geometry import signs_from_residuals  # only for bench/spans.py, which traces this name

FORMAT_MAGIC = "planesep-repository"
FORMAT_VERSION = 1
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class IntegerMapping:
    """Digit-coordinate mapping: values 0 <= v < base**n fit in n dimensions."""

    n: int
    base: int = 10

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("digit width must be at least 1")
        if self.base < 2:
            raise ValueError("base must be at least 2")

    @cached_property
    def capacity(self) -> int:
        return self.base**self.n

    @cached_property
    def powers(self) -> np.ndarray:
        """base**i per coordinate: int64 when every value fits, else Python integers."""
        wide = self.capacity > _INT64_MAX
        return np.array([self.base**i for i in range(self.n)],
                        dtype=object if wide else np.int64)


def map_to_point(v: int, mapping: IntegerMapping) -> np.ndarray:
    """Digits of v, least significant first, zero-padded to n coordinates.

    v is read with :func:`operator.index`, so a float raises TypeError
    instead of being truncated.
    """
    rem = operator.index(v)
    if not 0 <= rem < mapping.capacity:
        raise DigitOverflowError(
            f"{v} does not fit in {mapping.n} base-{mapping.base} digits"
        )
    out = np.zeros(mapping.n)
    i = 0
    while rem:
        rem, digit = divmod(rem, mapping.base)
        out[i] = digit
        i += 1
    return out


def map_to_points(values, mapping: IntegerMapping) -> np.ndarray:
    """Rows of :func:`map_to_point` for many values, in one vectorised expansion.

    Values are read with :func:`operator.index`, as :func:`map_to_point`
    reads one.  Digits are peeled with int64 arithmetic when every value
    fits, and with Python integers (an object array) otherwise.
    """
    vals = [operator.index(v) for v in values]
    if vals and (min(vals) < 0 or max(vals) >= mapping.capacity):
        v = next(v for v in vals if not 0 <= v < mapping.capacity)
        raise DigitOverflowError(
            f"{v} does not fit in {mapping.n} base-{mapping.base} digits"
        )
    return _digit_rows(vals, mapping)


def _digit_rows(vals: list[int], mapping: IntegerMapping) -> np.ndarray:
    """The digit expansion of Python ints already known to lie in [0, capacity)."""
    wide = mapping.capacity > _INT64_MAX and max(vals, default=0) > _INT64_MAX
    rem = np.array(vals, dtype=object if wide else np.int64)
    out = np.zeros((len(vals), mapping.n))
    for i in range(mapping.n):
        if not rem.any():
            break  # every higher digit is 0
        quotient = rem // mapping.base  # by a scalar, which numpy divides fast
        out[:, i] = rem - quotient * mapping.base
        rem = quotient
    return out


def point_to_integer(p: np.ndarray, mapping: IntegerMapping) -> int:
    """Exact inverse of map_to_point; rejects non-digit coordinates."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (mapping.n,):
        raise NotADigitPointError(f"point shape {p.shape} does not match n={mapping.n}")
    value = 0
    for i in range(mapping.n - 1, -1, -1):
        c = p[i]
        d = int(c)
        if c != d or not 0 <= d < mapping.base:
            raise NotADigitPointError(f"coordinate {i} = {c!r} is not a base-{mapping.base} digit")
        value = value * mapping.base + d
    return value


class AbsenceReason(Enum):
    NEW_QUADRANT = "new_quadrant"
    COORDINATE_MISMATCH = "coordinate_mismatch"


@dataclass(frozen=True)
class QueryResult:
    found: bool
    value: int
    reason: AbsenceReason | None = None


@dataclass
class InsertReport:
    added: int
    skipped_duplicates: list[int]
    planes_added: int


class Repository:
    """A frozen separation state plus the value stored at each point id.

    ``seed`` is the build seed that later inserts derive their randomness
    from; ``dims_history`` lists every digit width the store has had.
    """

    def __init__(self, mapping: IntegerMapping, state: separator.SeparationState,
                 values: list[int], seed: int, dims_history: tuple[int, ...]):
        self.mapping = mapping
        self.state = state
        self.values = values
        self.seed = seed
        self.dims_history = dims_history

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def q(self) -> int:
        return self.state.q

    @property
    def counters(self) -> OpCounters:
        return self.state.counters

    def entries(self):
        """(value, point, sign vector) triples by point id."""
        state = self.state
        for pid, packed in enumerate(state.index.items()):
            yield self.values[pid], state.points[pid].copy(), OrientationVector(state.q, packed)

    def _register_new_points(self) -> None:
        """Record the value of every point the state gained since the last call."""
        new = self.state.points[len(self.values):]
        mapping = self.mapping
        is_digit = (new >= 0) & (new < mapping.base) & (new == np.floor(new))
        if not is_digit.all():
            bad = int(np.nonzero(~is_digit.all(axis=1))[0][0])
            point_to_integer(new[bad], mapping)  # raises NotADigitPointError
        self.values.extend((new.astype(np.int64) @ mapping.powers).tolist())


def build(values, n: int, seed: int, *, base: int = 10) -> Repository:
    """Map values to base-``base`` digit points, separate them, and index the result."""
    mapping = IntegerMapping(n=n, base=base)
    # values map one-to-one to digit points, so run rejects a repeated
    # value as a repeated point, with DuplicatePointError
    state = separator.run(map_to_points(values, mapping), n, seed)
    repo = Repository(mapping, state, [], seed, (n,))
    repo._register_new_points()
    return repo


def query(repo: Repository, v: int, counters: OpCounters | None = None) -> QueryResult:
    """Exact membership: sign vector, index probe, then value comparison.

    The sign-vector step costs exactly q*n multiplications and additions.
    A candidate inside the incidence band of any plane cannot be stored,
    so it reports absent from a new quadrant.
    """
    if counters is None:
        counters = OpCounters()
    state = repo.state
    p = map_to_point(v, repo.mapping)  # raises DigitOverflowError out of range
    r = kernels.residuals_point(state.plane_matrix, p)
    nq = state.n * state.q
    counters.multiplications += nq
    counters.additions += nq
    counters.ov_multiplications += nq
    counters.sign_evals += state.q

    eps = state.config.epsilon
    if np.count_nonzero(np.abs(r) <= eps):
        return QueryResult(found=False, value=v, reason=AbsenceReason.NEW_QUADRANT)
    # outside the band, r > eps is exactly the positive side
    pid = state.index.lookup(pack_sign_bits(r > eps), state.q, counters)
    if pid < 0:
        return QueryResult(found=False, value=v, reason=AbsenceReason.NEW_QUADRANT)
    if repo.values[pid] == v:
        return QueryResult(found=True, value=v)
    return QueryResult(found=False, value=v, reason=AbsenceReason.COORDINATE_MISMATCH)


def insert(repo: Repository, values) -> InsertReport:
    """Add values to a built repository without disturbing stored bits.

    Existing sign vectors only ever gain trailing bits, so every old entry
    keeps its address prefix.  A value already stored or given earlier in
    the call is dropped where its point meets its twin, and reported, in
    input order, in ``skipped_duplicates``.  Values are read with
    :func:`operator.index`: a float raises TypeError, and a value out of
    range DigitOverflowError, before anything changes.

    One value is one :func:`separator.offer` of its point, then
    :func:`separator.finalize`, and its value is registered under the next
    point id.  A store holds no pending chains between calls, so the lone
    point cannot be recycled: it is stored at once, or parked and promoted
    by ``finalize``, and takes that id, or it is dropped.  Several values
    are streamed in an order the build seed fixes, with
    :func:`separator.stream_points`.
    """
    state = repo.state
    vals = [operator.index(v) for v in values]
    q_before, count = state.q, state.count
    if len(vals) == 1:
        p = map_to_point(vals[0], repo.mapping)
        # deterministic resume: any new free plane coefficients depend only
        # on the build seed and the store shape; the generator is seeded
        # only if a plane is emitted
        state.reseed([repo.seed, state.count, state.q, 1])
        if separator.offer(state, p).kind is not separator.OfferKind.REPEATED:
            separator.finalize(state)
            if state.count != count + 1:
                raise AssertionError("a lone value did not take the next id; this is a bug")
            repo.values.append(vals[0])
    elif vals:
        pts = map_to_points(vals, repo.mapping)
        # the stream order depends only on the build seed and the store shape
        state.reseed([repo.seed, state.count, state.q, len(vals)])
        separator.stream_points(state, pts[state.rng.permutation(len(vals))])
        separator.finalize(state)
        repo._register_new_points()
    unclaimed = dict.fromkeys(repo.values[count:], True)  # its first copy is the one added
    skipped = [v for v in vals if not unclaimed.pop(v, False)]
    return InsertReport(
        added=state.count - count,
        skipped_duplicates=skipped,
        planes_added=state.q - q_before,
    )


def grow_dimension(repo: Repository, n_new: int) -> Repository:
    """Widen the repository to n_new digits.

    Points gain zero coordinates and planes gain zero coefficients, so
    every residual, and therefore every stored sign vector, is unchanged
    bit for bit.  Growth to the current width is the identity.
    """
    state = repo.state
    n_old = state.n
    if n_new < n_old:
        raise ValueError(f"cannot shrink dimension {n_old} -> {n_new}")
    if n_new == n_old:
        return repo
    if state.chains:
        raise ValueError("cannot grow a state with pending chains")

    alpha = np.zeros((state._alpha_buf.shape[0], n_new))
    alpha[:, :n_old] = state._alpha_buf
    state._alpha_buf = alpha
    pts = np.zeros((state._pts_buf.shape[0], n_new))
    pts[:, :n_old] = state._pts_buf
    state._pts_buf = pts
    state.n = n_new

    repo.mapping = IntegerMapping(n=n_new, base=repo.mapping.base)
    repo.dims_history = repo.dims_history + (n_new,)
    return repo


# ---------------------------------------------------------------------------
# persistence: versioned line-oriented text, exact float round-trip
# ---------------------------------------------------------------------------

def save(repo: Repository, sink) -> None:
    """Write the repository; floats are repr-encoded so reload is bit-exact."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            save(repo, fh)
        return
    state = repo.state
    w = sink.write
    w(f"{FORMAT_MAGIC} {FORMAT_VERSION}\n")
    w(f"n {state.n}\n")
    w(f"base {repo.mapping.base}\n")
    w(f"q {state.q}\n")
    w(f"count {state.count}\n")
    w(f"seed {repo.seed}\n")
    w(f"epsilon {state.config.epsilon!r}\n")
    w(f"delta0 {state.config.delta0!r}\n")
    w(f"max-retries {state.config.max_retries}\n")
    w(f"dims-history {','.join(str(d) for d in repo.dims_history)}\n")
    w(f"q0 {state.q0}\n")
    # the middle field, the offers' sign-vector work, is the OV counter
    c = state.counters.as_dict()
    w(f"offers {state.offers} {c['ov_multiplications']} {state.recycle_events}\n")
    w("counters " + " ".join(f"{k}={v}" for k, v in c.items()) + "\n")
    for j in range(state.q):
        coeffs = " ".join(map(repr, state._alpha_buf[j].tolist()))
        w(f"plane {1 if state._saturated[j] else 0} {coeffs}\n")
    for v, key in zip(repo.values, chain.from_iterable(state.index.hex_blocks())):
        w(f"entry {v} {key}\n")
    w("end\n")


class _LineReader:
    def __init__(self, fh):
        try:
            self.lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise RepositoryFormatError(f"not UTF-8 text: {exc}") from exc
        self.pos = 0

    def next(self, expect: str | None = None, fields: int | None = 2) -> list[str]:
        """The next line's fields, its tag checked against ``expect``.

        ``fields`` is the number of fields :func:`save` writes on the line
        (None when the caller counts them); a line with more is rejected.
        """
        if self.pos >= len(self.lines):
            raise RepositoryFormatError("unexpected end of file", line=self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        parts = line.split()
        if not parts:
            raise RepositoryFormatError("blank line", line=self.pos)
        if expect is not None and parts[0] != expect:
            raise RepositoryFormatError(
                f"expected {expect!r}, found {parts[0]!r}", line=self.pos
            )
        if fields is not None and len(parts) > fields:
            raise RepositoryFormatError(
                f"extra fields {parts[fields:]} on {parts[0]!r} line", line=self.pos
            )
        return parts


def _int_field(parts: list[str], idx: int, line: int, lo: int | None = None,
               hi: int | None = None) -> int:
    """Field idx as an int, rejected outside [lo, hi] when those are given."""
    try:
        value = int(parts[idx])
    except (ValueError, IndexError) as exc:
        raise RepositoryFormatError(f"bad integer field: {parts}", line=line) from exc
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise RepositoryFormatError(
            f"{parts[0]} {value} outside [{lo}, {'any' if hi is None else hi}]", line=line
        )
    return value


def _first_repeat(values: list[int]) -> int:
    """The index of the first value that an earlier one repeats, which exists."""
    first: dict[int, int] = {}
    return next(i for i, v in enumerate(values) if first.setdefault(v, i) != i)


def _check_entry_line(rd: _LineReader, capacity: int, q: int) -> None:
    """Read the entry line at ``rd.pos`` one field at a time, and raise for
    its first fault with its line number; return when it has none."""
    parts = rd.next("entry", 3)
    v = _int_field(parts, 1, rd.pos)
    if not 0 <= v < capacity:
        raise RepositoryFormatError(f"value {v} out of range", line=rd.pos)
    try:
        packed = int(parts[2], 16)
    except (ValueError, IndexError) as exc:
        raise RepositoryFormatError("bad packed sign vector", line=rd.pos) from exc
    if packed >= 1 << q:
        raise RepositoryFormatError("sign vector wider than q", line=rd.pos)
    try:
        separator.hex_rows([parts[2]], q)
    except ValueError as exc:
        # int() also reads spellings save never writes, such as 0x1f
        raise RepositoryFormatError("bad packed sign vector", line=rd.pos) from exc


def load(source) -> Repository:
    """Read a repository written by :func:`save`.

    The entry lines are parsed in one pass, and their keys' hex becomes the
    index's rows in another, a block of keys at a time; entry i is point
    id i, and the entries may come in any order.  Every malformed line,
    one with more fields than :func:`save` writes among them, raises
    :class:`RepositoryFormatError` with its line number, and so does an
    entry that repeats an earlier entry's sign vector or value, and input
    that is not UTF-8 text, without one.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load(fh)
    if isinstance(source, (bytes, bytearray)):
        return load(io.TextIOWrapper(io.BytesIO(source), encoding="utf-8"))

    rd = _LineReader(source)
    head = rd.next()
    if head[0] != FORMAT_MAGIC:
        raise RepositoryFormatError(f"bad magic {head[0]!r}", line=1)
    version = _int_field(head, 1, 1)
    if version != FORMAT_VERSION:
        raise RepositoryFormatError(f"unsupported version {version}", line=1)

    n = _int_field(rd.next("n"), 1, rd.pos)
    n_line = rd.pos
    base = _int_field(rd.next("base"), 1, rd.pos)
    try:
        mapping = IntegerMapping(n=n, base=base)
    except ValueError as exc:
        raise RepositoryFormatError(str(exc), line=n_line if n < 1 else rd.pos) from exc
    q = _int_field(rd.next("q"), 1, rd.pos, lo=0)
    count = _int_field(rd.next("count"), 1, rd.pos, lo=0)
    seed = _int_field(rd.next("seed"), 1, rd.pos, lo=0)  # inserts seed numpy with it
    # the tolerances are fixed and a file naming others is not served: one
    # built with a narrower band may hold points inside this one, and
    # queries would answer them absent
    for key, want in (("epsilon", RunConfig.epsilon), ("delta0", RunConfig.delta0),
                      ("max-retries", RunConfig.max_retries)):
        if rd.next(key)[1:] != [repr(want)]:
            raise RepositoryFormatError(f"{key} differs from the fixed {want!r}", line=rd.pos)
    hist_parts = rd.next("dims-history")
    try:
        dims_history = (
            tuple(int(x) for x in hist_parts[1].split(",")) if len(hist_parts) > 1 else ()
        )
    except ValueError as exc:
        raise RepositoryFormatError("bad dims-history field", line=rd.pos) from exc
    # a store is built at its first width and each grow appends a wider one;
    # stats bounds the OV cost by the first
    if (not dims_history or dims_history[0] < 1 or dims_history[-1] != n
            or any(a >= b for a, b in zip(dims_history, dims_history[1:]))):
        raise RepositoryFormatError(
            f"dims-history {list(dims_history)} is not increasing widths ending at n = {n}",
            line=rd.pos,
        )
    q0 = _int_field(rd.next("q0"), 1, rd.pos, lo=0, hi=q)
    offers_parts = rd.next("offers", 4)
    offers = _int_field(offers_parts, 1, rd.pos, lo=0)
    offered_nq = _int_field(offers_parts, 2, rd.pos)
    recycles = _int_field(offers_parts, 3, rd.pos, lo=0)
    counter_parts = rd.next("counters", None)
    try:
        pairs = [(k, int(v)) for k, v in (kv.split("=", 1) for kv in counter_parts[1:])]
    except ValueError as exc:
        raise RepositoryFormatError("bad counters field", line=rd.pos) from exc
    # a name missing, misspelled or repeated would be read as 0 or as its last value
    names = [f.name for f in fields(OpCounters)]
    if sorted(k for k, _ in pairs) != sorted(names) or any(v < 0 for _, v in pairs):
        raise RepositoryFormatError(
            f"counters must name each of {', '.join(names)} once, with a value >= 0",
            line=rd.pos,
        )

    counters = OpCounters(**dict(pairs))
    if offered_nq != counters.ov_multiplications:
        raise RepositoryFormatError(
            f"offers line records {offered_nq} OV multiplications, "
            f"counters record {counters.ov_multiplications}",
            line=rd.pos - 1,
        )

    state = separator.SeparationState(n=n, seed=seed)
    state.q0 = q0
    state.offers = offers
    state.recycle_events = recycles

    for _ in range(q):
        parts = rd.next("plane", None)
        if len(parts) != 2 + n:
            raise RepositoryFormatError(
                f"plane line has {len(parts) - 2} coefficients, expected {n}", line=rd.pos
            )
        if parts[1] not in ("0", "1"):
            raise RepositoryFormatError(f"saturated flag {parts[1]!r} is not 0 or 1", line=rd.pos)
        try:
            alpha = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise RepositoryFormatError("bad plane coefficient", line=rd.pos) from exc
        if not all(map(math.isfinite, alpha)):
            raise RepositoryFormatError("non-finite plane coefficient", line=rd.pos)
        state._append_plane(np.array(alpha), parts[1] == "1")

    # one pass over the entry lines, then one over their keys' hex; when
    # either fails, the lines are read again in order, one at a time, and
    # the first faulty one raises
    values: list[int] = []
    capacity = mapping.capacity
    first = rd.pos
    lines = rd.lines[first:first + count]
    rows = None
    try:
        for line in lines:
            tag, value, _ = line.split()
            v = int(value)
            if tag != "entry" or not 0 <= v < capacity:
                break
            values.append(v)
        if len(values) == count:
            # each key is cut from its line as it is read, so the keys'
            # text is never held whole
            rows = separator.hex_rows((line.rsplit(None, 1)[1] for line in lines), q)
    except ValueError:
        pass
    if rows is None:
        for _ in range(count):
            _check_entry_line(rd, capacity, q)
        raise AssertionError("every entry line passed its check after the entries failed")
    rd.pos = first + count
    rd.next("end", 1)
    del rd, lines  # the lines are freed before the index builds its slots
    # point id i is entry i; an empty store keeps the default point
    # buffer, which later inserts grow by doubling
    if count:
        state._pts_buf = _digit_rows(values, mapping)
        state.count = count
    state.index = separator.OvIndex.from_rows(rows, q)
    state.counters = counters
    # a repeated key or value would serve one of its entries and hide the other
    repeat = state.index.first_repeat()
    if repeat >= 0:
        raise RepositoryFormatError("repeated packed sign vector", line=first + repeat + 1)
    if len(set(values)) < count:
        repeat = _first_repeat(values)
        raise RepositoryFormatError(f"repeated value {values[repeat]}", line=first + repeat + 1)
    return Repository(mapping, state, values, seed, dims_history)
