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

import codecs
import io
import math
import operator
from array import array
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import kernels, separator
from .config import RunConfig
from .counters import OpCounters
from .errors import (
    DigitOverflowError,
    DuplicatePointError,
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
    return _digit_rows(_value_array(vals, mapping), mapping)


def _value_array(vals: list[int], mapping: IntegerMapping) -> np.ndarray:
    """Python ints already known to lie in [0, capacity) as an array: int64
    when every one fits in it, else Python integers (an object array)."""
    wide = mapping.capacity > _INT64_MAX and max(vals, default=0) > _INT64_MAX
    return np.array(vals, dtype=object if wide else np.int64)


def _digit_rows(rem: np.ndarray, mapping: IntegerMapping) -> np.ndarray:
    """The digit expansion of a :func:`_value_array`, which is left as it is."""
    out = np.zeros((len(rem), mapping.n))
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


@dataclass(frozen=True, slots=True)
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
        """Record the value of every point the state gained since the last call.

        Only the digit columns up to the last nonzero one are multiplied
        out: in int64 when every value they can hold fits in it, else in
        Python integers.
        """
        new = self.state.points[len(self.values):]
        mapping = self.mapping
        is_digit = (new >= 0) & (new < mapping.base) & (new == np.floor(new))
        if not is_digit.all():
            bad = int(np.nonzero(~is_digit.all(axis=1))[0][0])
            point_to_integer(new[bad], mapping)  # raises NotADigitPointError
        live = np.flatnonzero(new.any(axis=0))
        width = int(live[-1]) + 1 if len(live) else 0
        powers = mapping.powers[:width]
        if mapping.base**width - 1 <= _INT64_MAX:
            powers = powers.astype(np.int64, copy=False)
        self.values.extend((new[:, :width].astype(np.int64) @ powers).tolist())


def build(values, n: int, seed: int, *, base: int = 10) -> Repository:
    """Insert values into the empty store of base-``base`` digits at width
    n and build seed ``seed``, and rebuild its slots at all q bits for the
    final N, the slots :func:`load` builds for the same keys.

    A value given twice raises DuplicatePointError.
    """
    repo = Repository(IntegerMapping(n=n, base=base), separator.SeparationState(n, seed),
                      [], seed, (n,))
    skipped = insert(repo, values).skipped_duplicates
    if skipped:
        raise DuplicatePointError(f"{len(skipped)} input points repeat another point")
    repo.state.index._rehash()
    return repo


def query(repo: Repository, v: int, counters: OpCounters | None = None) -> QueryResult:
    """Exact membership: sign vector, index probe, then value comparison.

    The sign-vector step costs exactly q*n multiplications and additions.
    A candidate inside the incidence band of any plane cannot be stored,
    so it reports absent from a new quadrant.  The band test counts two
    sets: |r| <= eps exactly where r >= -eps and not r > eps, and a NaN
    lies in neither, so some residual is in the band exactly when the
    counts differ.  The positive side r > eps is then the sign vector.
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
    positive = r > eps
    if np.count_nonzero(r >= -eps) != np.count_nonzero(positive):
        return QueryResult(False, v, AbsenceReason.NEW_QUADRANT)
    pid = state.index.lookup(pack_sign_bits(positive), state.q, counters)
    if pid < 0:
        return QueryResult(False, v, AbsenceReason.NEW_QUADRANT)
    if repo.values[pid] == v:
        return QueryResult(True, v)
    return QueryResult(False, v, AbsenceReason.COORDINATE_MISMATCH)


def insert(repo: Repository, values) -> InsertReport:
    """Add values to a repository, empty or not, without disturbing stored bits.

    Existing sign vectors only ever gain trailing bits, so every old entry
    keeps its address prefix.  A value already stored or given earlier in
    the call is dropped where its point meets its twin, and reported, in
    input order, in ``skipped_duplicates``.  Values are read with
    :func:`operator.index`: a float raises TypeError, and a value out of
    range DigitOverflowError, before anything changes.

    One value is one :func:`separator.offer` of its point, with the
    point's residuals computed here by :func:`kernels.residuals_block` on
    its row, as a block's are, then :func:`separator.finalize`, and its
    value is registered under the next point id.  A store holds no
    pending chains between calls, so the lone point meets no full chain:
    it is stored at once, or parked and promoted by ``finalize``, and
    takes that id, or it is dropped.  Its report comes straight from the
    offer's outcome.  Several values are streamed in an order the build
    seed and the store's shape fix, with :func:`separator.stream_points`.
    """
    state = repo.state
    vals = [operator.index(v) for v in values]
    q_before, count = state.q, state.count
    if len(vals) == 1:
        v = vals[0]
        p = map_to_point(v, repo.mapping)
        # deterministic resume: any new free plane coefficients depend only
        # on the build seed and the store shape; the generator is seeded
        # only if a plane is emitted
        state.reseed([repo.seed, count, q_before, 1])
        r = kernels.residuals_block(p[None, :], state.plane_matrix)[0]
        if separator.offer(state, p, r).kind is separator.OfferKind.REPEATED:
            return InsertReport(added=0, skipped_duplicates=[v],
                                planes_added=state.q - q_before)
        separator.finalize(state)
        if state.count != count + 1:
            raise AssertionError("a lone value did not take the next id; this is a bug")
        repo.values.append(v)
        return InsertReport(added=1, skipped_duplicates=[], planes_added=state.q - q_before)
    if vals:
        pts = map_to_points(vals, repo.mapping)
        # the stream order depends only on the build seed and the store shape
        state.reseed([repo.seed, state.count, state.q, len(vals)])
        separator.stream_points(state, pts[state.rng.permutation(len(vals))])
        separator.finalize(state)
        repo._register_new_points()
    skipped = []
    if state.count - count < len(vals):
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
    """Write the repository; floats are repr-encoded so reload is bit-exact.

    The entry lines are written by point id, one ``write`` for each block
    of keys :meth:`separator.OvIndex.hex_blocks` converts, so the text of
    all the entries is never held at once.
    """
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
    w("q0 0\n")  # v1's count of seeding planes; a build has none
    # the middle field, the offers' sign-vector work, is the OV counter
    c = state.counters.as_dict()
    w(f"offers {state.offers} {c['ov_multiplications']} {state.recycle_events}\n")
    w("counters " + " ".join(f"{k}={v}" for k, v in c.items()) + "\n")
    for j in range(state.q):
        coeffs = " ".join(map(repr, state._alpha_buf[j].tolist()))
        w(f"plane {1 if state._saturated[j] else 0} {coeffs}\n")
    values = iter(repo.values)
    for keys in state.index.hex_blocks():
        # keys first: zip then stops before it takes a value past the block
        w("".join([f"entry {v} {key}\n" for key, v in zip(keys, values)]))
    w("end\n")


_CHUNK = 1 << 18  # characters, or bytes, read from the source at a time
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines ends a line


def _text_chunks(fh):
    """The text of a text stream, read a chunk at a time."""
    try:
        yield from iter(partial(fh.read, _CHUNK), "")
    except UnicodeDecodeError as exc:
        raise RepositoryFormatError(f"not UTF-8 text: {exc}") from exc


def _utf8_chunks(fh):
    """The UTF-8 text of a binary stream, decoded a chunk at a time.  Bytes
    that are not UTF-8 raise with their position in the whole stream."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0
    while True:
        raw = fh.read(_CHUNK)
        try:
            text = decoder.decode(raw, final=not raw)
        except UnicodeDecodeError as exc:
            # the decoder failed on the bytes it held back plus this chunk
            at = read - len(decoder.getstate()[0]) + exc.start
            bad = exc.object[exc.start:exc.end]
            where = (f"byte 0x{bad[0]:02x} in position {at}" if len(bad) == 1
                     else f"bytes in position {at}-{at + len(bad) - 1}")
            raise RepositoryFormatError(
                f"not UTF-8 text: '{exc.encoding}' codec can't decode {where}: {exc.reason}"
            ) from exc
        if not raw:
            return
        read += len(raw)
        if text:  # empty when a short read ends inside a character
            yield text


class _LineReader:
    """The lines of a text, numbered as :meth:`str.splitlines` numbers them,
    read from its chunks as they are taken, so the whole text is never held."""

    def __init__(self, chunks):
        self._chunks = chunks
        self._lines: list[str] = []  # whole lines read and not yet taken, from _at on
        self._at = 0
        self._tail = ""  # the text after the last whole line read; None at the end
        self.pos = 0  # the lines taken

    def _read(self) -> None:
        chunk = next(self._chunks, "")
        text = self._tail + chunk
        lines = text.splitlines()
        if not chunk:
            self._tail = None  # splitlines ended the last line, if it was open
        elif text[-1] not in _BREAKS:
            self._tail = lines.pop()
        elif text[-1] == "\r":
            self._tail = lines.pop() + "\r"  # a "\n" after it ends the same line
        else:
            self._tail = ""
        self._lines = self._lines[self._at:] + lines
        self._at = 0

    def take(self, k: int) -> list[str]:
        """The next k lines; fewer only at the end of the text."""
        while len(self._lines) - self._at < k and self._tail is not None:
            self._read()
        lines = self._lines[self._at:self._at + k]
        self._at += len(lines)
        self.pos += len(lines)
        return lines

    def next(self, expect: str | None = None, fields: int | None = 2) -> list[str]:
        """The next line's fields, checked by :func:`_fields`."""
        lines = self.take(1)
        if not lines:
            raise RepositoryFormatError("unexpected end of file", line=self.pos + 1)
        return _fields(lines[0], self.pos, expect, fields)


def _fields(line: str, lineno: int, expect: str | None, fields: int | None) -> list[str]:
    """The fields of line ``lineno``, its tag checked against ``expect``.

    ``fields`` is the number of fields :func:`save` writes on the line
    (None when the caller counts them); a line with more is rejected.
    """
    parts = line.split()
    if not parts:
        raise RepositoryFormatError("blank line", line=lineno)
    if expect is not None and parts[0] != expect:
        raise RepositoryFormatError(f"expected {expect!r}, found {parts[0]!r}", line=lineno)
    if fields is not None and len(parts) > fields:
        raise RepositoryFormatError(
            f"extra fields {parts[fields:]} on {parts[0]!r} line", line=lineno
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


def _has_repeat(held: np.ndarray) -> bool:
    """Whether a :func:`_value_array` holds a value twice: equal int64
    values are neighbours once sorted, and Python integers go to a set."""
    if held.dtype == object:
        return len(set(held)) < len(held)
    ordered = np.sort(held)
    return bool((ordered[1:] == ordered[:-1]).any())


def _first_repeat(values: list[int]) -> int:
    """The index of the first value that an earlier one repeats, which exists."""
    first: dict[int, int] = {}
    return next(i for i, v in enumerate(values) if first.setdefault(v, i) != i)


def _check_entry_line(line: str, lineno: int, capacity: int, q: int) -> None:
    """Read entry line ``lineno`` one field at a time, and raise for its
    first fault with its line number; return when it has none."""
    parts = _fields(line, lineno, "entry", 3)
    v = _int_field(parts, 1, lineno)
    if not 0 <= v < capacity:
        raise RepositoryFormatError(f"value {v} out of range", line=lineno)
    try:
        packed = int(parts[2], 16)
    except (ValueError, IndexError) as exc:
        raise RepositoryFormatError("bad packed sign vector", line=lineno) from exc
    if packed >= 1 << q:
        raise RepositoryFormatError("sign vector wider than q", line=lineno)
    try:
        separator.hex_rows([parts[2]], q)
    except ValueError as exc:
        # int() also reads spellings save never writes, such as 0x1f
        raise RepositoryFormatError("bad packed sign vector", line=lineno) from exc


def _entry_block(lines: list[str], capacity: int, q: int) -> tuple[list[int], np.ndarray] | None:
    """The values and key rows of a block of entry lines, each line split
    once, or None when a line is not ``entry <value> <key>`` with a value
    in range and a key :func:`save` could write."""
    values, keys = [], []
    try:
        # each line's fields are dropped as they are read: a block's lists
        # held at once would keep the garbage collector busy
        for tag, value, key in map(str.split, lines):
            if tag != "entry":
                return None
            values.append(value)
            keys.append(key)
        values = list(map(int, values))
        if min(values) < 0 or max(values) >= capacity:
            return None
        return values, separator.hex_rows(keys, q)
    except ValueError:
        return None


def load(source) -> Repository:
    """Read a repository written by :func:`save` from a path, bytes, or a
    text or binary stream.

    The text is read a chunk at a time and split into lines as
    :meth:`str.splitlines` splits it.  The entry lines are taken a block
    of ``separator._HEX_BLOCK`` at a time: each line is split once and
    its tag and value are checked, and the block's keys' hex becomes the
    index's rows in one :func:`separator.hex_rows` call; a block that
    fails any check is read again one line at a time, and its first
    faulty line raises.  Entry i is point id i, and the entries may come
    in any order.  Every malformed line, one with more fields than
    :func:`save` writes among them, raises :class:`RepositoryFormatError`
    with its line number, and so does an entry that repeats an earlier
    entry's sign vector or value, and input that is not UTF-8 text,
    without one.  Nothing is allocated from the header's count before the
    entries are read.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load(fh)
    if isinstance(source, (bytes, bytearray)):
        return load(io.BytesIO(source))
    binary = isinstance(source, (io.RawIOBase, io.BufferedIOBase))
    rd = _LineReader(_utf8_chunks(source) if binary else _text_chunks(source))
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
    _int_field(rd.next("q0"), 1, rd.pos, lo=0, hi=q)  # v1's seeding planes: checked, unused
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

    values: list[int] = []
    words = array("Q")  # the index's key rows, filled a block at a time
    capacity = mapping.capacity
    first = rd.pos
    while len(values) < count:
        want = min(separator._HEX_BLOCK, count - len(values))
        lines = rd.take(want)
        block = _entry_block(lines, capacity, q) if len(lines) == want else None
        if block is None:
            # read the block again one line at a time: its first faulty
            # line raises, or else the end of the file
            for lineno, line in enumerate(lines, rd.pos - len(lines) + 1):
                _check_entry_line(line, lineno, capacity, q)
            if len(lines) == want:
                raise AssertionError("every entry line passed its check after its block failed")
            raise RepositoryFormatError("unexpected end of file", line=rd.pos + 1)
        values += block[0]
        words.frombytes(block[1].ravel().view(np.uint8))
    rd.next("end", 1)
    # point id i is entry i; an empty store keeps the default point
    # buffer, which later inserts grow by doubling
    held = _value_array(values, mapping)
    if count:
        state._pts_buf = _digit_rows(held, mapping)
        state.count = count
    state.index = separator.OvIndex.from_words(words, q)
    state.counters = counters
    # a repeated key or value would serve one of its entries and hide the other
    repeat = state.index.first_repeat()
    if repeat >= 0:
        raise RepositoryFormatError("repeated packed sign vector", line=first + repeat + 1)
    if _has_repeat(held):
        repeat = _first_repeat(values)
        raise RepositoryFormatError(f"repeated value {values[repeat]}", line=first + repeat + 1)
    return Repository(mapping, state, values, seed, dims_history)
