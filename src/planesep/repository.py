"""Integer store addressed by sign vectors.

An integer becomes a point whose coordinates are its digits, least
significant first (so 37 is (7, 3) and 1729 is (9, 2, 7, 1)); wider
values occupy higher dimensions.  A built repository holds the plane
family, one entry per stored value, and the sorted sign-vector index.
Membership of a candidate value is exact: compute its sign vector
(q*n multiply-adds), binary-search the index, and, on a quadrant hit,
compare the stored value.

Build and insert need exclusive access; queries are read-only and take a
caller-owned counter accumulator, so concurrent readers never contend.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
    """Digits of v, least significant first, zero-padded to n coordinates."""
    if not 0 <= v < mapping.capacity:
        raise DigitOverflowError(
            f"{v} does not fit in {mapping.n} base-{mapping.base} digits"
        )
    out = np.zeros(mapping.n)
    rem = int(v)
    i = 0
    while rem:
        rem, digit = divmod(rem, mapping.base)
        out[i] = digit
        i += 1
    return out


def map_to_points(values, mapping: IntegerMapping) -> np.ndarray:
    """Rows of :func:`map_to_point` for many values, in one vectorised expansion.

    Digits are peeled with int64 arithmetic when every value of the mapping
    fits, and with Python integers (an object array) otherwise.
    """
    vals = [int(v) for v in values]
    if vals and (min(vals) < 0 or max(vals) >= mapping.capacity):
        v = next(v for v in vals if not 0 <= v < mapping.capacity)
        raise DigitOverflowError(
            f"{v} does not fit in {mapping.n} base-{mapping.base} digits"
        )
    wide = mapping.capacity > _INT64_MAX
    rem = np.array(vals, dtype=object if wide else np.int64)
    out = np.zeros((len(vals), mapping.n))
    for i in range(mapping.n):
        out[:, i] = rem % mapping.base
        rem = rem // mapping.base
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


@dataclass
class BuildMeta:
    seed: int
    epsilon: float
    delta0: float
    max_retries: int
    format_version: int = FORMAT_VERSION
    dims_history: tuple[int, ...] = ()


class Repository:
    """A frozen separation state plus the value stored at each point id."""

    def __init__(self, mapping: IntegerMapping, state: separator.SeparationState,
                 values: list[int], meta: BuildMeta):
        self.mapping = mapping
        self.state = state
        self.values = values
        self.value_ids = {v: i for i, v in enumerate(values)}
        self.meta = meta

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
        """(value, point, sign vector) triples in dictionary order of the index."""
        for packed, pid in self.state.index.items():
            yield (
                self.values[pid],
                self.state.points[pid].copy(),
                OrientationVector(self.state.q, packed),
            )

    def _register_new_points(self) -> None:
        """Record the value of every point the state gained since the last call."""
        start = len(self.values)
        new = self.state.points[start:]
        mapping = self.mapping
        is_digit = (new >= 0) & (new < mapping.base) & (new == np.floor(new))
        if not is_digit.all():
            bad = int(np.nonzero(~is_digit.all(axis=1))[0][0])
            point_to_integer(new[bad], mapping)  # raises NotADigitPointError
        vals = (new.astype(np.int64) @ mapping.powers).tolist()
        self.values.extend(vals)
        self.value_ids.update(zip(vals, range(start, start + len(vals))))


def build(values, n: int, seed: int, config: RunConfig | None = None) -> Repository:
    """Map values to digit points, separate them, and index the result."""
    config = config or RunConfig(seed=seed)
    mapping = IntegerMapping(n=n, base=config.base)
    vals = [int(v) for v in values]
    if len(set(vals)) != len(vals):
        raise DuplicatePointError("input values are not pairwise distinct")
    state = separator.run(map_to_points(vals, mapping), n, seed, config)
    meta = BuildMeta(
        seed=seed,
        epsilon=config.epsilon,
        delta0=config.delta0,
        max_retries=config.max_retries,
        dims_history=(n,),
    )
    repo = Repository(mapping, state, [], meta)
    repo._register_new_points()
    return repo


def query(repo: Repository, v: int, counters: OpCounters | None = None) -> QueryResult:
    """Exact membership: sign vector, index search, then value comparison.

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
    if pid is None:
        return QueryResult(found=False, value=v, reason=AbsenceReason.NEW_QUADRANT)
    if repo.values[pid] == v:
        return QueryResult(found=True, value=v)
    return QueryResult(found=False, value=v, reason=AbsenceReason.COORDINATE_MISMATCH)


def insert(repo: Repository, values) -> InsertReport:
    """Add values to a built repository without disturbing stored bits.

    Existing sign vectors only ever gain trailing bits, so every old entry
    keeps its address prefix.  Duplicates (within the batch or against the
    store) are skipped and reported, not errors.
    """
    state = repo.state
    skipped: list[int] = []
    fresh: list[int] = []
    seen = set()
    for v in values:
        v = int(v)
        if v in repo.value_ids or v in seen:
            skipped.append(v)
            continue
        seen.add(v)
        fresh.append(v)
    q_before = state.q
    if fresh:
        # deterministic resume: the stream order and any new free plane
        # coefficients depend only on the build seed and the store shape
        rng = np.random.default_rng([repo.meta.seed, state.count, state.q, len(fresh)])
        state.rng = rng
        pts = np.stack([map_to_point(v, repo.mapping) for v in fresh])
        order = rng.permutation(len(fresh))
        separator.stream_points(state, (pts[i] for i in order))
        separator.finalize(state)
        repo._register_new_points()
    return InsertReport(
        added=len(fresh),
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
    repo.meta.dims_history = repo.meta.dims_history + (n_new,)
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
    w(f"seed {repo.meta.seed}\n")
    w(f"epsilon {state.config.epsilon!r}\n")
    w(f"delta0 {state.config.delta0!r}\n")
    w(f"max-retries {state.config.max_retries}\n")
    w(f"dims-history {','.join(str(d) for d in repo.meta.dims_history)}\n")
    w(f"q0 {state.q0}\n")
    w(f"offers {state.offers} {state.offered_nq} {state.recycle_events}\n")
    c = state.counters.as_dict()
    w("counters " + " ".join(f"{k}={v}" for k, v in c.items()) + "\n")
    for j in range(state.q):
        coeffs = " ".join(repr(float(x)) for x in state._alpha_buf[j])
        w(f"plane {1 if state._saturated[j] else 0} {coeffs}\n")
    for packed, pid in state.index.items():
        w(f"entry {repo.values[pid]} {format(packed, 'x')}\n")
    w("end\n")


class _LineReader:
    def __init__(self, fh):
        self._lines = fh.read().splitlines()
        self.pos = 0

    def next(self, expect: str | None = None) -> list[str]:
        if self.pos >= len(self._lines):
            raise RepositoryFormatError("unexpected end of file", line=self.pos + 1)
        line = self._lines[self.pos]
        self.pos += 1
        parts = line.split()
        if not parts:
            raise RepositoryFormatError("blank line", line=self.pos)
        if expect is not None and parts[0] != expect:
            raise RepositoryFormatError(
                f"expected {expect!r}, found {parts[0]!r}", line=self.pos
            )
        return parts


def _int_field(parts: list[str], idx: int, line: int) -> int:
    try:
        return int(parts[idx])
    except (ValueError, IndexError) as exc:
        raise RepositoryFormatError(f"bad integer field: {parts}", line=line) from exc


def load(source) -> Repository:
    """Read a repository written by :func:`save`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load(fh)
    if isinstance(source, (bytes, bytearray)):
        return load(io.StringIO(source.decode("utf-8")))

    rd = _LineReader(source)
    head = rd.next()
    if head[0] != FORMAT_MAGIC:
        raise RepositoryFormatError(f"bad magic {head[0]!r}", line=1)
    version = _int_field(head, 1, 1)
    if version != FORMAT_VERSION:
        raise RepositoryFormatError(f"unsupported version {version}", line=1)

    n = _int_field(rd.next("n"), 1, rd.pos)
    base = _int_field(rd.next("base"), 1, rd.pos)
    q = _int_field(rd.next("q"), 1, rd.pos)
    count = _int_field(rd.next("count"), 1, rd.pos)
    seed = _int_field(rd.next("seed"), 1, rd.pos)
    try:
        epsilon = float(rd.next("epsilon")[1])
        delta0 = float(rd.next("delta0")[1])
    except (ValueError, IndexError) as exc:
        raise RepositoryFormatError("bad float field", line=rd.pos) from exc
    max_retries = _int_field(rd.next("max-retries"), 1, rd.pos)
    hist_parts = rd.next("dims-history")
    dims_history = (
        tuple(int(x) for x in hist_parts[1].split(",")) if len(hist_parts) > 1 else ()
    )
    q0 = _int_field(rd.next("q0"), 1, rd.pos)
    offers_parts = rd.next("offers")
    offers = _int_field(offers_parts, 1, rd.pos)
    offered_nq = _int_field(offers_parts, 2, rd.pos)
    recycles = _int_field(offers_parts, 3, rd.pos)
    counter_parts = rd.next("counters")
    try:
        counter_map = {
            k: int(v) for k, v in (kv.split("=", 1) for kv in counter_parts[1:])
        }
    except ValueError as exc:
        raise RepositoryFormatError("bad counters field", line=rd.pos) from exc

    config = RunConfig(
        seed=seed, epsilon=epsilon, delta0=delta0, max_retries=max_retries, base=base
    )
    mapping = IntegerMapping(n=n, base=base)
    state = separator.SeparationState(n=n, config=config, rng=np.random.default_rng(seed))
    state.q0 = q0
    state.offers = offers
    state.offered_nq = offered_nq
    state.recycle_events = recycles

    for _ in range(q):
        parts = rd.next("plane")
        if len(parts) != 2 + n:
            raise RepositoryFormatError(
                f"plane line has {len(parts) - 2} coefficients, expected {n}", line=rd.pos
            )
        saturated = parts[1] == "1"
        try:
            alpha = np.array([float(x) for x in parts[2:]])
        except ValueError as exc:
            raise RepositoryFormatError("bad plane coefficient", line=rd.pos) from exc
        state._append_plane(alpha, saturated)

    values: list[int] = []
    keys: list[int] = []
    prev_packed = -1
    capacity = mapping.capacity
    key_limit = 1 << max(q, 1)
    for _ in range(count):
        parts = rd.next("entry")
        v = _int_field(parts, 1, rd.pos)
        if not 0 <= v < capacity:
            raise RepositoryFormatError(f"value {v} out of range", line=rd.pos)
        try:
            packed = int(parts[2], 16)
        except (ValueError, IndexError) as exc:
            raise RepositoryFormatError("bad packed sign vector", line=rd.pos) from exc
        if packed >= key_limit:
            raise RepositoryFormatError("sign vector wider than q", line=rd.pos)
        if packed <= prev_packed:
            raise RepositoryFormatError("entries not in strict dictionary order", line=rd.pos)
        prev_packed = packed
        values.append(v)
        keys.append(packed)
    rd.next("end")
    # entries arrive in strict dictionary order, so point id i is entry i
    # and the index is the key list as read; an empty store keeps the
    # default point buffer, which later inserts grow by doubling
    if count:
        state._pts_buf = map_to_points(values, mapping)
        state.count = count
    state.index = separator.OvIndex.from_sorted(keys)
    state.counters = OpCounters.from_dict(counter_map)

    meta = BuildMeta(
        seed=seed,
        epsilon=epsilon,
        delta0=delta0,
        max_retries=max_retries,
        format_version=version,
        dims_history=dims_history,
    )
    return Repository(mapping, state, values, meta)
