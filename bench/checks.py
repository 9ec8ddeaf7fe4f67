"""Ground truth and correctness checkers for the benchmark workloads.

Everything here is computed apart from the program: the sieve, the digit
expansion and the residual sweep are the benchmark's own.  Each checker
raises :class:`CheckFailed` with a short description of the first
problems it finds; ``selftest.py`` feeds every checker a wrong case.
"""

from __future__ import annotations

import numpy as np

_CHUNK_ROWS = 8192


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def sieve(limit: int) -> np.ndarray:
    """Boolean table of length ``limit``: entry v is True iff v is prime."""
    table = np.ones(limit, dtype=bool)
    table[: min(limit, 2)] = False
    for p in range(2, int(limit**0.5) + 1):
        if table[p]:
            table[p * p :: p] = False
    return table


def membership(values, limit: int) -> np.ndarray:
    """Boolean table of length ``limit`` with exactly ``values`` set."""
    table = np.zeros(limit, dtype=bool)
    table[np.asarray(values, dtype=np.int64)] = True
    return table


def digit_matrix(values, n: int, base: int = 10) -> np.ndarray:
    """Digits of each value, least significant first, as float rows of width n."""
    rest = np.asarray(values, dtype=np.int64).copy()
    out = np.zeros((rest.shape[0], n))
    for i in range(n):
        out[:, i] = rest % base
        rest //= base
    if np.any(rest):
        raise CheckFailed(f"some value needs more than {n} base-{base} digits")
    return out


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Rows of a boolean matrix as ints, first column as the most significant bit."""
    q = bits.shape[1]
    packed = np.packbits(bits, axis=1, bitorder="big")
    shift = 8 * packed.shape[1] - q
    return [int.from_bytes(row.tobytes(), "big") >> shift for row in packed]


def check_answers(candidates, found, truth: np.ndarray, what: str) -> None:
    """Every query answer equals membership in the benchmark's own truth table."""
    cand = np.asarray(candidates, dtype=np.int64)
    got = np.asarray(found, dtype=bool)
    if got.shape != cand.shape:
        raise CheckFailed(f"{what}: {got.shape[0]} answers for {cand.shape[0]} queries")
    wrong = np.nonzero(got != truth[cand])[0]
    if wrong.size:
        shown = ", ".join(f"{int(cand[i])}->{bool(got[i])}" for i in wrong[:5])
        raise CheckFailed(f"{what}: {wrong.size} of {cand.size} answers wrong ({shown})")


def check_query_cost(multiplications, n: int, q: int, what: str) -> None:
    """Every query costs exactly n*q multiplications (one entry per query)."""
    mults = np.asarray(multiplications, dtype=np.int64)
    bad = np.nonzero(mults != n * q)[0]
    if bad.size:
        raise CheckFailed(
            f"{what}: {bad.size} queries did not cost n*q = {n * q} multiplications "
            f"(first: {int(mults[bad[0]])})"
        )


def check_total_query_cost(total: int, count: int, n: int, q: int, what: str) -> None:
    """A counter summed over ``count`` queries equals count*n*q."""
    if total != count * n * q:
        raise CheckFailed(
            f"{what}: {total} multiplications for {count} queries, expected {count * n * q}"
        )


def check_separation(addresses: dict[int, int], q: int, planes: np.ndarray,
                     epsilon: float, base: int = 10) -> None:
    """Recompute every stored address from the digits and the plane matrix.

    Every residual must lie outside the incidence band, all sign rows must
    be distinct, and each row must equal the stored address.
    """
    values = np.fromiter(addresses.keys(), dtype=np.int64, count=len(addresses))
    if planes.shape[0] != q:
        raise CheckFailed(f"plane matrix has {planes.shape[0]} rows, q is {q}")
    n = planes.shape[1]
    seen: set[int] = set()
    for lo in range(0, values.size, _CHUNK_ROWS):
        chunk = values[lo : lo + _CHUNK_ROWS]
        resid = 1.0 + digit_matrix(chunk, n, base) @ planes.T
        near = np.abs(resid) <= epsilon
        if np.any(near):
            i = int(np.nonzero(near.any(axis=1))[0][0])
            raise CheckFailed(f"value {int(chunk[i])} lies within epsilon of a plane")
        for v, row in zip(chunk.tolist(), _pack_rows(resid > 0)):
            if row != addresses[v]:
                raise CheckFailed(
                    f"value {v}: recomputed address {row:x} != stored {addresses[v]:x}"
                )
            seen.add(row)
    if len(seen) != values.size:
        raise CheckFailed(f"{values.size - len(seen)} sign rows are shared")


def check_prefixes(before: dict[int, int], q_before: int,
                   after: dict[int, int], q_after: int, what: str) -> None:
    """Each address stored before a stage is a bit prefix of its new address."""
    if q_after < q_before:
        raise CheckFailed(f"{what}: q fell from {q_before} to {q_after}")
    shift = q_after - q_before
    missing = [v for v in before if v not in after]
    if missing:
        raise CheckFailed(f"{what}: {len(missing)} stored values vanished (first {missing[0]})")
    bad = [v for v, bits in before.items() if after[v] >> shift != bits]
    if bad:
        v = bad[0]
        raise CheckFailed(
            f"{what}: {len(bad)} addresses do not extend their prefix "
            f"(value {v}: {before[v]:x} -> {after[v]:x})"
        )


def check_same_bytes(first: bytes, second: bytes, what: str) -> None:
    """Two serialisations of one repository are byte-identical."""
    if first != second:
        at = next(
            (i for i, (a, b) in enumerate(zip(first, second)) if a != b),
            min(len(first), len(second)),
        )
        raise CheckFailed(
            f"{what}: files differ at byte {at} ({len(first)} vs {len(second)} bytes)"
        )


def check_count(stored: int, expected: int, what: str) -> None:
    """The stored count equals the number of distinct values given."""
    if stored != expected:
        raise CheckFailed(f"{what}: {stored} values stored, {expected} distinct values given")
