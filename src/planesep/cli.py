"""Command-line front end: build, query, insert, stats, bench, plot.

Each report is one dict, printed either as one JSON object
(``--format jsonl``) or as one ``key value`` line per field, so both
formats carry the same keys.  Text renders booleans as yes/NO, lists
comma-joined and a missing value as ``-``.

Exit codes: 0 success (query: found), 1 query absent, 2 input, load or
write failure (a bad ``--dims``, a value too wide for the digits or a
repository file that is not UTF-8 among them), 3 algorithm failure, 4
wrong plotting dimension.  Commands let errors rise, and :func:`main`
alone turns one into its exit code and one stderr line, so no failure
exits 1, which reads as "absent".  Output files are written to a
temporary sibling and renamed into place, so a failed command never
leaves a partial file.  A new output file gets the mode ``open`` gives
a new file, 0o666 less the umask, and a replaced file keeps its mode.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import oracle, repository, separator, svgplot
from .counters import OpCounters
from .errors import (
    DimensionMismatchError,
    GeometryExhaustedError,
    IncidentPointError,
    PlanesepError,
    RepositoryFormatError,
)

EXIT_OK = 0
EXIT_ABSENT = 1
EXIT_IO = 2
EXIT_ALGORITHM = 3
EXIT_DIMENSION = 4


def _text_value(value) -> str:
    """A report value as text: yes/NO, comma-joined lists, - for None."""
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if value is None:
        return "-"
    return str(value)


def _emit(report_format: str, report: dict) -> None:
    """Print a report as one JSON object or as one ``key value`` line per field."""
    if report_format == "jsonl":
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key} {_text_value(value)}")


def _run_report(state, scenario: str, seed: int, wall: float, base: int | None = None) -> dict:
    """The build/bench report of a finished separation state, its separation
    checked by the oracle.

    For digit data ``mult_scale`` (n * base^(n+1)) and the measured count's
    ratio to it are added; it is a scale, not a bound: a build may exceed it.
    """
    c = state.counters
    verdict = oracle.verify_separation(state.points, state.plane_matrix, state.config.epsilon)
    report = {
        "scenario": scenario,
        "seed": seed,
        "N_f": state.count,
        "n": state.n,
        "q_total": state.q,
        "q_emitted": state.q_emitted,
        **c.as_dict(),
        "wall_time_s": round(wall, 6),
        "verified": verdict.ok,
    }
    if base is not None:
        scale = state.n * base ** (state.n + 1)
        report["mult_scale"] = scale
        report["mult_scale_ratio"] = c.multiplications / scale
    return report


# ---------------------------------------------------------------------------
# value sources
# ---------------------------------------------------------------------------

def read_values_source(source: str) -> tuple[list[int], int]:
    """Values from `primes:<limit>`, `random:<N>:<limit>:<seed>`, or a file.

    Returns the deduplicated values and how many duplicates were dropped.
    """
    if source.startswith("primes:"):
        limit = int(source.split(":", 1)[1])
        if limit < 3:
            return [], 0
        table = oracle.sieve(limit)
        return [int(p) for p in table.primes() if p < limit], 0
    if source.startswith("random:"):
        parts = source.split(":")
        if len(parts) != 4:
            raise ValueError("random source must be random:<N>:<limit>:<seed>")
        count, limit, seed = int(parts[1]), int(parts[2]), int(parts[3])
        if count > limit:
            raise ValueError(f"cannot draw {count} distinct values below {limit}")
        rng = np.random.default_rng(seed)
        if limit <= 10_000_000:
            vals = rng.choice(limit, size=count, replace=False)
            return [int(v) for v in vals], 0
        chosen: set[int] = set()
        while len(chosen) < count:
            for v in rng.integers(0, limit, size=count):
                chosen.add(int(v))
                if len(chosen) == count:
                    break
        return sorted(chosen), 0

    values: list[int] = []
    seen: set[int] = set()
    duplicates = 0
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: not an integer: {line!r}") from exc
            if v < 0:
                raise ValueError(f"{source}:{lineno}: negative values are not storable")
            if v in seen:
                duplicates += 1
                continue
            seen.add(v)
            values.append(v)
    return values, duplicates


def infer_dims(values: list[int], base: int) -> int:
    n = 1
    top = max(values, default=0)
    while base**n <= top:
        n += 1
    return n


def _write_atomic(path: str, write) -> None:
    """Call ``write`` on a temporary sibling of ``path``, flush it to disk,
    then rename it into place with the mode of the file it replaces, or of
    a new file: after a crash, ``path`` holds the old file or the whole new
    one, never a part of it."""
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")  # mode 0600
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise PlanesepError(f"cannot write {path}: {exc}") from exc


def _load_repo(path: str) -> repository.Repository:
    try:
        return repository.load(path)
    except (OSError, RepositoryFormatError) as exc:
        raise PlanesepError(f"cannot load {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    values, duplicates = read_values_source(args.source)
    n = args.dims or infer_dims(values, args.base)
    t0 = time.perf_counter()
    repo = repository.build(values, n, args.seed, base=args.base)
    wall = time.perf_counter() - t0
    report = _run_report(repo.state, f"build:{args.source}", args.seed, wall, base=args.base)
    _write_atomic(args.out, lambda fh: repository.save(repo, fh))
    if duplicates:
        report["duplicates_skipped"] = duplicates
    report["out"] = args.out
    _emit(args.format, report)
    return EXIT_OK if report["verified"] else EXIT_ALGORITHM


def cmd_query(args) -> int:
    repo = _load_repo(args.repo)
    counters = OpCounters()
    result = repository.query(repo, args.value, counters)
    _emit(args.format, {
        "value": args.value,
        "found": result.found,
        "reason": None if result.found else result.reason.value,
        **counters.as_dict(),
    })
    return EXIT_OK if result.found else EXIT_ABSENT


def cmd_insert(args) -> int:
    repo = _load_repo(args.repo)
    values, duplicates = read_values_source(args.source)
    q_before = repo.q
    t0 = time.perf_counter()
    report = repository.insert(repo, values)
    wall = time.perf_counter() - t0
    _write_atomic(args.repo, lambda fh: repository.save(repo, fh))
    _emit(args.format, {
        "added": report.added,
        "skipped_duplicates": len(report.skipped_duplicates) + duplicates,
        "planes_added": report.planes_added,
        "q_before": q_before,
        "q_total": repo.q,
        "wall_time_s": round(wall, 6),
    })
    return EXIT_OK


def cmd_stats(args) -> int:
    repo = _load_repo(args.repo)
    state = repo.state
    base = repo.mapping.base
    n = state.n
    c = state.counters
    # (base-1)*n axis-threshold planes alone separate every digit point; q is
    # compared with that plus q0, and with the quoted 10n, neither of which
    # the algorithm promises to meet
    baseline = (base - 1) * n + state.q0
    try:
        expected_nf = base**n / n
    except OverflowError:  # past the float range, the exact integer quotient
        expected_nf = base**n // n
    # every stored point met every plane at least once, at the first width
    # or a later, wider one
    n_first = repo.dims_history[0]
    ov_floor = state.count * n_first * state.q
    q_lower_bound = oracle.plane_count_lower_bound(state.count, n)

    _emit(args.format, {
        "n": n,
        "dims_history": list(repo.dims_history),
        "base": base,
        "N_f": state.count,
        "q_total": state.q,
        "q0": state.q0,
        "q_emitted": state.q_emitted,
        "offers": state.offers,
        "recycle_events": state.recycle_events,
        **c.as_dict(),
        "quoted_q_10n": 10 * n,
        "baseline_thresholds_plus_q0": baseline,
        "expected_N_f": expected_nf,
        "ov_mult_floor": ov_floor,
        "ov_mult_floor_ok": c.multiplications >= ov_floor,
        "q_lower_bound": q_lower_bound,
        "q_lower_bound_ok": state.q >= q_lower_bound,
    })
    return EXIT_OK


def _bench_once(scenario: str, seed: int, base: int) -> dict:
    parts = scenario.split(":")
    if parts[0] == "cube":
        if len(parts) != 3:
            raise ValueError("cube scenario must be cube:<N>:<dims>")
        count, dims = int(parts[1]), int(parts[2])
        pts = np.random.default_rng(seed).random((count, dims))
        t0 = time.perf_counter()
        state = separator.run(pts, dims, seed)
        wall = time.perf_counter() - t0
        return _run_report(state, scenario, seed, wall)
    if parts[0] == "primes":
        if len(parts) != 3:
            raise ValueError("primes scenario must be primes:<limit>:<dims>")
        limit, dims = int(parts[1]), int(parts[2])
        values, _ = read_values_source(f"primes:{limit}")
        t0 = time.perf_counter()
        repo = repository.build(values, dims, seed, base=base)
        wall = time.perf_counter() - t0
        return _run_report(repo.state, scenario, seed, wall, base=base)
    raise ValueError(f"unknown scenario {parts[0]!r}")


def cmd_bench(args) -> int:
    exit_code = EXIT_OK
    for rep in range(args.repeat):
        report = _bench_once(args.scenario, args.seed + rep, args.base)
        if not report["verified"]:
            exit_code = EXIT_ALGORITHM
        _emit(args.format, report)
        if args.format == "text":
            print()  # a blank line between repeats
    return exit_code


def cmd_plot(args) -> int:
    text = svgplot.render_svg(_load_repo(args.repo))
    _write_atomic(args.out, lambda fh: fh.write(text))
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _radix(text: str) -> int:
    base = int(text)
    if base < 2:
        raise argparse.ArgumentTypeError("base must be at least 2")
    return base


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return count


def _add_seed_and_base(sp) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--base", type=_radix, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planesep",
        description="Store integer sets as points separated by hyperplanes and "
        "query exact membership via packed sign vectors.",
    )
    parser.add_argument(
        "--format", choices=("text", "jsonl"), default="text", help="report format"
    )
    # accept --format after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "jsonl"), default=argparse.SUPPRESS,
        help="report format",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("build", help="build a repository from a values source")
    sp.add_argument("--source", required=True,
                    help="file of integers, primes:<limit>, or random:<N>:<limit>:<seed>")
    sp.add_argument("--out", required=True, help="repository file to write")
    sp.add_argument("--dims", type=int, default=0, help="digit width (default: inferred)")
    _add_seed_and_base(sp)
    sp.set_defaults(func=cmd_build)

    sp = add_parser("query", help="exact membership test for one value")
    sp.add_argument("repo")
    sp.add_argument("value", type=int)
    sp.set_defaults(func=cmd_query)

    sp = add_parser("insert", help="insert new values into a repository file")
    sp.add_argument("repo")
    sp.add_argument("--source", required=True)
    sp.set_defaults(func=cmd_insert)

    sp = add_parser("stats", help="counters and bound checks for a repository")
    sp.add_argument("repo")
    sp.set_defaults(func=cmd_stats)

    sp = add_parser("bench", help="run a separation scenario and report counters")
    sp.add_argument("scenario", help="cube:<N>:<dims> or primes:<limit>:<dims>")
    sp.add_argument("--repeat", type=_count, default=1)
    _add_seed_and_base(sp)
    sp.set_defaults(func=cmd_bench)

    sp = add_parser("plot", help="render a 2-digit repository as SVG")
    sp.add_argument("repo")
    sp.add_argument("out")
    sp.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place where an exception becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryExhaustedError, IncidentPointError) as exc:
        print(f"algorithm failure: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except DimensionMismatchError as exc:  # plot of a store whose n is not 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (OSError, ValueError, PlanesepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
