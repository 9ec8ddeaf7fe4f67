"""The benchmark's tracer can wrap every name it patches, and puts them back.

``bench/spans.py`` replaces public names of the library with timing
wrappers.  A refactor that drops or renames one of them makes
``Tracer.install`` fail; this test catches that in well under a second.
The benchmark's selftest, which shows that its correctness checkers
reject wrong outputs, runs here too.  Both are imported from ``bench/``,
and nothing is written there.
"""

import importlib
import sys
from pathlib import Path

from planesep import kernels, repository, separator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def import_bench(name):
    """Module ``name`` from ``bench/``, imported without writing bytecode there."""
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_tracer_installs_records_and_restores():
    spans = import_bench("spans")
    owners = (kernels, repository, separator, separator.OvIndex)
    before = [dict(vars(owner)) for owner in owners]
    query, offer = repository.query, separator.offer
    repo = repository.build([2, 3, 5, 7, 11, 13], 2, 0)

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert repository.query is not query
        assert separator.offer is not offer
        tracer.phase = "query"
        assert repository.query(repo, 13).found
    finally:
        tracer.uninstall()

    assert repository.query is query
    assert separator.offer is offer
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert all(now[k] is v for k, v in names.items()), owner
    metrics = tracer.metrics()
    for name in ("repository.query", "repository.map_to_point",
                 "kernels.residuals_point", "geometry.pack_sign_bits",
                 "separator.OvIndex.lookup"):
        assert metrics[f"query.{name}.calls"] == 1, name


def test_traced_build_records_the_index_layers():
    """The per-layer metrics of BENCHMARK.json read these span names; a
    rename would turn them into silent zeros."""
    spans = import_bench("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "build"
        repo = repository.build(list(range(2, 400, 3)), 3, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["build.separator.emit_plane.calls"] == repo.q - repo.state.q0 > 0
    assert metrics["build.separator.OvIndex.extend_all.calls"] == repo.q - repo.state.q0
    assert metrics["build.separator.OvIndex.insert.calls"] == repo.count
    assert metrics["build.separator.OvIndex.lookup.calls"] > 0


def test_selftest_rejects_every_wrong_case():
    # bench/selftest.py feeds each correctness checker true outputs and
    # deliberately wrong ones; main() returns 0 when every case behaves
    assert import_bench("selftest").main() == 0
