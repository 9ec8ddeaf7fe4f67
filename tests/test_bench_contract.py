"""The benchmark's tracer can wrap every name it patches, and puts them back.

``bench/spans.py`` replaces public names of the library with timing
wrappers.  A refactor that drops or renames one of them makes
``Tracer.install`` fail; this test catches that in well under a second.
It imports the tracer from ``bench/`` and writes nothing there.
"""

import sys
from pathlib import Path

from planesep import kernels, repository, separator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def import_spans():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import spans
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return spans


def test_tracer_installs_records_and_restores():
    spans = import_spans()
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
