"""Span tracing of the library's layers, installed from outside the program.

:meth:`Tracer.install` replaces public names with timing wrappers: the
``kernels`` module functions, ``separator.offer``/``emit_plane``/``finalize``,
the names ``separator`` and ``repository`` import directly, the ``OvIndex``
methods on the class, and the ``repository`` entry points the workloads
call.  Every call becomes a span with a parent; spans stay in memory and
are written out once, when the run ends.  A span's self time is its
duration minus the durations of its child spans; :func:`aggregate` computes
it from the span columns, for the traced run and for ``reference.py``.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

PHASES = ("build", "query", "insert", "persist")
_DTYPES = {"q": np.int64, "i": np.int32, "b": np.int8}


def aggregate(spans) -> dict[tuple[str, str], tuple[int, float, float]]:
    """(phase, function) -> (calls, total s, self s) from span columns.

    ``spans`` maps the column names of :meth:`Tracer.columns` to arrays, as
    the ``.npz`` file written by :meth:`Tracer.write` does.  The self times
    of a phase sum to the duration of its root spans.
    """
    n = spans["id"].size
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    pos = np.empty(n, dtype=np.int64)
    pos[spans["id"]] = np.arange(n)
    nested = spans["parent"] >= 0
    self_ns = dur - np.bincount(pos[spans["parent"][nested]], weights=dur[nested], minlength=n)
    names = [str(name) for name in spans["names"]]
    key = spans["phase"].astype(np.int64) * len(names) + spans["name"]
    size = len(PHASES) * len(names)
    calls = np.bincount(key, minlength=size)
    total = np.bincount(key, weights=dur, minlength=size)
    own = np.bincount(key, weights=self_ns, minlength=size)
    return {(PHASES[k // len(names)], names[k % len(names)]):
            (int(calls[k]), total[k] / 1e9, own[k] / 1e9) for k in np.nonzero(calls)[0]}


class Tracer:
    def __init__(self):
        self.phase: str | None = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = 0
        self._stack: list[tuple[int, int]] = []  # (span id, name id) of the open spans
        self._cols = {
            "id": array("q"), "parent": array("q"), "name": array("i"),
            "phase": array("b"), "start_ns": array("q"), "end_ns": array("q"),
        }
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, k: int = 1) -> None:
        if self.phase is not None:
            self.counts[(self.phase, name)] += k

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper for ``fn``; ``after(result, args)`` adds counts."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        cols = self._cols
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            phase = self.phase
            # a function re-entering itself (save and load do, with an open
            # file) stays inside its outer span
            if phase is None or (stack and stack[-1][1] == name_id):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, name_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[(phase, f"{name}.{type(exc).__name__}")] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                cols["id"].append(span_id)
                cols["parent"].append(parent)
                cols["name"].append(name_id)
                cols["phase"].append(PHASES.index(phase))
                cols["start_ns"].append(start)
                cols["end_ns"].append(end)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- the layers -----------------------------------------------------------

    def install(self) -> None:
        from planesep import kernels, repository, separator

        def after_offer(result, args):
            self.count(f"separator.offer.{result.kind.value}")

        def after_emit(report, args):
            if report.constraint_count < args[0].n:
                self.count("separator.emit_plane.partial")

        def after_rows(result, args):
            self.count("kernels.residuals_plane.rows", args[0].shape[0])

        for attr in ("residuals_point", "residuals_plane", "gauss_solve"):
            self.patch(kernels, attr, f"kernels.{attr}",
                       after_rows if attr == "residuals_plane" else None)
        self.patch(separator, "offer", "separator.offer", after_offer)
        self.patch(separator, "emit_plane", "separator.emit_plane", after_emit)
        self.patch(separator, "finalize", "separator.finalize")
        self.patch(separator, "fit_plane_through", "geometry.fit_plane_through")
        for module in (separator, repository):
            self.patch(module, "pack_sign_bits", "geometry.pack_sign_bits")
            self.patch(module, "signs_from_residuals", "geometry.signs_from_residuals")
        self.patch(repository, "map_to_point", "repository.map_to_point")
        for attr in ("lookup", "insert", "extend_all"):
            self.patch(separator.OvIndex, attr, f"separator.OvIndex.{attr}")
        for attr in ("build", "query", "insert", "grow_dimension", "save", "load"):
            self.patch(repository, attr, f"repository.{attr}")

    # -- results --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as columns, plus the name and phase tables."""
        cols = {k: np.frombuffer(v, dtype=_DTYPES[v.typecode]) for k, v in self._cols.items()}
        return dict(cols, names=np.array(self.names), phases=np.array(PHASES))

    def metrics(self) -> dict[str, float]:
        """Per-layer figures, keyed ``<phase>.<function>.<quantity>``."""
        out: dict[str, float] = {}
        for (phase, name), (calls, total_s, self_s) in aggregate(self.columns()).items():
            out[f"{phase}.{name}.calls"] = calls
            out[f"{phase}.{name}.s"] = total_s
            out[f"{phase}.{name}.self_s"] = self_s
        for (phase, name), k in self.counts.items():
            out[f"{phase}.{name}"] = k
        for phase in PHASES:
            out[f"{phase}.geometry.fit_plane_through.inconsistent"] = out.get(
                f"{phase}.geometry.fit_plane_through.InconsistentSystemError", 0)
            fits = out.get(f"{phase}.geometry.fit_plane_through.calls", 0)
            planes = out.get(f"{phase}.separator.emit_plane.calls", 0)
            out[f"{phase}.separator.fits_per_plane"] = fits / planes if planes else 0.0
        return out

    def write(self, path) -> None:
        """The columns in one .npz file."""
        np.savez(path, **self.columns())
