"""Operation counters.

Every arithmetic step the engine performs is tallied here by the caller
that requested it: the kernels themselves stay pure.  `multiplications`,
`additions`, `sign_evals` and `bit_comparisons` are grand totals; the
`*_multiplications` fields attribute the multiplication total to its three
sources (full sign-vector evaluations, single-plane extension sweeps, and
linear solves).  A counters object is owned by exactly one caller; nothing
in the package updates a shared global.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass
class OpCounters:
    multiplications: int = 0
    additions: int = 0
    sign_evals: int = 0
    bit_comparisons: int = 0
    ov_multiplications: int = 0
    extension_multiplications: int = 0
    solve_multiplications: int = 0

    def snapshot(self) -> "OpCounters":
        return replace(self)

    def delta(self, before: "OpCounters") -> "OpCounters":
        """Counts accumulated since `before` was snapshotted."""
        return OpCounters(
            **{f.name: getattr(self, f.name) - getattr(before, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
