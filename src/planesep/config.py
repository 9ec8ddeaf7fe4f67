"""Run configuration shared by the separator, repository and CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = 1e-9          # incidence tolerance on residuals
    delta0: float = 1e-4           # midpoint shift, as a fraction of mean segment length
    max_retries: int = 8           # shift-and-refit budget per plane
    base: int = 10                 # radix of the digit mapping

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.base < 2:
            raise ValueError("base must be at least 2")
