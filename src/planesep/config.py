"""The separator's fixed tolerances.

They cannot be set: every store is built and served with these values,
``save`` records them, and ``load`` rejects a file that names others.
Each :class:`~planesep.separator.SeparationState` holds an instance as
``state.config``.
"""


class RunConfig:
    __slots__ = ()

    epsilon = 1e-9          # incidence tolerance on residuals
    delta0 = 1e-4           # midpoint shift, as a fraction of mean segment length
    max_retries = 8         # shift-and-refit budget per plane
