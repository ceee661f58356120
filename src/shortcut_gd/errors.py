"""Exception types shared across the package."""


class DegenerateDirectionError(ValueError):
    """The pre-normalization filter direction has (numerically) zero norm.

    Raised by renormalize_shortcut instead of silently perturbing the
    iterate. fd_grad_check renormalizes only points within 1e-3 of a unit
    vector, and run() never renormalizes a vector, so neither can raise it.
    """


class OffManifoldError(ValueError):
    """A student state violates the unit-norm constraint on shortcut + filter."""


class InfeasibleRegionError(RuntimeError):
    """Rejection sampling exhausted its proposal budget for a region."""
