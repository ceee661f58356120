"""Exception types shared across the package."""


class DegenerateDirectionError(ValueError):
    """The pre-normalization filter direction has (numerically) zero norm.

    Raised by renormalize_shortcut, and so by gd_step and fd_grad_check,
    instead of silently perturbing the iterate. run() never renormalizes a
    vector and cannot raise it.
    """


class OffManifoldError(ValueError):
    """A student state violates the unit-norm constraint on shortcut + filter."""


class InfeasibleRegionError(RuntimeError):
    """Rejection sampling exhausted its proposal budget for a region."""
