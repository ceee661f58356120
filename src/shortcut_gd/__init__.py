"""Two-layer convolutional teacher-student training with a shortcut connection.

Closed-form population landscape, normalized gradient descent with warmup
schedules, a Monte-Carlo oracle certifying the closed forms, dissipativity
region checks, and a reproduction harness for the success-rate tables.
"""

from .landscape import (
    CriticalPair,
    EscapeRegion,
    FilterBasinRegion,
    OffManifoldError,
    RefinementRegion,
    critical_points,
    grad_a,
    grad_w,
    population_loss,
    relu_kernel_at_cos,
    spurious_output_weights,
)
from .model import (
    StudentState, TeacherSpec, make_rng, random_state, random_teacher, shortcut_direction,
)
from .optimizer import (
    KINDS,
    Outcome,
    Trajectory,
    cnn_run,
    gaussian_init,
    run,
    sample_cnn_init,
    sample_init,
)
from .oracle import FdReport, McEstimate, fd_grad_check, mc_estimates
from .schedules import ConstantSchedule, WarmupSchedule
from .verification import (
    DissipativityReport,
    InfeasibleRegionError,
    MonitorViolation,
    basin_entry_index,
    check_dissipativity,
    monitor_trajectory,
    negative_control_filter_basin,
    region_membership,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantSchedule",
    "CriticalPair",
    "DissipativityReport",
    "EscapeRegion",
    "FdReport",
    "FilterBasinRegion",
    "InfeasibleRegionError",
    "KINDS",
    "McEstimate",
    "MonitorViolation",
    "OffManifoldError",
    "Outcome",
    "RefinementRegion",
    "StudentState",
    "TeacherSpec",
    "Trajectory",
    "WarmupSchedule",
    "basin_entry_index",
    "check_dissipativity",
    "cnn_run",
    "critical_points",
    "fd_grad_check",
    "gaussian_init",
    "grad_a",
    "grad_w",
    "make_rng",
    "mc_estimates",
    "monitor_trajectory",
    "negative_control_filter_basin",
    "population_loss",
    "random_state",
    "random_teacher",
    "region_membership",
    "relu_kernel_at_cos",
    "run",
    "sample_cnn_init",
    "sample_init",
    "shortcut_direction",
    "spurious_output_weights",
]
