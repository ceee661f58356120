"""Fixtures shared by the test modules."""

import math

import pytest

from shortcut_gd.schedules import WarmupSchedule


@pytest.fixture
def analytic_schedule():
    """The convergence analysis's step sizes for a teacher (a_star != 0), in place of the
    1/k^2 convention; README "Measured gap" compares them with longer warmups.

    Stage 1: eta_a = pi / (20 (k + pi - 1)^2) and eta_w = ||a_star||^2 eta_a^2,
    for ceil(10 / eta_a) steps (stage 1 runs O(1/eta_a) steps; the constant is 10).
    Stage 2: eta_a = eta_w = min(m / (2 M^2), 5 pi^2 / (4 (k + pi - 1)^2)) with
    (m, M) the teacher's alignment bounds.
    """
    def schedule(teacher):
        k = teacher.k
        eta_a1 = math.pi / (20.0 * (k + math.pi - 1.0) ** 2)
        m, big_m = teacher.alignment_lower, teacher.alignment_upper
        eta2 = min(m / (2.0 * big_m * big_m), 5.0 * math.pi**2 / (4.0 * (k + math.pi - 1.0) ** 2))
        return WarmupSchedule(eta_a1, teacher.a_star_norm_sq * eta_a1 * eta_a1,
                              math.ceil(10.0 / eta_a1), eta2, eta2)

    return schedule
