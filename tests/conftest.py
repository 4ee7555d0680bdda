import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from critsense.dynamics import SystemParams, evolve_critical, evolve_passive, steady_state
from critsense.gaussian import (
    DisplacementAmplitude,
    SqueezeParam,
    apply_displace,
    apply_squeeze,
    thermal_state,
)

# Deterministic property tests that write nothing into the working tree: no
# example database, and the cache of source literals that Hypothesis keeps
# whatever the database setting goes to the system's temporary directory.
settings.register_profile("critsense", derandomize=True, deadline=None, database=None)
settings.load_profile("critsense")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "critsense-hypothesis")


def cqs_state_family(params: SystemParams, t: float):
    """delta_omega -> evolved state of the driven protocol (thermal start)."""
    start = thermal_state(params.n_bath)

    def family(delta: float):
        return evolve_critical(params.with_shift(delta), start, t)

    return family


def steady_state_family(params: SystemParams):
    def family(delta: float):
        return steady_state(params.with_shift(delta))

    return family


def pqs_state_family(alpha: float, r: float, params: SystemParams, t: float):
    """delta_omega -> freely evolved displaced squeezed thermal state."""
    start = apply_displace(
        apply_squeeze(thermal_state(params.n_bath), SqueezeParam(r)),
        DisplacementAmplitude(alpha),
    )

    def family(delta: float):
        return evolve_passive(params.with_shift(delta), start, t)

    return family


def pqs_qfi_closed_form(alpha: float, r: float, gamma: float, t: float) -> float:
    """Zero-temperature passive QFI closed form (displaced squeezed input)."""
    first = 4.0 * alpha ** 2 / (math.exp(-2.0 * r) + math.exp(2.0 * gamma * t) - 1.0)
    num = math.exp(-2.0 * r) * (math.exp(4.0 * r) - 1.0) ** 2
    den = 2.0 * math.exp(2.0 * r + 4.0 * gamma * t) + (math.exp(2.0 * r) - 1.0) ** 2 * (
        math.exp(2.0 * gamma * t) - 1.0
    )
    return (first + num / den) * t * t


@pytest.fixture(scope="session")
def unit_params():
    """omega0 = gamma = 1, no drive, zero temperature."""
    return SystemParams(1.0, 0.0, 1.0)
