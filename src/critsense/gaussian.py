"""Single-mode Gaussian states: value types, symplectic transforms, observables.

Conventions: quadratures x = (a + a†)/√2, p = -i(a - a†)/√2, ordering (x, p).
The covariance matrix carries a factor 2, so the vacuum has sigma = identity,
det(sigma) >= 1 expresses the uncertainty relation, and purity = 1/sqrt(det).
GaussianState checks, symmetrises and takes the determinant of sigma once, at
construction; every consumer reads `det_sigma` instead of recomputing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidStateError, PreconditionError

# Soft numerical tolerance for physicality checks; violations beyond the hard
# threshold signal genuine bugs rather than roundoff.
TOL = 1e-12
HARD_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """First-moment vector and covariance matrix of a single bosonic mode.

    Attributes
    ----------
    v : ndarray, shape (2,)
        Quadrature means (<x>, <p>), dimensionless.
    sigma : ndarray, shape (2, 2)
        Symmetric covariance matrix; vacuum = identity.
    det_sigma : float
        det(sigma), computed once at construction.
    """

    v: np.ndarray
    sigma: np.ndarray
    det_sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if v.shape != (2,) or sigma.shape != (2, 2):
            raise InvalidStateError(
                f"expected v shape (2,) and sigma shape (2, 2), got {v.shape} and {sigma.shape}"
            )
        (s11, s12), (s21, s22) = sigma.tolist()
        if not all(map(math.isfinite, (*v.tolist(), s11, s12, s21, s22))):
            raise InvalidStateError("non-finite moments")
        if abs(s12 - s21) > HARD_TOL * max(1.0, abs(s11), abs(s12), abs(s21), abs(s22)):
            raise InvalidStateError(f"covariance asymmetry {s12 - s21:.3e} exceeds tolerance")
        s12 = 0.5 * (s12 + s21)
        det = s11 * s22 - s12 * s12
        # det(sigma) - 1 cancels to eps * |sigma|^2 in floating point, so the
        # tolerance grows quadratically with the covariance magnitude.
        m = max(1.0, abs(s11), abs(s12), abs(s22))
        if det < 1.0 - HARD_TOL * (m * m):
            raise InvalidStateError(
                f"uncertainty relation violated: det(sigma) = {det!r} < 1"
            )
        sigma = np.array([[s11, s12], [s12, s22]])
        v.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "det_sigma", det)


@dataclass(frozen=True)
class DisplacementAmplitude:
    """Displacement alpha = magnitude * exp(i * phase)."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and math.isfinite(self.phase)):
            raise DomainError("displacement parameters must be finite")
        if self.magnitude < 0:
            raise DomainError("displacement magnitude must be >= 0")


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing of strength r; for phase=0, positive r stretches the x variance
    by e^{2r} and squeezes the p variance by e^{-2r}."""

    r: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phase)):
            raise DomainError("squeeze parameters must be finite")


def rotation_matrix(theta: float) -> np.ndarray:
    """Counterclockwise phase-space rotation by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze_matrix(s: SqueezeParam) -> np.ndarray:
    """Symplectic matrix of S(r e^{i phase}); for phase=0 it is diag(e^r, e^-r)."""
    ch, sh = math.cosh(s.r), math.sinh(s.r)
    c, sn = math.cos(s.phase), math.sin(s.phase)
    return np.array([[ch + sh * c, sh * sn], [sh * sn, ch - sh * c]])


def thermal_state(n_bath: float) -> GaussianState:
    """Thermal state with mean photon number n_bath; sigma = (1 + 2 n_bath) I."""
    if not math.isfinite(n_bath) or n_bath < 0:
        raise DomainError(f"n_bath must be >= 0, got {n_bath!r}")
    return GaussianState(np.zeros(2), (1.0 + 2.0 * n_bath) * np.eye(2))


def vacuum_state() -> GaussianState:
    return thermal_state(0.0)


def apply_squeeze(state: GaussianState, s: SqueezeParam) -> GaussianState:
    S = squeeze_matrix(s)
    return GaussianState(S @ state.v, S @ state.sigma @ S.T)


def apply_displace(state: GaussianState, d: DisplacementAmplitude) -> GaussianState:
    shift = math.sqrt(2.0) * d.magnitude * np.array([math.cos(d.phase), math.sin(d.phase)])
    return GaussianState(state.v + shift, state.sigma)


def apply_rotation(state: GaussianState, theta: float) -> GaussianState:
    R = rotation_matrix(theta)
    return GaussianState(R @ state.v, R @ state.sigma @ R.T)


def mean_photons(state: GaussianState) -> float:
    """<a†a> = tr(sigma)/4 - 1/2 + |v|^2/2."""
    n = 0.25 * float(np.trace(state.sigma)) - 0.5 + 0.5 * float(state.v @ state.v)
    if n < -TOL:
        raise InvalidStateError(f"negative photon number {n!r}")
    return max(n, 0.0)


def photon_variance(state: GaussianState) -> float:
    """Photon-number variance of a zero-mean Gaussian state.

    Equals |<a^2>|^2 + N^2 + N by Wick's theorem, i.e.
    (sigma_11^2 + sigma_22^2 + 2 sigma_12^2)/8 - 1/4 in covariance entries.
    """
    if float(np.linalg.norm(state.v)) >= TOL:
        raise PreconditionError("photon_variance requires zero first moments")
    s = state.sigma
    var = (s[0, 0] ** 2 + s[1, 1] ** 2 + 2.0 * s[0, 1] ** 2) / 8.0 - 0.25
    if var < -TOL:
        raise InvalidStateError(f"negative photon variance {var!r}")
    return max(var, 0.0)


def purity(state: GaussianState) -> float:
    """1/sqrt(det sigma), clamped to 1 for roundoff-level violations."""
    return min(1.0 / math.sqrt(state.det_sigma), 1.0)


def complex_moments(state: GaussianState) -> tuple[complex, complex, float]:
    """Return (<a>, <a^2>, <a†a>) of the state."""
    v, s = state.v, state.sigma
    a_mean = (v[0] + 1j * v[1]) / math.sqrt(2.0)
    a2 = (s[0, 0] - s[1, 1]) / 4.0 + (v[0] ** 2 - v[1] ** 2) / 2.0 + 1j * (
        s[0, 1] / 2.0 + v[0] * v[1]
    )
    return complex(a_mean), complex(a2), mean_photons(state)


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) tau sqrt(rho))]^2 for single-mode Gaussians.

    For pure states this is the squared overlap |<psi|phi>|^2.
    """
    total = a.sigma + b.sigma
    delta = a.v - b.v
    big_delta = float(np.linalg.det(total))
    small_delta = (a.det_sigma - 1.0) * (b.det_sigma - 1.0)
    small_delta = max(small_delta, 0.0)
    # 2/(sqrt(D+d) - sqrt(d)) rewritten to avoid cancellation for mixed states
    prefactor = 2.0 * (math.sqrt(big_delta + small_delta) + math.sqrt(small_delta)) / big_delta
    quad = float(delta @ np.linalg.solve(total, delta))
    return min(prefactor * math.exp(-quad), 1.0)
