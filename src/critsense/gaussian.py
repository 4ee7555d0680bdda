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

from ._elementwise import lib, matrix, reject
from .errors import DomainError, InvalidStateError, PreconditionError

# Soft numerical tolerance for physicality checks; a violation beyond HARD_TOL
# of the scale its rounding has signals a genuine bug rather than roundoff.
TOL = 1e-12
HARD_TOL = 1e-9
# det(sigma) = s11 s22 - s12^2 is known to about this fraction of s11 s22 + s12^2.
DET_ROUNDING = 1e-14

# The 2x2 identity, shared read-only: np.eye costs more than the products it scales.
IDENTITY = np.eye(2)
IDENTITY.setflags(write=False)


def _physical_moments(v1, v2, s11, s12, s21, s22):
    """The physicality rules of a state's moments, for floats or for arrays
    over t: finite moments, a symmetric sigma, non-negative variances and
    det(sigma) >= 1. Returns the symmetrised s12 and det(sigma); raises
    InvalidStateError at the first moment that breaks a rule."""
    f = lib(s11)
    nonfinite = f.not_(f.all_finite(v1, v2, s11, s12, s21, s22))
    asymmetry = s12 - s21
    asymmetric = abs(asymmetry) > HARD_TOL * f.max(1.0, abs(s11), abs(s12), abs(s21), abs(s22))
    negative = (s11 < 0) | (s22 < 0)
    s12 = 0.5 * (s12 + s21)
    det = s11 * s22 - s12 * s12
    # det(sigma) = s11 s22 - s12^2 rounds by a few ulps of the larger of
    # its two products, so a pure state with s11 s22 ~ 1e18 can round to
    # det <= 0; a shortfall beyond HARD_TOL of that product is no rounding.
    uncertain = det < 1.0 - HARD_TOL * f.max(s11 * s22, s12 * s12)
    # One test when every rule holds for a float; the rules in order otherwise.
    if (nonfinite | asymmetric | negative | uncertain) is not False:
        reject(nonfinite, InvalidStateError, "non-finite moments")
        reject(asymmetric, InvalidStateError, "covariance asymmetry {:.3e} exceeds tolerance", asymmetry)
        reject(negative, InvalidStateError, "negative variance: diag(sigma) = ({!r}, {!r})", s11, s22)
        reject(uncertain, InvalidStateError, "uncertainty relation violated: det(sigma) = {!r} < 1", det)
    return s12, det


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
        s12, det = _physical_moments(*v.tolist(), s11, s12, s21, s22)
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


def rotation_matrix(theta) -> np.ndarray:
    """Counterclockwise phase-space rotation by theta (a float, or an array
    for a stack of rotations)."""
    f = lib(theta)
    c, s = f.cos(theta), f.sin(theta)
    return matrix(c, -s, s, c)


def squeeze_matrix(s: SqueezeParam) -> np.ndarray:
    """Symplectic matrix of S(r e^{i phase}) = R(phase/2) diag(e^r, e^-r) R(phase/2)^T,
    built from its factors: cosh r - sinh r would cancel the digits of e^-r."""
    rot = rotation_matrix(0.5 * s.phase)
    return rot @ np.diag([math.exp(s.r), math.exp(-s.r)]) @ rot.T


def thermal_state(n_bath: float) -> GaussianState:
    """Thermal state with mean photon number n_bath; sigma = (1 + 2 n_bath) I."""
    if not math.isfinite(n_bath) or n_bath < 0:
        raise DomainError(f"n_bath must be >= 0, got {n_bath!r}")
    return GaussianState(np.zeros(2), (1.0 + 2.0 * n_bath) * IDENTITY)


def vacuum_state() -> GaussianState:
    return thermal_state(0.0)


def apply_squeeze(state: GaussianState, s: SqueezeParam) -> GaussianState:
    S = squeeze_matrix(s)
    return GaussianState(S @ state.v, S @ state.sigma @ S.T)


def apply_displace(state: GaussianState, d: DisplacementAmplitude) -> GaussianState:
    shift = math.sqrt(2.0) * d.magnitude * np.array([math.cos(d.phase), math.sin(d.phase)])
    return GaussianState(state.v + shift, state.sigma)


def cholesky_factor(s11, s12, s22, det):
    """(l11, l21, l22, det): the lower-triangular L = [[l11, 0], [l21, l22]]
    with sigma = L L^T, l22 = sqrt(det / s11), for the entries and det of a
    state's sigma (floats, or arrays over t).

    Quadratic forms in sigma^-1 taken in the frame that L whitens, such as
    |L^-1 x|^2 and the entries of L^-1 M L^-T, are sums of squares where the
    adjugate over det would cancel digits for a strongly squeezed state. det
    is det_sigma, or exactly 1 where det_sigma is 1 within its own rounding
    (DET_ROUNDING of s11 s22 + s12^2): there its digits below 1 are noise,
    and the nearest pure state's factor keeps L^-1 sigma L^-T = I to
    rounding. A det <= 0, which the constructor admits within rounding, has
    no factor.
    """
    f = lib(det)
    invertible = (det > 0) & f.isfinite(det)
    reject(f.not_(invertible), InvalidStateError, "covariance not invertible, det = {!r}", det)
    det = f.where(abs(det - 1.0) <= DET_ROUNDING * (s11 * s22 + s12 * s12), 1.0, det)
    l11 = f.sqrt(s11)
    return l11, s12 / l11, f.sqrt(det / s11), det


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
    """1/sqrt(det sigma), clamped to 1 for roundoff-level violations (det <= 1)."""
    return 1.0 / math.sqrt(max(state.det_sigma, 1.0))


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
