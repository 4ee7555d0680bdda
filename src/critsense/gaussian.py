"""Single-mode Gaussian states: value types, symplectic transforms, observables.

Conventions: quadratures x = (a + a†)/√2, p = -i(a - a†)/√2, ordering (x, p).
The covariance matrix carries a factor 2, so the vacuum has sigma = identity,
det(sigma) >= 1 expresses the uncertainty relation, and purity = 1/sqrt(det).
GaussianState checks, symmetrises and takes the determinant of sigma once, at
construction, unless a flow that keeps it exactly gives it; every consumer
reads `det_sigma` instead of recomputing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._elementwise import entries, fields_equal, finite_moments, lib, matrix, per_t, reject
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
    asymmetry = s12 - s21
    asymmetric = abs(asymmetry) > HARD_TOL * f.max(1.0, abs(s11), abs(s12), abs(s21), abs(s22))
    negative = (s11 < 0) | (s22 < 0)
    s12 = 0.5 * (s12 + s21)
    # The symmetrised s12 is checked too: s12 + s21 can overflow.
    nonfinite = f.not_(f.all_finite(v1, v2, s11, s12, s21, s22))
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
    """First-moment vector and covariance matrix of a single bosonic mode, at
    one time or stacked over a 1-D array of times.

    Attributes
    ----------
    v : ndarray, shape (2,), or (n, 2) for n times
        Quadrature means (<x>, <p>), dimensionless.
    sigma : ndarray, shape v.shape + (2,)
        Symmetric covariance matrix; vacuum = identity.
    det_sigma : float, or an array over t
        det(sigma), formed once at construction as s11 s22 - s12^2, unless
        given: a flow that keeps det(sigma) exactly (a lossless one keeps
        det Sigma0) gives it, as the formed det loses every digit where
        sigma is strongly squeezed off the axes. A given det must agree
        with the formed one (see __post_init__).
    det_rounding : float, or an array over t
        How far det_sigma may be from det(sigma): DET_ROUNDING of
        s11 s22 + s12^2 for a formed det; given with a given one.

    Each state of a stack is held to the rules of one state. Two states
    compare equal, as one bool, where v and sigma are equal entry by entry.
    """

    v: np.ndarray
    sigma: np.ndarray
    det_sigma: float | None = field(default=None, repr=False, compare=False)
    det_rounding: float | None = field(default=None, repr=False, compare=False)
    __eq__ = fields_equal

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (v.shape == (2,) and sigma.shape == (2, 2)
                or v.ndim == 2 and v.shape[1] == 2 and sigma.shape == v.shape + (2,)):
            raise InvalidStateError(
                f"expected v shape (2,) or (n, 2) and sigma shape v.shape + (2,), "
                f"got {v.shape} and {sigma.shape}"
            )
        (s11, s12), (s21, s22) = entries(sigma, 2)
        s12, formed = _physical_moments(*entries(v, 1), s11, s12, s21, s22)
        det, rounding = self.det_sigma, self.det_rounding
        if det is None and rounding is None:
            det, rounding = formed, DET_ROUNDING * (s11 * s22 + s12 * s12)
        elif det is None or rounding is None or not np.shape(det) == np.shape(rounding) == np.shape(formed):
            raise InvalidStateError(
                f"det_sigma and det_rounding are given together, one per state: got {det!r} and "
                f"{rounding!r} for sigma of shape {sigma.shape}"
            )
        else:
            # Held to the formed det as the uncertainty relation is: a gap
            # beyond HARD_TOL of the larger product, and the given det's
            # own rounding, is no rounding.
            slack = HARD_TOL * lib(formed).max(s11 * s22, s12 * s12) + rounding
            reject(abs(det - formed) > slack, InvalidStateError, "det(sigma) = {!r} given, {!r} formed", det, formed)
        sigma = matrix(s11, s12, s12, s22)
        v.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "det_sigma", det)
        object.__setattr__(self, "det_rounding", rounding)


@dataclass(frozen=True)
class DisplacementAmplitude:
    """Displacement alpha = magnitude * exp(i * phase). The magnitude is a
    float, or an array over t for one displacement per t. Equal magnitudes
    compare equal, arrays entry by entry; one that holds an array is not
    hashable."""

    magnitude: float
    phase: float = 0.0
    __eq__ = fields_equal

    def __post_init__(self):
        f = lib(self.magnitude)
        reject(f.not_(f.all_finite(self.magnitude, self.phase)), DomainError, "displacement parameters must be finite")
        reject(self.magnitude < 0, DomainError, "displacement magnitude must be >= 0")


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing of strength r; for phase=0, positive r stretches the x variance
    by e^{2r} and squeezes the p variance by e^{-2r}. r is a float, or an
    array over t for one squeezing per t. Equal r compare equal, arrays
    entry by entry; one that holds an array is not hashable."""

    r: float
    phase: float = 0.0
    __eq__ = fields_equal

    def __post_init__(self):
        f = lib(self.r)
        reject(f.not_(f.all_finite(self.r, self.phase)), DomainError, "squeeze parameters must be finite")


def rotation_matrix(theta) -> np.ndarray:
    """Counterclockwise phase-space rotation by theta (a float, or an array
    for a stack of rotations); DomainError for an angle that is not finite."""
    f = lib(theta)
    reject(f.not_(f.isfinite(theta)), DomainError, "rotation angle must be finite, got {!r}", theta)
    c, s = f.cos(theta), f.sin(theta)
    return matrix(c, -s, s, c)


def squeeze_matrix(s: SqueezeParam) -> np.ndarray:
    """Symplectic matrix of S(r e^{i phase}) = R(phase/2) diag(e^r, e^-r) R(phase/2)^T,
    built from its factors: cosh r - sinh r would cancel the digits of e^-r.
    A stack of shape (n, 2, 2) for r an array over t. An e^r that leaves the
    double range raises the typed error GaussianState gives for non-finite
    moments, with no numpy warning."""
    rot = rotation_matrix(0.5 * s.phase)
    f = lib(s.r)
    with finite_moments():
        stretch = f.exp(s.r)
        zero = 0.0 * stretch
        return rot @ matrix(stretch, zero, zero, f.exp(-s.r)) @ rot.T


def _check_occupation(n_bath: float) -> None:
    """DomainError for a bath occupation that is negative or not finite."""
    if not math.isfinite(n_bath) or n_bath < 0:
        raise DomainError(f"n_bath must be >= 0, got {n_bath!r}")


def thermal_state(n_bath: float) -> GaussianState:
    """Thermal state with mean photon number n_bath; sigma = (1 + 2 n_bath) I."""
    _check_occupation(n_bath)
    return GaussianState(np.zeros(2), (1.0 + 2.0 * n_bath) * IDENTITY)


def vacuum_state() -> GaussianState:
    return thermal_state(0.0)


def require_one_state(state: GaussianState, operation: str) -> None:
    """PreconditionError for a stacked state given to an operation that
    takes one state."""
    if state.v.ndim != 1:
        raise PreconditionError(f"{operation} takes one state, not a stack of {len(state.v)}")


def _check_grid(state: GaussianState, x) -> None:
    """PreconditionError where x, an input per t, and a stacked state are
    over grids of different lengths."""
    if state.v.ndim == 2 and np.ndim(x) == 1 and len(x) != len(state.v):
        raise PreconditionError(f"an input per t of {len(x)} times on a stack of {len(state.v)} states")


def apply_squeeze(state: GaussianState, s: SqueezeParam) -> GaussianState:
    """S state S^T, stacked over t for a stacked state or r an array over t.
    A squeezing whose e^r or moments leave the double range raises the typed
    error GaussianState gives for non-finite moments, with no numpy warning."""
    _check_grid(state, s.r)
    S = squeeze_matrix(s)
    with finite_moments():
        v, sigma = np.matvec(S, state.v), S @ state.sigma @ S.swapaxes(-1, -2)
    return GaussianState(v, sigma)


def apply_displace(state: GaussianState, d: DisplacementAmplitude) -> GaussianState:
    """D state D^dagger, stacked over t for a stacked state or a magnitude
    that is an array over t."""
    _check_grid(state, d.magnitude)
    shift = per_t(math.sqrt(2.0) * d.magnitude, 1) * np.array([math.cos(d.phase), math.sin(d.phase)])
    v = state.v + shift
    return GaussianState(v, np.broadcast_to(state.sigma, v.shape + (2,)))


def is_pure(state: GaussianState):
    """Where a state is pure: det(sigma) is at most 1 within its own
    rounding, det_rounding (a bool for one state, an array over t for a
    stack). There the digits of det below 1 are noise; a det below 1 beyond
    that is roundoff the constructor admits, and no mixed state has one. A
    det that overflowed to inf, whose rounding is inf too, is not pure."""
    det = state.det_sigma
    return (det - 1.0 <= state.det_rounding) & (det < math.inf)


def cholesky_factor(state: GaussianState):
    """(l11, l21, l22, det): the lower-triangular L = [[l11, 0], [l21, l22]]
    with sigma = L L^T, l22 = sqrt(det / s11), for a state's sigma (floats,
    or arrays over t for a stack).

    Quadratic forms in sigma^-1 taken in the frame that L whitens, such as
    |L^-1 x|^2 and the entries of L^-1 M L^-T, are sums of squares where the
    adjugate over det would cancel digits for a strongly squeezed state. det
    is det_sigma, or exactly 1 where the state is pure (is_pure): the
    nearest pure state's factor keeps L^-1 sigma L^-T = I to rounding, and
    the returned det is 1 exactly where the state is pure. A det <= 0,
    which the constructor admits within rounding, has no factor.
    """
    det = state.det_sigma
    f = lib(det)
    invertible = (det > 0) & f.isfinite(det)
    reject(f.not_(invertible), InvalidStateError, "covariance not invertible, det = {!r}", det)
    det = f.where(is_pure(state), 1.0, det)
    (s11, s12), _ = entries(state.sigma, 2)
    l11 = f.sqrt(s11)
    return l11, s12 / l11, f.sqrt(det / s11), det


def mean_photons(state: GaussianState):
    """<a†a> = tr(sigma)/4 - 1/2 + |v|^2/2: a float for one state, an array
    over t for a stacked state."""
    v = state.v
    (s11, _), (_, s22) = entries(state.sigma, 2)
    # vecdot rounds as v @ v does for one state; an overflow is caught below.
    with np.errstate(over="ignore"):
        v_sq = float(v @ v) if v.ndim == 1 else np.vecdot(v, v)
    n = 0.25 * (s11 + s22) - 0.5 + 0.5 * v_sq
    f = lib(n)
    reject(f.not_(f.isfinite(n)), InvalidStateError, "non-finite photon number {!r}", n)  # a finite state's can overflow
    reject(n < -TOL, InvalidStateError, "negative photon number {!r}", n)
    return f.max(n, 0.0)


def photon_variance(state: GaussianState) -> float:
    """Photon-number variance of a zero-mean Gaussian state.

    Equals |<a^2>|^2 + N^2 + N by Wick's theorem, i.e.
    (sigma_11^2 + sigma_22^2 + 2 sigma_12^2)/8 - 1/4 in covariance entries.
    A float; a variance beyond the double range raises InvalidStateError.
    """
    require_one_state(state, "photon_variance")
    if float(np.linalg.norm(state.v)) >= TOL:
        raise PreconditionError("photon_variance requires zero first moments")
    (s11, s12), (_, s22) = state.sigma
    with finite_moments():
        var = float((s11 * s11 + s22 * s22 + 2.0 * s12 * s12) / 8.0 - 0.25)
    if var < -TOL:
        raise InvalidStateError(f"negative photon variance {var!r}")
    return max(var, 0.0)


def purity(state: GaussianState):
    """1/sqrt(det sigma), exactly 1 where the state is pure (is_pure): a
    float for one state, an array over t for a stacked state."""
    det = state.det_sigma
    f = lib(det)
    return 1.0 / f.sqrt(f.where(is_pure(state), 1.0, det))
