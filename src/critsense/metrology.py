"""Fisher-information calculators on single-mode Gaussian states.

All estimators act on a DerivativePair: the state at zero frequency shift
together with the derivatives of its moments with respect to the shift.
Derivatives are obtained numerically (Richardson-extrapolated central
differences) from any state family, so one engine covers every dynamical
regime; known closed forms serve as test vectors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, InvalidStateError, PreconditionError, PureStateError
from .gaussian import GaussianState, fidelity, photon_variance

StateFamily = Callable[[float], GaussianState]

# Pure-state handling: below this distance of mu^4 from 1 the weight of the
# purity-derivative term diverges; it is dropped only for unitary families.
_PURE_GAP = 1e-9
_PURE_DMU = 1e-7


@dataclass(frozen=True)
class DerivativePair:
    """A Gaussian state and the derivative of its moments w.r.t. the shift."""

    state: GaussianState
    dv: np.ndarray
    dsigma: np.ndarray
    error_estimate: float = 0.0
    warn: bool = False

    def __post_init__(self):
        dv = np.asarray(self.dv, dtype=float)
        dsigma = np.asarray(self.dsigma, dtype=float)
        if dv.shape != (2,) or dsigma.shape != (2, 2):
            raise DomainError("derivative shapes must be (2,) and (2, 2)")
        if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(dsigma))):
            raise DomainError("non-finite derivatives")
        dsigma = 0.5 * (dsigma + dsigma.T)
        object.__setattr__(self, "dv", dv)
        object.__setattr__(self, "dsigma", dsigma)


def differentiate_at_zero_shift(family: StateFamily, h: float = 1e-5) -> DerivativePair:
    """Differentiate a state family at zero shift.

    Central differences at steps h and h/2 combined by Richardson
    extrapolation; the step-halving residual provides the error estimate.
    The default step suits families expressed in units where gamma ~ 1.
    """
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"step must be positive, got {h!r}")
    base = family(0.0)

    def central(step: float) -> tuple[np.ndarray, np.ndarray]:
        plus = family(step)
        minus = family(-step)
        dv = (plus.v - minus.v) / (2.0 * step)
        ds = (plus.sigma - minus.sigma) / (2.0 * step)
        return dv, ds

    dv1, ds1 = central(h)
    dv2, ds2 = central(h / 2.0)
    # An overflowing family gives inf or nan here; DerivativePair rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        dv = (4.0 * dv2 - dv1) / 3.0
        dsigma = (4.0 * ds2 - ds1) / 3.0
        err = max(
            float(np.linalg.norm(dv2 - dv1)), float(np.linalg.norm(ds2 - ds1))
        ) / 3.0
        scale = max(float(np.linalg.norm(dv)), float(np.linalg.norm(dsigma)), 1e-300)
    return DerivativePair(base, dv, dsigma, error_estimate=err, warn=err > 1e-6 * scale)


def _inverse_sigma(state: GaussianState) -> tuple[np.ndarray, float]:
    # The constructor's tolerance admits det <= 0 once max|sigma_ij| >~ 3.2e4.
    det = state.det_sigma
    if det <= 0 or not math.isfinite(det):
        raise InvalidStateError(f"covariance not invertible, det = {det!r}")
    (s11, s12), (_, s22) = state.sigma.tolist()
    return np.array([[s22, -s12], [-s12, s11]]) / det, det


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise AccuracyError(f"{name} is not finite ({value}); the state or its derivative overflowed")
    return value


def qfi_terms(pair: DerivativePair) -> tuple[float, float, float]:
    """The three QFI contributions: covariance, purity-derivative, displacement."""
    inv, det = _inverse_sigma(pair.state)
    mu = min(1.0 / math.sqrt(det), 1.0)
    # An overflowing derivative gives inf or nan here; _finite rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        a = inv @ pair.dsigma
        tr_sq = float(np.trace(a @ a))
        dmu = -0.5 * mu * float(np.trace(a))  # Jacobi identity for d(det)
        term1 = 0.5 * tr_sq / (1.0 + mu * mu)
        gap = 1.0 - mu ** 4
        if gap < _PURE_GAP:
            # For symplectic (unitary) families tr(inv@dsigma) vanishes identically;
            # its numerical residue scales with the size of the derivative matrix.
            if abs(dmu) < _PURE_DMU * max(1.0, float(np.linalg.norm(a))):
                term2 = 0.0  # unitary family: purity constant
            else:
                raise PureStateError(
                    f"pure state with non-constant purity (d mu = {dmu!r}); QFI term singular"
                )
        else:
            term2 = 2.0 * dmu * dmu / gap
        term3 = 2.0 * float(pair.dv @ inv @ pair.dv)
    return _finite(term1, "QFI term"), _finite(term2, "QFI term"), _finite(term3, "QFI term")


def qfi(pair: DerivativePair) -> float:
    """Quantum Fisher information of a single-mode Gaussian family."""
    return _finite(sum(qfi_terms(pair)), "QFI")


def qfi_fidelity_oracle(family: StateFamily, dtheta: float = 1e-4) -> float:
    """Independent QFI estimate from the closed-form Gaussian fidelity.

    Uses the symmetric quotient 8 (1 - sqrt(fidelity)) / dtheta^2 between the
    states at ±dtheta/2, which agrees with qfi() to O(dtheta^2).
    """
    if not (1e-6 <= dtheta <= 1e-3):
        raise DomainError(f"dtheta must lie in [1e-6, 1e-3], got {dtheta!r}")
    plus = family(dtheta / 2.0)
    minus = family(-dtheta / 2.0)
    f_amp = math.sqrt(max(fidelity(plus, minus), 0.0))
    return 8.0 * (1.0 - f_amp) / dtheta ** 2


def _quadratic_form(m: np.ndarray, c: float, sn: float) -> float:
    # Python floats: an overflow gives inf, which _finite rejects, not a warning.
    (m11, m12), (_, m22) = m.tolist()
    return c * c * m11 + sn * sn * m22 - 2.0 * sn * c * m12


def quadrature_variance(state: GaussianState, psi: float) -> float:
    """S(psi) = cos^2 psi Sigma11 + sin^2 psi Sigma22 - sin(2 psi) Sigma12."""
    return _quadratic_form(state.sigma, math.cos(psi), math.sin(psi))


def fi_homodyne(pair: DerivativePair, psi: float) -> float:
    """Classical Fisher information of homodyne detection at angle psi,
    measured from the x axis."""
    c, sn = math.cos(psi), math.sin(psi)
    var = _quadratic_form(pair.state.sigma, c, sn)
    if var <= 1e-12:
        raise InvalidStateError(f"degenerate quadrature variance {var!r}")
    dvar = _quadratic_form(pair.dsigma, c, sn)
    dv0, dv1 = pair.dv.tolist()
    dmean = c * dv0 - sn * dv1
    return _finite((4.0 * var * dmean * dmean + dvar * dvar) / (2.0 * var * var), "homodyne FI")


def snr_photon_counting(pair: DerivativePair) -> float:
    """Signal-to-noise ratio |dN|^2 / Var(N) of photon counting (zero-mean states)."""
    if float(np.linalg.norm(pair.state.v)) >= 1e-12:
        raise PreconditionError("photon-counting SNR requires zero first moments")
    var = photon_variance(pair.state)
    if var <= 1e-300:
        raise DomainError("degenerate photon-number distribution (zero variance)")
    dn = 0.25 * float(np.trace(pair.dsigma))
    return dn * dn / var
