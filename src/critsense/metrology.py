"""Fisher-information calculators on single-mode Gaussian states.

All estimators act on a DerivativePair: the state at zero frequency shift
together with the derivatives of its moments with respect to the shift.
`differentiate_at_zero_shift` evaluates one of the dynamics' evolutions once
and takes the derivative exactly, from the shift derivative of its closed
form (the tangent of the moment flow; Van Loan, IEEE TAC 23, 395 (1978)).
The QFI is the single-mode Gaussian formula (Safranek, J. Phys. A 52, 035304
(2019)). The RK4 oracle (`oracle.lyapunov_rk4`) integrates the same tangent
step by step, sharing no code with the closed form, and checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics
from ._elementwise import lib, reject
from .dynamics import SystemParams
from .errors import AccuracyError, DomainError, InvalidStateError, PreconditionError, PureStateError
from .gaussian import GaussianState, _physical_moments, cholesky_factor, fidelity, photon_variance

StateFamily = Callable[[float], GaussianState]

# Pure-state handling: below this distance of mu^4 from 1 the weight of the
# purity-derivative term diverges; it is dropped only for unitary families.
_PURE_GAP = 1e-9
_PURE_DMU = 1e-7


class Whitened(NamedTuple):
    """A derivative pair in the frame that whitens sigma = L L^T (see
    DerivativePair.whitened): L, the purity mu, a = L^-1 dv and
    B = L^-1 dsigma L^-T. Floats for one pair, arrays over t for a
    PairStack."""

    l11: float
    l21: float
    l22: float
    mu: float
    a1: float
    a2: float
    b11: float
    b12: float
    b22: float


def _whiten(l11, l21, l22, det, v1, v2, d11, d12, d22) -> Whitened:
    """The whitened frame of DerivativePair.whitened from the Cholesky factor
    and det of gaussian.cholesky_factor, dv and the symmetric dsigma; floats,
    or arrays over t."""
    f = lib(det)
    mu = f.min(1.0 / f.sqrt(det), 1.0)
    # L^-1 = [[m11, 0], [m21, m22]]. Python floats: an overflowing
    # derivative gives inf or nan, which the estimators reject.
    m11, m21, m22 = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22
    row2 = (m21 * d11 + m22 * d12, m21 * d12 + m22 * d22)  # second row of L^-1 dsigma
    b11, b12 = m11 * m11 * d11, m11 * row2[0]
    b22 = row2[0] * m21 + row2[1] * m22
    half_trace = 0.5 * (b11 + b22)
    size = f.sqrt(b11 * b11 + 2.0 * b12 * b12 + b22 * b22)
    pure = (1.0 - mu ** 4 < _PURE_GAP) & (abs(half_trace) < _PURE_DMU * f.max(1.0, size))
    b11, b22 = f.where(pure, b11 - half_trace, b11), f.where(pure, b22 - half_trace, b22)
    return Whitened(l11, l21, l22, mu, m11 * v1, m21 * v1 + m22 * v2, b11, b12, b22)


def _finite_derivatives(v1, v2, d11, d12, d21, d22):
    """DerivativePair's rule, for floats or arrays over t: finite
    derivatives. Returns the symmetrised d12."""
    f = lib(d11)
    reject(f.not_(f.all_finite(v1, v2, d11, d12, d21, d22)), DomainError, "non-finite derivatives")
    return 0.5 * (d12 + d21)


@dataclass(frozen=True)
class DerivativePair:
    """A Gaussian state and the derivative of its moments w.r.t. the shift."""

    state: GaussianState
    dv: np.ndarray
    dsigma: np.ndarray
    # An exact derivative has no step error to warn about; kept because
    # perfbench/tracer.py reads it.
    warn = False

    def __post_init__(self):
        dv = np.array(self.dv, dtype=float)
        dsigma = np.array(self.dsigma, dtype=float)
        if dv.shape != (2,) or dsigma.shape != (2, 2):
            raise DomainError("derivative shapes must be (2,) and (2, 2)")
        (d11, d12), (d21, d22) = dsigma.tolist()
        d12 = _finite_derivatives(*dv.tolist(), d11, d12, d21, d22)
        object.__setattr__(self, "dv", dv)
        object.__setattr__(self, "dsigma", np.array([[d11, d12], [d12, d22]]))

    @cached_property
    def whitened(self) -> Whitened:
        """The pair in the frame sigma = L L^T of gaussian.cholesky_factor,
        with the purity mu = min(det^-1/2, 1) of the det that factor used.

        tr B = tr(sigma^-1 dsigma) is the log-derivative of det. A unitary
        family keeps a pure state pure, so at a pure state (1 - mu^4 below
        _PURE_GAP) a trace within _PURE_DMU of B's size is rounding and is
        removed; the QFI rejects a larger one.
        """
        (s11, s12), (_, s22) = self.state.sigma.tolist()
        (v1, v2), ((d11, d12), (_, d22)) = self.dv.tolist(), self.dsigma.tolist()
        return _whiten(*cholesky_factor(s11, s12, s22, self.state.det_sigma), v1, v2, d11, d12, d22)


class PairStack(NamedTuple):
    """Derivative pairs at a 1-D array of times: what
    differentiate_at_zero_shift returns for an array t. Each state has passed
    GaussianState's rules and each derivative DerivativePair's; `whitened`
    holds their frame as arrays over t. qfi and qfi_terms accept it."""

    whitened: Whitened
    # As on DerivativePair: always False, read by perfbench/tracer.py.
    warn = False


def _stack(v, sigma, dv, dsigma) -> PairStack:
    """PairStack of moments stacked over t: v, dv of shape (n, 2) and sigma,
    dsigma of shape (n, 2, 2)."""
    (s11, s12), (s21, s22) = sigma.transpose(1, 2, 0)
    (d11, d12), (d21, d22) = dsigma.transpose(1, 2, 0)
    s12, det = _physical_moments(*v.T, s11, s12, s21, s22)
    d12 = _finite_derivatives(*dv.T, d11, d12, d21, d22)
    return PairStack(_whiten(*cholesky_factor(s11, s12, s22, det), *dv.T, d11, d12, d22))


# The moments of each evolution with their exact shift derivative, from one
# evaluation, by the evolution's name: a decorated evolution
# (functools.wraps) keeps its name.
_FLOWS = {
    "evolve_critical": dynamics._critical_flow,
    "evolve_passive": dynamics._passive_flow,
    "steady_state": dynamics._steady_flow,
}


def differentiate_at_zero_shift(
    evolve: Callable[..., GaussianState], params: SystemParams, *args
) -> DerivativePair | PairStack:
    """The state evolve(params, *args) at zero shift and the exact derivative
    of its moments with respect to the shift.

    `evolve` is dynamics.evolve_critical, evolve_passive or steady_state; any
    further arguments (start state, time) must not depend on the shift. The
    state and its derivative come from one evaluation of that evolution's
    closed form, with no step size. A 1-D array of times gives a PairStack.
    """
    flow = _FLOWS.get(getattr(evolve, "__name__", None))
    if flow is None:
        raise DomainError(f"no exact shift derivative for {evolve!r}")
    if params.delta_omega != 0.0:
        params = params.with_shift(0.0)
    v, sigma, dv, dsigma = flow(params, *args)
    if sigma.ndim == 3:
        return _stack(v, sigma, dv, dsigma)
    return DerivativePair(GaussianState(v, sigma), dv, dsigma)


def _finite(value, name: str):
    f = lib(value)
    finite = f.isfinite(value)
    if finite is not True:  # a finite float takes this one test
        reject(
            f.not_(finite),
            AccuracyError, "{} is not finite ({}); the state or its derivative overflowed", name, value,
        )
    return value


def qfi_terms(pair: DerivativePair | PairStack) -> tuple:
    """The three QFI contributions: covariance, purity-derivative, displacement.

    Taken in the whitened frame (DerivativePair.whitened), where
    tr((sigma^-1 dsigma)^2) = tr(B^2) and dv^T sigma^-1 dv = |a|^2 are sums
    of squares. Floats for a pair, arrays over t for a PairStack.
    """
    w = pair.whitened
    b11, b12, b22, mu = w.b11, w.b12, w.b22, w.mu
    f = lib(mu)
    # Python floats: an overflow gives inf, which _finite rejects, not a warning.
    tr_sq = b11 * b11 + 2.0 * b12 * b12 + b22 * b22
    dmu = -0.5 * mu * (b11 + b22)  # Jacobi identity for d(det)
    term1 = 0.5 * tr_sq / (1.0 + mu * mu)
    gap = 1.0 - mu ** 4
    pure = gap < _PURE_GAP
    if pure is not False:  # a mixed float state takes this one test
        # For symplectic (unitary) families tr(B) vanishes identically, and
        # `whitened` has removed its rounding residue: at a pure state the
        # purity must be constant, and its term is 0.
        reject(
            pure & f.not_(abs(dmu) < _PURE_DMU * f.max(1.0, f.sqrt(tr_sq))),
            PureStateError, "pure state with non-constant purity (d mu = {!r}); QFI term singular", dmu,
        )
    term2 = f.where(pure, 0.0, 2.0 * dmu * dmu / f.max(gap, _PURE_GAP))
    term3 = 2.0 * (w.a1 * w.a1 + w.a2 * w.a2)
    return _finite(term1, "QFI term"), _finite(term2, "QFI term"), _finite(term3, "QFI term")


def qfi(pair: DerivativePair | PairStack):
    """Quantum Fisher information of a single-mode Gaussian family: a float
    for a pair, an array over t for a PairStack."""
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


def fi_homodyne(pair: DerivativePair, psi: float) -> float:
    """Classical Fisher information of homodyne detection at angle psi,
    measured from the x axis: (4 S dm^2 + dS^2) / (2 S^2) for the variance S
    and mean m of the quadrature u = (cos psi, -sin psi).

    With y = L^T u in the whitened frame, S = |y|^2, dm = y.a and dS = y^T B y,
    so FI = 2 (e.a)^2 + (e^T B e)^2 / 2 for the unit vector e = y / |y|; u^T
    sigma u itself would cancel digits along a strongly squeezed quadrature.
    """
    w = pair.whitened
    c, sn = math.cos(psi), math.sin(psi)
    y1, y2 = w.l11 * c - w.l21 * sn, -w.l22 * sn
    var = y1 * y1 + y2 * y2
    if var <= 1e-12:
        raise InvalidStateError(f"degenerate quadrature variance {var!r}")
    e1, e2 = y1 / math.sqrt(var), y2 / math.sqrt(var)
    # Python floats: an overflow gives inf, which _finite rejects, not a warning.
    mean = e1 * w.a1 + e2 * w.a2
    spread = e1 * e1 * w.b11 + 2.0 * e1 * e2 * w.b12 + e2 * e2 * w.b22
    return _finite(2.0 * mean * mean + 0.5 * spread * spread, "homodyne FI")


def snr_photon_counting(pair: DerivativePair) -> float:
    """Signal-to-noise ratio |dN|^2 / Var(N) of photon counting (zero-mean states)."""
    if float(np.linalg.norm(pair.state.v)) >= 1e-12:
        raise PreconditionError("photon-counting SNR requires zero first moments")
    var = photon_variance(pair.state)
    if var <= 1e-300:
        raise DomainError("degenerate photon-number distribution (zero variance)")
    dn = 0.25 * float(np.trace(pair.dsigma))
    return dn * dn / var
