"""Fisher-information calculators on single-mode Gaussian states.

All estimators act on a DerivativePair: the state at zero frequency shift
together with the derivatives of its moments with respect to the shift.
`differentiate_at_zero_shift` evaluates one of the dynamics' evolutions once
and takes the derivative exactly, from the shift derivative of its closed
form (the tangent of the moment flow; Van Loan, IEEE TAC 23, 395 (1978)).
The QFI is the single-mode Gaussian formula (Safranek, J. Phys. A 52, 035304
(2019)), which `oracle.gaussian_qfi` checks against the general mixed-state
formula. The RK4 oracle (`oracle.lyapunov_rk4`) integrates the same tangent
step by step, sharing no code with the closed form, and checks it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics
from ._elementwise import entries, fields_equal, lib, matrix, quiet, reject
from .dynamics import SystemParams
from .errors import AccuracyError, DomainError, InvalidStateError, PreconditionError, PureStateError
from .gaussian import DET_ROUNDING, GaussianState, _check_grid, cholesky_factor, photon_variance, require_one_state

# At a pure state the weight of the purity-derivative term diverges; the
# term is dropped only where the purity's derivative is this small
# relative to B, as for a unitary family.
_PURE_DMU = 1e-7


class Whitened(NamedTuple):
    """A derivative pair in the frame that whitens sigma = L L^T (see
    DerivativePair.whitened): L, the purity mu, a = L^-1 dv and
    B = L^-1 dsigma L^-T. Floats for one pair, arrays over t for a pair
    stacked over t."""

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
    mu = 1.0 / f.sqrt(det)
    # L^-1 = [[m11, 0], [m21, m22]]. An overflowing derivative gives inf or
    # nan, which the estimators reject: silently as Python floats, and as
    # arrays under DerivativePair.whitened's quiet.
    m11, m21, m22 = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22
    row2 = (m21 * d11 + m22 * d12, m21 * d12 + m22 * d22)  # second row of L^-1 dsigma
    b11, b12 = m11 * m11 * d11, m11 * row2[0]
    b22 = row2[0] * m21 + row2[1] * m22
    half_trace = 0.5 * (b11 + b22)
    size = f.sqrt(b11 * b11 + 2.0 * b12 * b12 + b22 * b22)
    # Where sigma is strongly squeezed, b22 sums terms far larger than B, and
    # its rounding, DET_ROUNDING of their magnitudes, can pass _PURE_DMU of
    # B's size: 1.1e-5 of it for a lossless quench from vacuum at N = 1e10.
    terms = abs(m21) * (abs(m21 * d11) + abs(m22 * d12)) + abs(m22) * (abs(m21 * d12) + abs(m22 * d22))
    pure = (mu == 1.0) & (abs(half_trace) < f.max(_PURE_DMU * f.max(1.0, size), DET_ROUNDING * terms))
    b11, b22 = f.where(pure, b11 - half_trace, b11), f.where(pure, b22 - half_trace, b22)
    return Whitened(l11, l21, l22, mu, m11 * v1, m21 * v1 + m22 * v2, b11, b12, b22)


def _finite_derivatives(v1, v2, d11, d12, d21, d22):
    """DerivativePair's rule, for floats or arrays over t: finite
    derivatives, the symmetrised d12 among them (d12 + d21 can overflow).
    Returns that d12."""
    f = lib(d11)
    with quiet(d11):
        d12 = 0.5 * (d12 + d21)
    reject(f.not_(f.all_finite(v1, v2, d11, d12, d21, d22)), DomainError, "non-finite derivatives")
    return d12


@dataclass(frozen=True)
class DerivativePair:
    """A Gaussian state and the derivative of its moments w.r.t. the shift:
    dv and dsigma of the state's shapes, for one state or a stack over t.
    qfi, qfi_terms, fi_homodyne and protocols.best_homodyne take either,
    and give floats for one pair and arrays over t for a stack. Two pairs
    compare equal, as one bool, where their states and derivatives are equal
    entry by entry."""

    state: GaussianState
    dv: np.ndarray
    dsigma: np.ndarray
    __eq__ = fields_equal
    # An exact derivative has no step error to warn about; kept because
    # perfbench/tracer.py reads it.
    warn = False

    def __post_init__(self):
        dv = np.array(self.dv, dtype=float)
        dsigma = np.array(self.dsigma, dtype=float)
        if dv.shape != self.state.v.shape or dsigma.shape != self.state.sigma.shape:
            raise DomainError(f"derivative shapes {dv.shape} and {dsigma.shape} are not the state's")
        (d11, d12), (d21, d22) = entries(dsigma, 2)
        d12 = _finite_derivatives(*entries(dv, 1), d11, d12, d21, d22)
        dsigma = matrix(d11, d12, d12, d22)
        object.__setattr__(self, "dv", dv)
        object.__setattr__(self, "dsigma", dsigma)

    @cached_property
    def whitened(self) -> Whitened:
        """The pair in the frame sigma = L L^T of gaussian.cholesky_factor,
        with the purity mu = det^-1/2 of the det that factor used: exactly 1
        where the state is pure (gaussian.is_pure), below 1 elsewhere.

        tr B = tr(sigma^-1 dsigma) is the log-derivative of det. A unitary
        family keeps a pure state pure, so at a pure state a trace within
        _PURE_DMU of B's size, or within the rounding of B's entries, is
        rounding and is removed; the QFI rejects a larger one.
        """
        (v1, v2), ((d11, d12), (_, d22)) = entries(self.dv, 1), entries(self.dsigma, 2)
        with quiet(d11):
            return _whiten(*cholesky_factor(self.state), v1, v2, d11, d12, d22)


def differentiate_at_zero_shift(
    evolve: Callable[..., GaussianState], params: SystemParams, *args
) -> DerivativePair:
    """The state evolve(params, *args) at zero shift and the exact derivative
    of its moments with respect to the shift.

    `evolve` is dynamics.evolve_critical, evolve_passive or steady_state
    itself, or a wrapper whose `__wrapped__` chain ends at one of them (as
    functools.wraps and functools.lru_cache leave it); it is found by
    identity, never by name, and any other object raises DomainError. Any
    further arguments (start state, time) must not depend on the shift. The
    state and its derivative come from one evaluation of that evolution's
    closed form, with no step size. A 1-D array of times gives a
    DerivativePair stacked over t.
    """
    try:
        flow = dynamics._FLOWS[inspect.unwrap(evolve)]
    except (KeyError, TypeError, ValueError):  # not an evolution, unhashable, or a cycle of __wrapped__
        raise DomainError(f"no exact shift derivative for {evolve!r}") from None
    return DerivativePair(*flow(params, *args))


def _finite(value, name: str):
    f = lib(value)
    finite = f.isfinite(value)
    if finite is not True:  # a finite float takes this one test
        reject(
            f.not_(finite),
            AccuracyError, "{} is not finite ({}); the state or its derivative overflowed", name, value,
        )
    return value


def qfi_terms(pair: DerivativePair) -> tuple:
    """The three QFI contributions: covariance, purity-derivative, displacement.

    Taken in the whitened frame (DerivativePair.whitened), where
    tr((sigma^-1 dsigma)^2) = tr(B^2) and dv^T sigma^-1 dv = |a|^2 are sums
    of squares. Floats for one pair, arrays over t for a stack.
    """
    w = pair.whitened
    b11, b12, b22, mu = w.b11, w.b12, w.b22, w.mu
    f = lib(mu)
    # An overflow gives inf, which _finite rejects, not a warning: as Python
    # floats, and as arrays under quiet.
    with quiet(mu):
        tr_sq = b11 * b11 + 2.0 * b12 * b12 + b22 * b22
        dmu = -0.5 * mu * (b11 + b22)  # Jacobi identity for d(det)
        term1 = 0.5 * tr_sq / (1.0 + mu * mu)
        gap = 1.0 - mu ** 4
        pure = mu == 1.0
        if pure is not False:  # a mixed float state takes this one test
            # For symplectic (unitary) families tr(B) vanishes identically, and
            # `whitened` has removed its rounding residue: at a pure state the
            # purity must be constant, and its term is 0.
            reject(
                pure & f.not_(abs(dmu) < _PURE_DMU * f.max(1.0, f.sqrt(tr_sq))),
                PureStateError, "pure state with non-constant purity (d mu = {!r}); QFI term singular", dmu,
            )
        # The pure entries' gap of 0 is replaced before the division: no 0/0.
        term2 = f.where(pure, 0.0, 2.0 * dmu * dmu / f.where(pure, 1.0, gap))
        term3 = 2.0 * (w.a1 * w.a1 + w.a2 * w.a2)
        return _finite(term1, "QFI term"), _finite(term2, "QFI term"), _finite(term3, "QFI term")


def qfi(pair: DerivativePair):
    """Quantum Fisher information of a single-mode Gaussian family: a float
    for one pair, an array over t for a stack."""
    return _finite(sum(qfi_terms(pair)), "QFI")


def fi_homodyne(pair: DerivativePair, psi):
    """Classical Fisher information of homodyne detection at angle psi,
    measured from the x axis: (4 S dm^2 + dS^2) / (2 S^2) for the variance S
    and mean m of the quadrature u = (cos psi, -sin psi). A float for one
    pair, whose psi is a float; an array over t for a stack, with psi a float
    or a 1-D array of one angle per t. As for every input per t, a psi over
    another number of times than the stack's raises PreconditionError; a psi
    array of any other shape, or given with one pair, raises DomainError.

    With y = L^T u in the whitened frame, S = |y|^2, dm = y.a and dS = y^T B y,
    so FI = 2 (e.a)^2 + (e^T B e)^2 / 2 for the unit vector e = y / |y|; u^T
    sigma u itself would cancel digits along a strongly squeezed quadrature.
    """
    if isinstance(psi, np.ndarray):
        if psi.ndim != 1 or pair.state.v.ndim == 1:
            raise DomainError(f"homodyne angles must be a float or a 1-D array over a stack's t, got shape {psi.shape}")
        _check_grid(pair.state, psi)
    angle = lib(psi)
    reject(angle.not_(angle.isfinite(psi)), DomainError, "homodyne angle must be finite, got {!r}", psi)
    w = pair.whitened
    c, sn = angle.cos(psi), angle.sin(psi)
    y1, y2 = w.l11 * c - w.l21 * sn, -w.l22 * sn
    var = y1 * y1 + y2 * y2
    degenerate = var <= 1e-12
    if degenerate is not False:  # a float quadrature of positive variance takes this one test
        reject(degenerate, InvalidStateError, "degenerate quadrature variance {!r}", var)
    root = lib(var).sqrt(var)
    e1, e2 = y1 / root, y2 / root
    # An overflow gives inf, which _finite rejects, not a warning: as Python
    # floats, and as arrays under quiet.
    with quiet(var):
        mean = e1 * w.a1 + e2 * w.a2
        spread = e1 * e1 * w.b11 + 2.0 * e1 * e2 * w.b12 + e2 * e2 * w.b22
        return _finite(2.0 * mean * mean + 0.5 * spread * spread, "homodyne FI")


def snr_photon_counting(pair: DerivativePair) -> float:
    """Signal-to-noise ratio |dN|^2 / Var(N) of photon counting (zero-mean states)."""
    require_one_state(pair.state, "snr_photon_counting")
    if float(np.linalg.norm(pair.state.v)) >= 1e-12:
        raise PreconditionError("photon-counting SNR requires zero first moments")
    var = photon_variance(pair.state)
    if var <= 1e-300:
        raise DomainError("degenerate photon-number distribution (zero variance)")
    dn = 0.25 * float(np.trace(pair.dsigma))
    return dn * dn / var
