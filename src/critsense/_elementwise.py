"""One formula for a float or for a 1-D array of times.

The closed forms take t as a float or as a 1-D ndarray, and each is written
once for both. An input that changes with t, such as the squeezing that is
optimal at each t, is an array over the same times, so a quantity over a
time grid is one array evaluation. A formula reads its elementwise
functions from `lib(x)`: math's for a float, numpy's for an array. Each
branch that depends on t goes through `select`, and each check through
`reject`: an `if` for a float, a boolean mask for an array. A check is
written as the condition under which it raises, as an `if` would test it,
so that NaN compares as it does there. A float stays a Python float, so
the single-state path keeps its speed and its exact bytes.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import fields, is_dataclass, replace
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .errors import CritsenseError, InvalidStateError

_FLOAT = SimpleNamespace(
    exp=math.exp,
    expm1=math.expm1,
    log1p=math.log1p,
    sqrt=math.sqrt,
    sinh=math.sinh,
    # math raises ValueError at +-inf, where numpy gives nan (and x - x is
    # nan): an overflowed phase reaches the checks as nan on both paths.
    cos=lambda x: math.cos(x) if x - x == 0.0 else math.nan,
    sin=lambda x: math.sin(x) if x - x == 0.0 else math.nan,
    isfinite=math.isfinite,
    all_finite=lambda *xs: all(map(math.isfinite, xs)),
    not_=operator.not_,
    min=min,
    max=max,
    where=lambda take, a, b: a if take else b,
)
_ARRAY = SimpleNamespace(
    exp=np.exp,
    expm1=np.expm1,
    log1p=np.log1p,
    sqrt=np.sqrt,
    sinh=np.sinh,
    cos=np.cos,
    sin=np.sin,
    isfinite=np.isfinite,
    all_finite=lambda *xs: reduce(np.logical_and, map(np.isfinite, xs)),
    not_=np.logical_not,
    min=lambda *xs: reduce(np.minimum, xs),
    max=lambda *xs: reduce(np.maximum, xs),
    where=np.where,
)


def lib(x) -> SimpleNamespace:
    """The elementwise functions for x: math's (and all, not, min, max and a
    conditional expression) for a float, numpy's for an array."""
    return _ARRAY if isinstance(x, np.ndarray) else _FLOAT


def select(take, if_true, if_false, *args):
    """if_true(*args) where take holds and if_false(*args) elsewhere.

    For a float, take is a bool and one branch runs. For an array, take is a
    mask over t, args are arrays over t, and each branch runs on its own
    elements only, so neither sees a t where its formula is not valid. A
    branch returns an array over its elements, or a tuple of them; entries
    may have trailing axes (a stack of matrices).
    """
    if not isinstance(take, np.ndarray):
        return if_true(*args) if take else if_false(*args)
    if take.all():
        return if_true(*args)
    other = ~take
    if other.all():
        return if_false(*args)
    first = if_true(*(x[take] for x in args))
    second = if_false(*(x[other] for x in args))
    if not isinstance(first, tuple):
        return _merge(take, first, other, second)
    return tuple(_merge(take, a, other, b) for a, b in zip(first, second))


def _merge(take, a, other, b) -> np.ndarray:
    out = np.empty(take.shape + np.shape(a)[1:])
    out[take] = a
    out[other] = b
    return out


def reject(bad, error: type, message: str, *values) -> None:
    """Raise error(message.format(*values)) where bad holds.

    bad is a bool for a float and a mask for an array; for an array the
    message takes the values at the first element where it holds.
    """
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        i = int(np.argmax(bad))
        values = [x[i].item() if isinstance(x, np.ndarray) else x for x in values]
    elif not bad:
        return
    raise error(message.format(*values))


_UNCHANGED = contextlib.nullcontext()


def quiet(t):
    """numpy's error state for an evaluation at t: for an array of t, no
    warnings, as its non-finite intermediates are caught by the rules; for a
    float, unchanged."""
    return np.errstate(all="ignore") if isinstance(t, np.ndarray) else _UNCHANGED


class finite_moments:
    """Turns an OverflowError or FloatingPointError raised inside into the
    InvalidStateError GaussianState gives for non-finite moments. `strict`
    has numpy raise on overflow and invalid values inside: a caller asks for
    it only where moments can grow without bound, as it slows each matmul."""

    def __init__(self, strict: bool = True):
        self._numpy = np.errstate(over="raise", invalid="raise") if strict else _UNCHANGED

    def __enter__(self):
        self._numpy.__enter__()

    def __exit__(self, kind, error, trace):
        self._numpy.__exit__(kind, error, trace)
        if kind is not None and issubclass(kind, (OverflowError, FloatingPointError)):
            raise InvalidStateError("non-finite moments") from None


def over_t(evaluate, t, *inputs):
    """evaluate(t, *inputs) for a float t. For a 1-D array of t, one array
    evaluation of the same closed forms; its non-finite intermediates are
    caught by the rules, so numpy is not asked to warn of them. An input may
    hold arrays over the same t. A 1-D array that raises is evaluated again
    one float at a time, with each input at that t (`at`): the error raised
    is then the float path's own at the first failing t."""
    if not isinstance(t, np.ndarray):
        return evaluate(t, *inputs)
    try:
        with quiet(t):
            return evaluate(t, *inputs)
    except CritsenseError:
        if t.ndim == 1:
            for k, t_k in enumerate(t.tolist()):
                evaluate(t_k, *(at(x, k) for x in inputs))
        raise


def at(x, k: int):
    """x at the k-th t of its grid: the k-th entry, as a float, of an array
    over t; a tuple, or a dataclass rebuilt through its constructor, with
    each field at k; anything else as it is, the same at every t."""
    if isinstance(x, np.ndarray):
        return x[k].item()
    if isinstance(x, tuple):
        return tuple(at(item, k) for item in x)
    if is_dataclass(x):
        return replace(x, **{f.name: at(getattr(x, f.name), k) for f in fields(x) if f.init})
    return x


def fields_equal(a, b):
    """`==` for dataclasses whose fields are floats or arrays over t: one
    bool, with arrays equal where their shapes and entries are."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)
    )


def per_t(x, dims: int):
    """x as a factor of moments with `dims` axes (1 for a vector, 2 for a
    matrix): a float as it is, an array over t with that many unit axes."""
    return x.reshape(x.shape + (1,) * dims) if isinstance(x, np.ndarray) else x


def entries(x: np.ndarray, dims: int):
    """The entries of x, which has `dims` axes (1 for a vector, 2 for a
    matrix) or one more for a stack over t: nested lists of floats for one,
    arrays over t in place of floats for a stack."""
    return x.tolist() if x.ndim == dims else x.transpose(*range(1, x.ndim), 0)


def matrix(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]]: one matrix for floats, a stack of shape (n, 2, 2)
    for arrays over t."""
    m = np.array([[a, b], [c, d]])
    return m if m.ndim == 2 else m.transpose(2, 0, 1)
