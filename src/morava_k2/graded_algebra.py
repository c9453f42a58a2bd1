"""Graded tensor expressions over F_p and their Poincare series.

Everything downstream (cohomology presentations, E2 pages, final answers) is
a tensor product of single-generator factors: polynomial, exterior, truncated
polynomial, divided power, and the reduced (augmentation-complement) variants
of the last two kinds used by torsion summands.  A factor constrains the
exponent range of its generator; a TensorExpression is an ordered list of
factors, and its Poincare series counts basis elements per degree on [0, hi].
Series are taken over factors of positive degree only: the P[v] of a
cohomology page, whose v has negative degree, is stripped first.
"""

from __future__ import annotations

import functools
from collections import _tuplegetter
from operator import add, sub

P = "P"
E = "E"
E_BAR = "Ebar"
TP = "TP"
TP_BAR = "TPbar"
GAMMA = "Gamma"
GAMMA_TRUNC = "GammaTrunc"

_KINDS = {P, E, E_BAR, TP, TP_BAR, GAMMA, GAMMA_TRUNC}
_NEED_HEIGHT = {TP, TP_BAR, GAMMA_TRUNC}


class Record(tuple):
    """A named tuple whose class is written out, with no code generated.

    A record class declares __slots__ = () and its own __new__, which
    returns tuple.__new__(cls, values); the parameters of that __new__, in
    order, are the record's fields.  Each field is read through the getter
    collections.namedtuple installs, and _fields, _make, _replace, _asdict,
    the repr and pickling behave as a named tuple's.  namedtuple compiles a
    __new__ with eval for every class it makes, at each import; here the
    constructors are in the modules' .pyc.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__new__" in cls.__dict__:
            code = cls.__new__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]
            for i, name in enumerate(cls._fields):
                setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    @classmethod
    def _make(cls, iterable):
        """A record of the values, without the constructor checks."""
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, **changes):
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


def replace(record, **changes):
    """A copy of a record with some fields changed, built through its class so
    that the constructor checks run again (Record._replace skips them)."""
    return type(record)(**{**record._asdict(), **changes})


class Generator(Record):
    """A named generator of nonzero degree."""

    __slots__ = ()

    def __new__(cls, name, degree):
        if degree == 0:
            raise ValueError(f"generator {name} has degree 0")
        return tuple.__new__(cls, (name, degree))


class Factor(Record):
    """One tensor factor: a generator with an exponent-range kind, and a
    height (an int) for the truncated kinds only.

    kind P allows any exponent >= 0, E only 0..1, TP(height h) 0..h-1, with
    the barred variants dropping exponent 0.  Gamma is the divided power
    algebra (one class gamma_e per e >= 0, same series as P) and GammaTrunc
    its height-h truncation gamma_0..gamma_{h-1}.
    """

    __slots__ = ()

    def __new__(cls, kind, gen, height=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind in _NEED_HEIGHT:
            if height is None or height < 2:
                raise ValueError(f"{kind} factor needs height >= 2")
        elif height is not None:
            raise ValueError(f"{kind} factor takes no height")
        return tuple.__new__(cls, (kind, gen, height))

    def exponent_range(self, limit: int) -> range:
        lo = 1 if self.kind in (E_BAR, TP_BAR) else 0
        if self.kind in (P, GAMMA):
            hi = limit
        elif self.kind in (E, E_BAR):
            hi = 1
        else:
            hi = self.height - 1
        return range(lo, min(hi, limit) + 1)

    def label(self) -> str:
        """kind[name], or kind_height[name] for a truncated kind, with
        GammaTrunc written Gamma."""
        kind = GAMMA if self.kind == GAMMA_TRUNC else self.kind
        height = "" if self.height is None else f"_{self.height}"
        return f"{kind}{height}[{self.gen.name}]"


class PoincareSeries(Record):
    """Per-degree dimensions over a closed window [lo, hi], dims a tuple."""

    __slots__ = ()

    def __new__(cls, lo, hi, dims):
        if len(dims) != hi - lo + 1:
            raise ValueError("dims length does not match window")
        return tuple.__new__(cls, (lo, hi, dims))

    def dim(self, d: int) -> int:
        if d < self.lo or d > self.hi:
            return 0
        return self.dims[d - self.lo]

    def mul(self, other: "PoincareSeries") -> "PoincareSeries":
        """Product series, truncated to the window both factors can reach."""
        lo, hi = self.lo + other.lo, self.hi + other.hi
        dims = [0] * (hi - lo + 1)
        for i, a in enumerate(self.dims):
            if a:
                for j, b in enumerate(other.dims):
                    if b:
                        dims[i + j] += a * b
        return PoincareSeries(lo, hi, tuple(dims))


def _times_exponent_range(dims: list[int], d: int, exps: range) -> list[int]:
    """dims times sum_{e in exps} t^{e d} for d > 0, cut to the same window.

    When at most three exponents e have e d inside the window, the product
    is that many copies of dims shifted by e d and added.  Otherwise, with
    stride-d prefix sums S[k] = dims[k] + S[k - d] the product is
    S[k - e0 d] - S[k - e1 d] for exps = range(e0, e1), an index below 0
    counting as 0: O(len(dims)) whatever the exponent range.
    """
    n = len(dims)
    shifts = range(exps.start * d, min(exps.stop * d, n), d)
    if len(shifts) <= 3:
        if not shifts:
            return [0] * n
        out = [0] * shifts[0] + dims[: n - shifts[0]]
        for k in shifts[1:]:
            out[k:] = map(add, out[k:], dims[: n - k])
        return out
    s = dims[:]
    for k in range(d, n):
        s[k] += s[k - d]
    a, b = exps.start * d, exps.stop * d
    out = [0] * min(a, n) + s[: max(n - a, 0)]
    if b >= n:
        return out
    return list(map(sub, out, [0] * b + s[: n - b]))


class TensorExpression(Record):
    """An ordered tuple of Factors."""

    __slots__ = ()

    def __new__(cls, factors):
        return tuple.__new__(cls, (factors,))

    def label(self) -> str:
        if not self.factors:
            return "F_p"
        return " @ ".join(f.label() for f in self.factors)

    @functools.lru_cache(maxsize=64)
    def poincare(self, hi: int) -> PoincareSeries:
        """Per-degree dimensions on [0, hi], one factor at a time.

        Every factor's generator must have positive degree, so an expression
        that carries P[v] has it stripped first (ss_engine._without_v).
        Results are kept per (expression, hi): the answer's series, its page
        and the chart read the same family series.
        """
        dims = [1] + [0] * hi
        for f in self.factors:
            d = f.gen.degree
            if d <= 0:
                raise ValueError(f"factor {f.label()} has degree {d}; series need positive degrees")
            dims = _times_exponent_range(dims, d, f.exponent_range(hi // d))
        return PoincareSeries(0, hi, tuple(dims))
