"""Indexed real sequences, the generator family catalog, and shared parameters.

Every object downstream of this module works on finite prefixes of infinite
sequences.  A ``RealSequence`` pins the absolute index of its first element so
that a prefix generated from index 1 is never silently confused with one
generated from index 0; all transform and check code asks the sequence where
it starts instead of assuming.

Every sequence also hands out its values a block at a time (``_block``): an
array-backed one slices its array, and one made by ``_generated`` (or any
other ``_BlockSequence``) computes the block, so a check can read a bundle
of n values in O(block) memory.  Every family generator is elementwise in
the index, and numpy gives the same bits for a block as for the same entries
of the whole array, so a block equals the slice of what ``materialize``
makes; ``values`` of a block sequence is that whole array, made at first
read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from . import accumulation

__all__ = [
    "RealSequence",
    "SequenceSpec",
    "CesaroParams",
    "FAMILIES",
    "materialize",
]


@dataclass(frozen=True, eq=False)
class RealSequence:
    """A finite prefix ``u_s, u_(s+1), ..., u_(s+L-1)`` of a real sequence.

    ``start_index`` is the absolute index of ``values[0]``.  Values are stored
    as a read-only float64 array and must all be finite.
    """

    start_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self._settle(np.asarray(self.values, dtype=np.float64).copy())

    def _settle(self, arr: np.ndarray) -> None:
        """Check start_index and ``arr``, then store ``arr`` read-only."""
        if not isinstance(self.start_index, int) or self.start_index < 0:
            raise ValueError("start_index must be a non-negative integer")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise ValueError(_NON_FINITE)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end_index(self) -> int:
        """Absolute index of the last stored element."""
        return self.start_index + len(self) - 1

    def range_view(self, lo: int, hi: int) -> np.ndarray:
        """Values for absolute indices lo..hi inclusive."""
        if lo < self.start_index or hi > self.end_index or lo > hi:
            raise IndexError(f"range [{lo}, {hi}] outside stored range "
                             f"[{self.start_index}, {self.end_index}]")
        return self.values[lo - self.start_index: hi - self.start_index + 1]

    def _block(self, lo: int, hi: int) -> np.ndarray:
        """values[lo:hi] (offsets into the prefix, not indices); not checked
        for finiteness, which ``_failure`` reports."""
        return self.values[lo:hi]

    def _failure(self) -> Exception:
        """What a non-finite value of this sequence raises."""
        return ValueError(_NON_FINITE)


_NON_FINITE = "sequence values must be finite"


class _BlockSequence(RealSequence):
    """A RealSequence of ``length`` values whose blocks ``make(lo, hi)``
    computes; ``values`` is ``make(0, length)``, made (and checked) at first
    read.  The last block made is kept, and a request inside it is a view of
    it.  ``error(message)`` is the exception non-finite values raise."""

    def __init__(self, start_index: int, length: int,
                 make: Callable[[int, int], np.ndarray],
                 error: Callable[[str], Exception] = ValueError) -> None:
        for name, value in (("start_index", start_index), ("_length", length),
                            ("_make", make), ("_error", error),
                            ("_last", (0, 0, None))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self._length

    @cached_property
    def values(self) -> np.ndarray:
        arr = self._block(0, self._length)
        if not np.all(np.isfinite(arr)):
            raise self._failure()
        arr.setflags(write=False)
        return arr

    def _block(self, lo: int, hi: int) -> np.ndarray:
        first, last, arr = self._last
        if arr is None or lo < first or hi > last:
            first, last, arr = lo, hi, self._make(lo, hi)
            object.__setattr__(self, "_last", (first, last, arr))
        return arr[lo - first:hi - first]

    def _failure(self) -> Exception:
        return self._error(_NON_FINITE)


def _verify(seqs: Iterable[RealSequence | None]) -> None:
    """Raise the failure of the first sequence, in order, that holds a
    non-finite value, reading each one block by block."""
    for seq in seqs:
        n = 0 if seq is None else len(seq)
        for lo in range(0, n, accumulation._BLOCK):
            block = seq._block(lo, min(lo + accumulation._BLOCK, n))
            if not np.isfinite(block).all():
                raise seq._failure()


def _adopt(start_index: int, values: np.ndarray) -> RealSequence:
    """A RealSequence that takes over ``values``, a float64 array that no
    one else will write to (a fresh result, or a view of read-only values),
    without the copy the constructor makes; the checks are the
    constructor's."""
    seq = object.__new__(RealSequence)
    object.__setattr__(seq, "start_index", start_index)
    seq._settle(values)
    return seq


# Family generators.  Each takes the absolute index array and the validated
# parameter map and returns float64 values.  Domains are checked up front so a
# bad parameter fails loudly instead of minting NaNs.

def _alternating_unit(n: np.ndarray, p: dict) -> np.ndarray:
    return 1.0 - 2.0 * (n & 1)


def _unit_tail(n: np.ndarray, p: dict) -> np.ndarray:
    return np.where(n >= 1, 1.0, 0.0)


def _power_decay(n: np.ndarray, p: dict) -> np.ndarray:
    base = n + p["c0"]
    if np.any(base <= 0):
        raise ValueError("power_decay requires n + c0 > 0 over the requested range")
    return p["c"] * np.power(base, -p["p"])


def _log_shift(n: np.ndarray, p: dict) -> np.ndarray:
    return np.log(n + 2.0)


def _reciprocal_log(n: np.ndarray, p: dict) -> np.ndarray:
    return 1.0 / np.log(n + 2.0)


def _almost_inc_example(n: np.ndarray, p: dict) -> np.ndarray:
    # n * e^((-1)^n): dips below its running max at every odd index.
    return n * np.exp(1.0 - 2.0 * (n & 1))


def _power_weight(n: np.ndarray, p: dict) -> np.ndarray:
    q = p["q"]
    if q < 0 and np.any(n == 0):
        raise ValueError("power_weight with q < 0 is undefined at index 0")
    return np.power(n.astype(np.float64), q)


# name -> (generator, {param: default or None when required})
FAMILIES: dict[str, tuple[Callable[[np.ndarray, dict], np.ndarray], dict[str, float | None]]] = {
    "alternating_unit": (_alternating_unit, {}),
    "unit_tail": (_unit_tail, {}),
    "power_decay": (_power_decay, {"c": 1.0, "c0": 1.0, "p": None}),
    "log_shift": (_log_shift, {}),
    "reciprocal_log": (_reciprocal_log, {}),
    "almost_inc_example": (_almost_inc_example, {}),
    "power_weight": (_power_weight, {"q": None}),
}


@dataclass(frozen=True)
class SequenceSpec:
    """Declarative recipe for a catalog sequence: family tag, params, range."""

    family: str
    n: int
    params: dict = field(default_factory=dict)
    start: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise ValueError(f"unknown family {self.family!r} (known: {known})")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not isinstance(self.start, int) or self.start < 0:
            raise ValueError("start must be a non-negative integer")
        _, schema = FAMILIES[self.family]
        for key, value in self.params.items():
            if key not in schema:
                raise ValueError(f"family {self.family!r} has no parameter {key!r}")
            # a float, inf and NaN too, or a finite real number a float holds
            if not (isinstance(value, float) or math.isfinite(_real(value))):
                raise ValueError(f"family {self.family!r} parameter {key!r} "
                                 "must be a real number")
        for key, default in schema.items():
            if default is None and key not in self.params:
                raise ValueError(f"family {self.family!r} requires parameter {key!r}")

    def resolved_params(self) -> dict[str, float]:
        _, schema = FAMILIES[self.family]
        out = {k: float(v) for k, v in schema.items() if v is not None}
        out.update({k: float(v) for k, v in self.params.items()})
        return out

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "n": self.n,
            "start": self.start,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceSpec":
        if not isinstance(obj, dict):
            raise ValueError("sequence spec must be a JSON object")
        extra = set(obj) - {"family", "params", "n", "start"}
        if extra:
            raise ValueError(f"unknown sequence spec fields: {sorted(extra)}")
        return cls(
            family=obj.get("family", ""),
            params=dict(obj.get("params", {})),
            n=obj.get("n", 0),
            start=obj.get("start", 0),
        )


def _family_blocks(spec: SequenceSpec) -> Callable[[int, int], np.ndarray]:
    """make(lo, hi): the spec's terms at offsets lo..hi-1 from spec.start,
    generated under ``np.errstate``: an overflowing value is refused as
    non-finite, not warned about."""
    gen, _ = FAMILIES[spec.family]
    params = spec.resolved_params()

    def make(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(spec.start + lo, spec.start + hi, dtype=np.int64)
        with np.errstate(all="ignore"):
            return np.asarray(gen(idx, params), dtype=np.float64)
    return make


def materialize(spec: SequenceSpec) -> RealSequence:
    """Generate the first ``spec.n`` terms of the family from ``spec.start``.

    Deterministic: the same spec always yields bit-identical values.
    """
    return _adopt(spec.start, _family_blocks(spec)(0, spec.n))


def _generated(spec: SequenceSpec,
               error: Callable[[str], Exception] = ValueError) -> RealSequence:
    """The sequence ``materialize`` makes, generated a block at a time.

    Parameter and domain errors are raised now: every family's domain is
    a lower bound on the index, so the first index shows them.
    """
    make = _family_blocks(spec)
    make(0, 1)
    return _BlockSequence(spec.start, spec.n, make, error)


def _real(value) -> float:
    """``value`` as a float, or NaN unless it is a real number that a float
    holds: numpy scalars are, bools (True is not the parameter 1.0) and
    strings are not."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return float(value) if real else math.nan
    except OverflowError:  # an integer or fraction too large
        return math.nan


@dataclass(frozen=True)
class CesaroParams:
    """Shared transform/functional parameters.

    alpha: Cesaro order (> -1; the maximal-mean machinery needs 0 < alpha <= 1).
    k: summability exponent (>= 1).
    beta: index shift for the indexed weight form (>= 0).
    epsilon: weight-monotonicity exponent (> 0).
    """

    alpha: float = 1.0
    k: float = 1.0
    beta: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "k", "beta", "epsilon"):
            v = _real(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real number")
            object.__setattr__(self, name, v)
        if self.alpha <= -1.0:
            raise ValueError("alpha must exceed -1")
        if self.k < 1.0:
            raise ValueError("k must be at least 1")
        if self.beta < 0.0:
            raise ValueError("beta must be non-negative")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "k": self.k,
                "beta": self.beta, "epsilon": self.epsilon}

    @classmethod
    def from_json(cls, obj: dict) -> "CesaroParams":
        extra = set(obj) - {"alpha", "k", "beta", "epsilon"}
        if extra:
            raise ValueError(f"unknown parameter fields: {sorted(extra)}")
        return cls(**obj)
