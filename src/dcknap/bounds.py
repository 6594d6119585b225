"""Outward-rounded float64 bounds on exact values, and the decisions they make.

An experiment prints each mean to 2 decimals and compares sums of means, so
it needs far less than the exact mean, whose denominator grows with every
realization.  Here each exact value x is held as a lower bound on x and a
lower bound on -x, so that every end rounds the same way, down.  numpy has
no directed rounding; each end is moved outward by a proven amount instead
(u = 2^-53 is the unit roundoff of float64 under round to nearest):

* A correctly rounded +, -, * or / of floats lies within one ulp of the
  exact result, so the next float below it, `down`, is a lower bound.
  This holds in the subnormal range too; no value here nears overflow.
* The computed sum S of k floats x_i, in any order of additions (numpy's
  pairwise `sum`, and `einsum` over products by 0 or 1, which are exact),
  satisfies |S - sum x_i| <= gamma_{k-1} sum |x_i|, where
  gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability of Numerical
  Algorithms*, 2002, sec. 3.1 and 4.2).  The computed sum A of the |x_i| is at least
  (1 - gamma_{k-1}) sum |x_i|, so the error is at most
  gamma_{k-1} / (1 - gamma_{k-1}) A <= gamma_{2k} A: `pair_sum` subtracts
  an upper bound of that from S, then rounds down.
* A product of m factors (1 + delta_i), |delta_i| <= u, lies in
  [1 - gamma_m, 1 + gamma_m] (Higham, lemma 3.1).  int64 -> float64
  conversion is one such factor: a numerator can reach 2^62
  (`solvers._bounds`), past float64's 2^53 exact integers.  So a sum of k
  nonnegative terms, each converted and divided once, is computed as
  S = s (1 + theta) with |theta| <= g = gamma_{k+2}, and the exact s lies in
  [S / (1 + g), S / (1 - g)], inside [S (1 - g), S (1 + 2 g)] for
  g <= 1/2: `nonnegative_sum`.

`Bounds` carries such an enclosure of a mean to the output: its comparisons
and `rounding.format_2dec` give an answer only when both ends agree, and
raise `Undecided` otherwise (an exact tie, or a mean on a rounding edge),
so that the caller can decide from the exact value instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational

import numpy as np

_UNIT_ROUNDOFF = 2.0**-53


class Undecided(Exception):
    """Bounds that cannot decide a printed digit or a comparison."""


def decided(low, high):
    """The common outcome at the two ends of a bound; `Undecided` if they differ."""
    if low != high:
        raise Undecided
    return low


def _gamma(k: int) -> float:
    """A float >= gamma_k = k u / (1 - k u), for k u < 1/2: k u and 1 - k u
    are exact, and one rounding up covers the division."""
    ku = k * _UNIT_ROUNDOFF
    return math.nextafter(ku / (1 - ku), math.inf)


def down(x):
    """The next float below each entry: a lower bound of a correctly
    rounded result."""
    return np.nextafter(x, -np.inf)


def nonnegative_sum(total: np.ndarray, k: int) -> np.ndarray:
    """Bounds (2, ...) on exact sums s >= 0 computed as `total`, each of k
    terms converted and divided once: row 0 bounds s, row 1 bounds -s."""
    g = _gamma(k + 2)
    factors = np.array([math.nextafter(1 - g, -math.inf), -math.nextafter(1 + 2 * g, math.inf)])
    return down(total * factors.reshape((2,) + (1,) * np.ndim(total)))


def pair_sum(pairs: np.ndarray, axis: int) -> np.ndarray:
    """Bounds on the exact sums of `pairs` (row 0 on x, row 1 on -x) along
    `axis`: the computed sums, less gamma_{2k} times the sums of |x|."""
    c = _gamma(2 * pairs.shape[axis])
    error = np.nextafter(c * np.abs(pairs).sum(axis), np.inf)
    return down(pairs.sum(axis) - error)


def pair_quotient(num: np.ndarray, den_lo: np.ndarray, den_hi: np.ndarray) -> np.ndarray:
    """Bounds on num / den, for num as `pair_sum` holds it and
    0 < den_lo <= den <= den_hi.  An end n divides by den_hi where
    n >= 0 and by den_lo where n < 0, whichever row it is in."""
    return down(num / np.where(num >= 0, den_hi, den_lo))


@dataclass(frozen=True)
class Bounds:
    """lo / count <= x <= hi / count for an exact value x: a mean of `count`
    values, from float or exact int sums of their bounds.

    `+`, `-`, `abs` and `k *` (an int k) give bounds on the exact results,
    rounded outward; `<` and `>` answer only where every value within the
    bounds answers alike, and raise `Undecided` otherwise.  Bounds on means
    of different counts are never compared: that, too, is `Undecided`.
    """

    lo: float
    hi: float
    count: int = 1

    def _check(self, other: Bounds) -> None:
        if other.count != self.count:
            raise Undecided

    def __add__(self, other):
        if isinstance(other, Rational) and other == 0:  # the start of sum()
            return self
        self._check(other)
        return Bounds(_down(self.lo + other.lo), _up(self.hi + other.hi), self.count)

    __radd__ = __add__

    def __sub__(self, other: Bounds) -> Bounds:
        self._check(other)
        return Bounds(_down(self.lo - other.hi), _up(self.hi - other.lo), self.count)

    def __rmul__(self, k: int) -> Bounds:
        lo, hi = sorted((k * self.lo, k * self.hi))
        return Bounds(_down(lo), _up(hi), self.count)

    def __abs__(self) -> Bounds:
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Bounds(-self.hi, -self.lo, self.count)
        return Bounds(0.0, max(-self.lo, self.hi), self.count)

    def __lt__(self, other: Bounds) -> bool:
        self._check(other)
        return decided(self.hi < other.lo, self.lo < other.hi)

    def __gt__(self, other: Bounds) -> bool:
        return other < self


def largest(values):
    """The max of exact values, or `Bounds` on the max of values within
    `Bounds`, which needs no decision: it is at least every lo and at most
    the largest hi."""
    values = list(values)
    if not all(isinstance(v, Bounds) for v in values):
        return max(values)
    for v in values:
        values[0]._check(v)
    return Bounds(max(v.lo for v in values), max(v.hi for v in values), values[0].count)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)
