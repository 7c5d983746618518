"""Brute-force divisor combinatorics over squarefree factorization patterns.

A pattern models n = p1*...*pk through the exponents alpha_i = log p_i /
log n only: every divisor-size condition (d < sqrt(n), sqrt(n) < d <
sqrt(n*P^-(d)), ...) is an inequality between subset sums of the alphas, so
the subset enumeration decides it exactly at every scale.

The signed count below sqrt(n) walks the subsets depth first in index
order, in pure Python, on an explicit stack of at most k branches.  Each
subset it reaches is summed left to right from 0.0, as
`regions.subset_sums` sums it, so its sum is bitwise the subset's row of
the full (2^k, 1) table that `subset_sums` makes of the alphas as one
(k, 1) column.  A branch is cut only where every subset below it is
decided with no tie: its partial sum is already above 1/2, or every
extension stays below 1/2 and their signs cancel.  Every subset within
TIE_TOL of 1/2 is still reached, so the count and the DegeneracyError are
those of the full table.  The mid-range triple count loops over the index
triples in order and stops each loop once no triple left in it comes
near 1/2.  Nothing here imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

__all__ = [
    "FactorizationPattern",
    "DegeneracyError",
    "mobius_half_sum",
    "omega3_midrange_count",
    "divisor_count_gap",
    "divisor_triple_verdict",
    "IMPOSSIBLE_TRIPLES",
]

SUM_TOL = 1e-9
TIE_TOL = 1e-12
MAX_K = 24

# Index triples (i, j, k) of a 6-factor pattern that can never give a
# mid-range divisor: the complementary triple is always at least as large.
IMPOSSIBLE_TRIPLES = ((2, 4, 6), (2, 5, 6), (3, 4, 6), (3, 5, 6), (4, 5, 6))


class DegeneracyError(ValueError):
    """A subset sum hits a comparison boundary; the verdict is undefined."""


@dataclass(frozen=True)
class FactorizationPattern:
    """Strictly decreasing positive exponents summing to 1."""

    alphas: tuple[float, ...]

    def __init__(self, alphas):
        entries = tuple(float(a) for a in alphas)
        if not entries:
            raise ValueError("pattern must be nonempty")
        if len(entries) > MAX_K:
            raise ValueError(f"pattern capped at {MAX_K} factors")
        if not all(map(math.isfinite, entries)):
            raise ValueError("pattern entries must be finite")
        if any(a <= 0 for a in entries):
            raise ValueError("pattern entries must be positive")
        if abs(reduce(add, entries, 0.0) - 1.0) > SUM_TOL:  # left to right
            raise ValueError("pattern entries must sum to 1")
        for a, b in zip(entries, entries[1:]):
            if a - b < 1e-9:
                raise ValueError("pattern entries must be strictly decreasing")
        object.__setattr__(self, "alphas", entries)

    def __len__(self) -> int:
        return len(self.alphas)


def mobius_half_sum(pattern: FactorizationPattern) -> int:
    """Signed count of divisors below sqrt(n): sum over subsets S with
    sum_S alpha < 1/2 of (-1)^|S|.

    A branch (i, s, sign) stands for the subsets that agree with one chosen
    subset on alpha_0 .. alpha_(i-1); s is that subset's partial sum, added
    in index order from 0.0, so a leaf's sum is the bitwise value the
    doubling table holds for it, and sign is (-1) to its size.  A branch
    popped from the stack follows "alpha_i left out" in place and pushes
    "alpha_i taken" for later, so the subsets are reached in the order of
    a recursion that explores the left-out branch first, and the stack's
    depths rise from bottom to top: it never holds more than k branches.
    A branch at depth i with partial sum s is cut in two cases:

    - s >= 1/2 + 4*TIE_TOL: it is never pushed.  Adding a positive float
      never lowers a sum, so every subset below lies above 1/2 + TIE_TOL:
      none counts, none ties.
    - s + rest[i] < 1/2 - 4*TIE_TOL, where rest[i] sums the alphas not yet
      chosen.  A subset below adds some of them to s in another order than
      rest[i] does; each of the at most 2 * MAX_K + 1 roundings in the two
      sums errs by at most 2^-53 of a sum below 2, under 1.1e-14 in all,
      far inside the 3*TIE_TOL of margin.  So all 2^r extensions lie below
      1/2 - TIE_TOL: they all count and none ties, and for r >= 1 their
      signs cancel, (1 - 1)^r = 0.

    Neither cut drops a subset within TIE_TOL of 1/2, so DegeneracyError is
    raised for exactly the patterns whose full table holds a tie.
    """
    a = pattern.alphas
    k = len(a)
    rest = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        rest[i] = a[i] + rest[i + 1]
    above, below = 0.5 + 4 * TIE_TOL, 0.5 - 4 * TIE_TOL
    total = 0
    stack = [(0, 0.0, 1)]
    while stack:
        i, s, sign = stack.pop()
        while i < k and s + rest[i] >= below:
            t = s + a[i]
            i += 1
            if t < above:
                stack.append((i, t, -sign))
        if i == k:
            if abs(s - 0.5) <= TIE_TOL:
                raise DegeneracyError("subset sum at the sqrt(n) boundary")
            if s < 0.5:
                total += sign
    return total


def omega3_midrange_count(pattern: FactorizationPattern) -> int:
    """Twice the number of 3-factor divisors d with sqrt(n) < d <
    sqrt(n * P^-(d)).

    The index triples i < j < l are visited in order and each is summed
    s = a_i + a_j + a_l in that order, as `_midrange` judges it.  A loop
    stops as soon as the least sum left in it is below 1/2 - 4*TIE_TOL:
    the l loop at s itself, the j loop at a_i + a_j + a_(j+1) and the i
    loop at a_i + a_(i+1) + a_(i+2).  Correctly rounded addition is
    monotone in each argument and the alphas descend, so every triple a
    loop skips sums, in floats, to no more than the sum that stopped it:
    below 1/2 - 4*TIE_TOL, 3*TIE_TOL clear of the tie band.  Such a triple
    is not counted, and it ties neither 1/2 nor (1 + z)/2 > 1/2, so the
    count and the DegeneracyError are those of all C(k, 3) triples.
    """
    a = pattern.alphas
    k = len(a)
    low = 0.5 - 4 * TIE_TOL
    count = 0
    for i in range(k - 2):
        x = a[i]
        if x + a[i + 1] + a[i + 2] < low:
            break
        for j in range(i + 1, k - 1):
            y = a[j]
            if x + y + a[j + 1] < low:
                break
            for l in range(j + 1, k):
                z = a[l]
                s = x + y + z
                if s < low:
                    break
                count += _midrange(s, z)
    return 2 * count


def divisor_count_gap(pattern: FactorizationPattern) -> int:
    """Difference between the mid-range triple count and the signed
    below-sqrt divisor count for a 5-factor pattern; always lands in [0, 2]
    and vanishes unless alpha2 + alpha3 < alpha1 + alpha5."""
    if len(pattern) != 5:
        raise ValueError("the gap is defined for 5-factor patterns")
    return omega3_midrange_count(pattern) - mobius_half_sum(pattern)


def divisor_triple_verdict(ijk: tuple[int, int, int], pattern: FactorizationPattern) -> bool:
    """True iff d = p_i p_j p_k is a mid-range divisor of the 6-factor
    pattern: 1/2 < alpha_i + alpha_j + alpha_k < (1 + min)/2.  Exact ties
    with either boundary are undefined in the pattern model and raise."""
    if len(pattern) != 6:
        raise ValueError("triple verdicts are defined for 6-factor patterns")
    i, j, l = ijk
    if len({i, j, l}) != 3 or not all(1 <= v <= 6 for v in (i, j, l)):
        raise ValueError("indices must be three distinct values in 1..6")
    x, y, z = sorted((pattern.alphas[v - 1] for v in ijk), reverse=True)
    return _midrange(x + y + z, z)


def _midrange(s: float, z: float) -> bool:
    """Whether a descending triple x > y > z, summed s = x + y + z in that
    order, has 1/2 < s < (1 + z)/2; a sum within TIE_TOL of either
    boundary raises."""
    upper = (1.0 + z) / 2.0
    if abs(s - 0.5) <= TIE_TOL or abs(s - upper) <= TIE_TOL:
        raise DegeneracyError("triple sum at a comparison boundary")
    return 0.5 < s < upper
