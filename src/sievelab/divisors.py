"""Brute-force divisor combinatorics over squarefree factorization patterns.

A pattern models n = p1*...*pk through the exponents alpha_i = log p_i /
log n only: every divisor-size condition (d < sqrt(n), sqrt(n) < d <
sqrt(n*P^-(d)), ...) is an inequality between subset sums of the alphas, so
the subset enumeration decides it exactly at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .regions import subset_sums

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
        if any(a <= 0 for a in entries):
            raise ValueError("pattern entries must be positive")
        if abs(sum(entries) - 1.0) > SUM_TOL:
            raise ValueError("pattern entries must sum to 1")
        for a, b in zip(entries, entries[1:]):
            if a - b < 1e-9:
                raise ValueError("pattern entries must be strictly decreasing")
        object.__setattr__(self, "alphas", entries)

    def __len__(self) -> int:
        return len(self.alphas)


def _subset_table(alphas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Sums and signs (-1)^|S| over all 2^k subsets, doubling per entry."""
    signs = np.ones(1)
    for _ in alphas:
        signs = np.concatenate([signs, -signs])
    return subset_sums(np.array([alphas], dtype=float))[0], signs


def mobius_half_sum(pattern: FactorizationPattern) -> int:
    """Signed count of divisors below sqrt(n): sum over subsets S with
    sum_S alpha < 1/2 of (-1)^|S|."""
    sums, signs = _subset_table(pattern.alphas)
    if (np.abs(sums - 0.5) <= TIE_TOL).any():
        raise DegeneracyError("subset sum at the sqrt(n) boundary")
    return int(signs[sums < 0.5].sum())


def omega3_midrange_count(pattern: FactorizationPattern) -> int:
    """Twice the number of 3-factor divisors d with sqrt(n) < d <
    sqrt(n * P^-(d))."""
    a = pattern.alphas
    count = 0
    for i, j, l in combinations(range(len(a)), 3):
        s = a[i] + a[j] + a[l]
        upper = (1.0 + a[l]) / 2.0  # a[l] is the smallest of the three
        if abs(s - 0.5) <= TIE_TOL or abs(s - upper) <= TIE_TOL:
            raise DegeneracyError("triple sum at a comparison boundary")
        if 0.5 < s < upper:
            count += 1
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
    a = pattern.alphas
    vals = sorted((a[i - 1], a[j - 1], a[l - 1]), reverse=True)
    s = sum(vals)
    upper = (1.0 + vals[-1]) / 2.0
    if abs(s - 0.5) <= TIE_TOL or abs(s - upper) <= TIE_TOL:
        raise DegeneracyError("triple sum at a comparison boundary")
    return 0.5 < s < upper
