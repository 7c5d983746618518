import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sievelab.divisors import (
    IMPOSSIBLE_TRIPLES,
    MAX_K,
    TIE_TOL,
    DegeneracyError,
    FactorizationPattern,
    divisor_count_gap,
    divisor_triple_verdict,
    mobius_half_sum,
    omega3_midrange_count,
)
from sievelab.regions import subset_sums
from sievelab.tables import (
    MIDRANGE_ROWS,
    OVERSHOOT_IMPOSSIBLE,
    OVERSHOOT_ROWS,
    max_overshoot,
    max_triple_sum,
    verify_triple_tables,
)


def random_pattern(rng, k):
    """Jittered strictly-decreasing pattern summing to 1."""
    while True:
        cuts = sorted(rng.random() for _ in range(k - 1))
        parts = []
        prev = 0.0
        for c in cuts + [1.0]:
            parts.append(c - prev)
            prev = c
        parts.sort(reverse=True)
        if all(a - b > 1e-6 for a, b in zip(parts, parts[1:])):
            try:
                return FactorizationPattern(parts)
            except ValueError:
                continue


def brute_mobius(alphas):
    """Signed count of the subsets with sum below 1/2 over the full table of
    2^k subset sums, made by doubling: the first twelve alphas, as one
    column, by `regions.subset_sums`, each later one added on top in index
    order, one block of 4096 sums at a time.  Each sum is bitwise the
    doubling table's.  None when a sum lies within TIE_TOL of 1/2."""
    x = np.array(alphas, dtype=float)[:, None]
    j = min(len(alphas), 12)
    low, signs = subset_sums(x[:j])[:, 0], np.ones(1)
    for _ in range(j):
        signs = np.concatenate([signs, -signs])
    total = 0
    for high in range(1 << (len(alphas) - j)):
        sums, sign = low, 1
        for b in (b for b in range(len(alphas) - j) if high >> b & 1):
            sums, sign = sums + alphas[j + b], -sign
        if (np.abs(sums - 0.5) <= TIE_TOL).any():
            return None
        total += sign * int(signs[sums < 0.5].sum())
    return total


# ---------------------------------------------------------------------------
# mobius_half_sum case table
# ---------------------------------------------------------------------------


def test_single_prime():
    assert mobius_half_sum(FactorizationPattern([1.0])) == 1


def test_three_primes_all_below_sqrt():
    pat = FactorizationPattern([0.40, 0.35, 0.25])
    assert pat.alphas[0] < 0.5
    assert mobius_half_sum(pat) == -2


def test_seven_primes_floor_eighth():
    # A uniform simplex point conditioned on min > 1/8 is 1/8 + (1/8) * (a
    # uniform simplex point), so the patterns are drawn directly instead of
    # by rejection (acceptance rate (1/8)^6).
    rng = random.Random(10)
    for _ in range(50):
        pat = FactorizationPattern([0.125 + a / 8 for a in random_pattern(rng, 7).alphas])
        assert min(pat.alphas) > 0.125
        assert mobius_half_sum(pat) == -20


def test_even_factor_count_gives_zero():
    rng = random.Random(20)
    for k in (2, 4, 6):
        for _ in range(50):
            pat = random_pattern(rng, k)
            try:
                assert mobius_half_sum(pat) == 0
            except DegeneracyError:
                continue


def test_large_prime_dominates():
    rng = random.Random(30)
    found = 0
    while found < 50:
        k = rng.randint(2, 6)
        pat = random_pattern(rng, k)
        if pat.alphas[0] > 0.5 + 1e-9:
            assert mobius_half_sum(pat) == 0
            found += 1


def test_matches_doubling_table_at_every_size():
    rng = random.Random(40)
    for k in range(1, 13):
        for _ in range(40):
            pat = random_pattern(rng, k)
            assert mobius_half_sum(pat) == brute_mobius(pat.alphas)
    for _ in range(2):
        pat = random_pattern(rng, MAX_K)
        assert mobius_half_sum(pat) == brute_mobius(pat.alphas)


# where a subset sum is put relative to 1/2, in units of TIE_TOL: inside and
# on the tie band (1), and on both sides of the pruning margins (4)
TIE_OFFSETS = (0.5, 1, 2, 3, 4, 5, 8)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10).flatmap(lambda k: st.tuples(
           st.integers(1, k - 1), st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))),
       st.sampled_from([s * c for c in TIE_OFFSETS for s in (1, -1)]),
       st.sampled_from((0, 100, -100)))
def test_sum_near_half_decided_as_by_the_doubling_table(split, c, shift):
    # r alphas sum to 1/2 + c*TIE_TOL and the others to 1/2 + (shift - c)*TIE_TOL.  A
    # pattern sums to 1 only within SUM_TOL, so with a shift the complement of a
    # sum in the tie band lies outside it, and each margin is tested on its own.
    r, weights = split
    inside, outside = sum(weights[:r]), sum(weights[r:])
    alphas = sorted([w * (0.5 + c * TIE_TOL) / inside for w in weights[:r]]
                    + [w * (0.5 + (shift - c) * TIE_TOL) / outside for w in weights[r:]],
                    reverse=True)
    try:
        pat = FactorizationPattern(alphas)
    except ValueError:
        assume(False)
    want = brute_mobius(pat.alphas)
    if want is None:
        with pytest.raises(DegeneracyError):
            mobius_half_sum(pat)
    else:
        assert mobius_half_sum(pat) == want


def test_matches_brute_force():
    rng = random.Random(50)
    for _ in range(500):
        pat = random_pattern(rng, rng.randint(1, 8))
        try:
            got = mobius_half_sum(pat)
        except DegeneracyError:
            continue
        assert got == brute_mobius(pat.alphas)


def test_degeneracy_error():
    # the subset {0.5} sits exactly on the sqrt(n) boundary
    with pytest.raises(DegeneracyError):
        mobius_half_sum(FactorizationPattern([0.5, 0.3, 0.2]))


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_pattern_rejects_nan(pos):
    # every other entry check compares against the NaN and reads False
    parts = [0.5, 0.3, 0.2]
    parts[pos] = math.nan
    with pytest.raises(ValueError, match="finite"):
        FactorizationPattern(parts)


# ---------------------------------------------------------------------------
# omega3_midrange_count
# ---------------------------------------------------------------------------


def brute_midrange(alphas):
    """Twice the number of the C(k, 3) triples x > y > z of the alphas, each
    summed in that order, with 1/2 < x + y + z < (1 + z)/2.  None when a sum
    lies within TIE_TOL of either boundary."""
    count = 0
    for x, y, z in combinations(alphas, 3):
        s = x + y + z
        upper = (1.0 + z) / 2.0
        if abs(s - 0.5) <= TIE_TOL or abs(s - upper) <= TIE_TOL:
            return None
        count += 0.5 < s < upper
    return 2 * count


@settings(max_examples=300, deadline=None)
@given(st.integers(3, MAX_K).flatmap(
           lambda k: st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)),
       st.booleans(),
       st.sampled_from([s * c for c in TIE_OFFSETS for s in (1, -1)]),
       st.sampled_from((0, 100, -100)))
def test_midrange_count_matches_enumeration(weights, upper, c, shift):
    # Three alphas x, y, z sum to 1/2 + c*TIE_TOL, or with `upper` to
    # (1 + z)/2 + c*TIE_TOL, z the least of them; the others make up the rest
    # of 1, off by shift*TIE_TOL.  Three alphas alone sum to 1.
    tri, rest = weights[:3], weights[3:]
    scale = (0.5 + c * TIE_TOL) / (sum(tri) - upper * min(tri) / 2) if rest else 1 / sum(tri)
    alphas = [w * scale for w in tri]
    left = 1.0 - sum(alphas) + shift * TIE_TOL
    alphas += [w * left / sum(rest) for w in rest]
    try:
        pat = FactorizationPattern(sorted(alphas, reverse=True))
    except ValueError:
        assume(False)
    want = brute_midrange(pat.alphas)
    if want is None:
        with pytest.raises(DegeneracyError):
            omega3_midrange_count(pat)
    else:
        assert omega3_midrange_count(pat) == want


def test_midrange_count_is_twice_the_triple_verdicts():
    rng = random.Random(110)
    for _ in range(500):
        pat = random_pattern(rng, 6)
        try:
            verdicts = sum(divisor_triple_verdict(ijk, pat) for ijk in combinations(range(1, 7), 3))
        except DegeneracyError:
            with pytest.raises(DegeneracyError):
                omega3_midrange_count(pat)
            continue
        assert omega3_midrange_count(pat) == 2 * verdicts


def test_midrange_small_patterns_zero():
    rng = random.Random(60)
    for k in (1, 2, 3):
        for _ in range(30):
            pat = random_pattern(rng, k)
            try:
                assert omega3_midrange_count(pat) == 0
            except DegeneracyError:
                continue


def test_midrange_four_factor_case():
    # p1 < p2 p3 p4 and p2 p3 < p1 pin the count to exactly 2.
    rng = random.Random(70)
    found = 0
    while found < 50:
        pat = random_pattern(rng, 4)
        a = pat.alphas
        if a[0] < 0.5 and a[1] + a[2] < a[0]:
            assert omega3_midrange_count(pat) == 2
            found += 1


def test_midrange_always_even_and_bounded():
    rng = random.Random(80)
    for _ in range(300):
        k = rng.randint(1, 8)
        pat = random_pattern(rng, k)
        try:
            c = omega3_midrange_count(pat)
        except DegeneracyError:
            continue
        assert c % 2 == 0 and c >= 0
        if k == 6:
            assert c <= 20


# ---------------------------------------------------------------------------
# five-factor gap
# ---------------------------------------------------------------------------


def test_gap_bracket_and_vanishing():
    rng = random.Random(90)
    for _ in range(10_000):
        pat = random_pattern(rng, 5)
        try:
            g = divisor_count_gap(pat)
        except DegeneracyError:
            continue
        assert 0 <= g <= 2
        a = pat.alphas
        if a[1] + a[2] > a[0] + a[4]:
            assert g == 0


def test_gap_example():
    pat = FactorizationPattern([0.30, 0.22, 0.18, 0.16, 0.14])
    assert pat.alphas[1] + pat.alphas[2] < pat.alphas[0] + pat.alphas[4]
    assert 0 <= divisor_count_gap(pat) <= 2


def test_gap_requires_five_factors():
    with pytest.raises(ValueError):
        divisor_count_gap(FactorizationPattern([0.6, 0.4]))


# ---------------------------------------------------------------------------
# divisor triple verdicts and the example tables
# ---------------------------------------------------------------------------


def test_triple_verdict_examples():
    no = FactorizationPattern(OVERSHOOT_ROWS[(1, 2, 3)])
    assert not divisor_triple_verdict((1, 2, 3), no)
    yes = FactorizationPattern(MIDRANGE_ROWS[(1, 2, 3)])
    assert divisor_triple_verdict((1, 2, 3), yes)


def test_triple_verdict_impossible_choices_random():
    rng = random.Random(100)
    for _ in range(300):
        pat = random_pattern(rng, 6)
        for ijk in IMPOSSIBLE_TRIPLES:
            try:
                assert not divisor_triple_verdict(ijk, pat)
            except DegeneracyError:
                continue


def test_triple_verdict_validation():
    pat = FactorizationPattern(MIDRANGE_ROWS[(1, 2, 3)])
    with pytest.raises(ValueError):
        divisor_triple_verdict((1, 1, 2), pat)
    with pytest.raises(ValueError):
        divisor_triple_verdict((0, 2, 3), pat)


def test_exact_impossibility_certificates():
    for ijk in OVERSHOOT_IMPOSSIBLE:
        assert max_overshoot(ijk) < 0
    # with the floor removed the certificate fails for (2,3,4)
    from fractions import Fraction

    assert max_overshoot((2, 3, 4), floor=Fraction(0)) > 0
    for ijk in IMPOSSIBLE_TRIPLES:
        assert max_triple_sum(ijk) <= 0


def test_all_table_rows_pass():
    results = verify_triple_tables()
    assert len(results) == 35
    for label, ok, _ in results:
        assert ok, label
