"""Example 6-factor patterns deciding which index triples can give a
mid-range divisor, plus an exact impossibility check.

Two published example tables are reproduced: one pattern per triple whose
divisor overshoots the sqrt(n * smallest-factor) ceiling (verdict False),
and one per triple that lands strictly inside the mid-range (verdict True).
Five triples with first index >= 2 admit no overshooting pattern at all
when every exponent exceeds 1/8; that is verified exactly by maximising the
overshoot over the vertices of the ordered-floor polytope.
"""

from __future__ import annotations

from fractions import Fraction

from .divisors import (
    IMPOSSIBLE_TRIPLES,
    DegeneracyError,
    FactorizationPattern,
    divisor_triple_verdict,
)

__all__ = [
    "OVERSHOOT_ROWS",
    "OVERSHOOT_IMPOSSIBLE",
    "MIDRANGE_ROWS",
    "max_overshoot",
    "verify_triple_tables",
]

# Triples whose listed pattern makes d = p_i p_j p_k exceed the mid-range
# ceiling (so the divisor is not counted).
OVERSHOOT_ROWS = {
    (1, 2, 3): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 2, 4): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 2, 5): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 2, 6): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 3, 4): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 3, 5): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 3, 6): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 4, 5): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 4, 6): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
    (1, 5, 6): (0.295, 0.143, 0.142, 0.141, 0.140, 0.139),
}

# Triples with no overshooting pattern at all (given the 1/8 floor).
OVERSHOOT_IMPOSSIBLE = ((2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 5))

# One pattern per triple whose divisor lies strictly inside the mid-range.
MIDRANGE_ROWS = {
    (1, 2, 3): (0.279, 0.147, 0.146, 0.145, 0.143, 0.140),
    (1, 2, 4): (0.280, 0.147, 0.146, 0.145, 0.143, 0.139),
    (1, 2, 5): (0.283, 0.146, 0.145, 0.143, 0.142, 0.141),
    (1, 2, 6): (0.284, 0.146, 0.145, 0.143, 0.142, 0.140),
    (1, 3, 4): (0.287, 0.151, 0.142, 0.141, 0.140, 0.139),
    (1, 3, 5): (0.287, 0.151, 0.142, 0.141, 0.140, 0.139),
    (1, 3, 6): (0.287, 0.151, 0.142, 0.141, 0.140, 0.139),
    (1, 4, 5): (0.288, 0.150, 0.142, 0.141, 0.140, 0.139),
    (1, 4, 6): (0.288, 0.150, 0.142, 0.141, 0.140, 0.139),
    (1, 5, 6): (0.289, 0.149, 0.142, 0.141, 0.140, 0.139),
    (2, 3, 4): (0.220, 0.217, 0.143, 0.141, 0.140, 0.139),
    (2, 3, 5): (0.219, 0.217, 0.144, 0.141, 0.140, 0.139),
    (2, 3, 6): (0.217, 0.216, 0.147, 0.141, 0.140, 0.139),
    (2, 4, 5): (0.214, 0.213, 0.146, 0.145, 0.143, 0.139),
    (3, 4, 5): (0.190, 0.170, 0.169, 0.168, 0.164, 0.139),
}


def _max_at_top_vertices(objective, floor: Fraction) -> Fraction:
    """Exact maximum of a linear objective over the polytope
    {alpha_1 >= ... >= alpha_6 >= floor, sum = 1}.

    The polytope is the affine image of a simplex, so the maximum is
    attained at one of the six top-block vertices (first m coordinates
    equal, the rest at the floor).
    """
    return max(
        objective([(1 - (6 - m) * floor) / m] * m + [floor] * (6 - m)) for m in range(1, 7)
    )


def max_overshoot(ijk: tuple[int, int, int], floor: Fraction = Fraction(1, 8)) -> Fraction:
    """Exact maximum of alpha_i+alpha_j+alpha_k - (1+alpha_k)/2 over
    {alpha_1 >= ... >= alpha_6 >= floor, sum = 1}."""
    i, j, l = ijk
    return _max_at_top_vertices(
        lambda a: a[i - 1] + a[j - 1] + a[l - 1] - (1 + a[l - 1]) / 2, floor
    )


def max_triple_sum(ijk: tuple[int, int, int]) -> Fraction:
    """Exact maximum of alpha_i+alpha_j+alpha_k - 1/2 over
    {alpha_1 >= ... >= alpha_6 >= 0, sum = 1}."""
    i, j, l = ijk
    return _max_at_top_vertices(
        lambda a: a[i - 1] + a[j - 1] + a[l - 1] - Fraction(1, 2), Fraction(0)
    )


def verify_triple_tables() -> list[tuple[str, bool, str]]:
    """Per-row pass/fail results for both example tables, the exact
    impossibility rows and the always-small triples."""
    out = []
    for ijk, alphas in sorted(OVERSHOOT_ROWS.items()):
        pat = FactorizationPattern(alphas)
        a = pat.alphas
        s = a[ijk[0] - 1] + a[ijk[1] - 1] + a[ijk[2] - 1]
        overshoots = s > (1 + min(a[v - 1] for v in ijk)) / 2
        verdict = divisor_triple_verdict(ijk, pat)
        out.append((f"overshoot row {ijk}", overshoots and not verdict, "published"))
    for ijk in OVERSHOOT_IMPOSSIBLE:
        out.append((f"overshoot impossible {ijk}", max_overshoot(ijk) < 0, "published"))
    for ijk, alphas in sorted(MIDRANGE_ROWS.items()):
        pat = FactorizationPattern(alphas)
        try:
            verdict = divisor_triple_verdict(ijk, pat)
            label = f"midrange row {ijk}"
        except DegeneracyError:
            # Two published rows sit exactly on the upper boundary at the
            # printed precision; the witness holds for exponents
            # infinitesimally below it (shrink the smallest of the triple).
            jittered = list(alphas)
            small = min(ijk, key=lambda v: alphas[v - 1])
            jittered[small - 1] -= 5e-10
            verdict = divisor_triple_verdict(ijk, FactorizationPattern(jittered))
            label = f"midrange row {ijk} (boundary, jittered)"
        out.append((label, verdict, "published"))
    for ijk in IMPOSSIBLE_TRIPLES:
        ok = max_triple_sum(ijk) <= 0 and all(
            not divisor_triple_verdict(ijk, FactorizationPattern(alphas))
            for alphas in MIDRANGE_ROWS.values()
        )
        out.append((f"always below sqrt(n) {ijk}", ok, "published"))
    return out
