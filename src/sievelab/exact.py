"""Exact emptiness of a region on boxes: the third evaluator of a compiled
region program, after batch membership and the float box test.

On each box the program is evaluated in three-valued logic by the box
test in its exact mode (`regions._Bound.decide` given a `BoxTest`), and
the atoms the box leaves undecided become rows with integer coefficients
in the box's coordinates, strict where the catalog's comparison is.  The
program holds plain comparisons only (compiling has written out tsum,
tmin, tmax and descending), and `in(...)` and each bipartition of
`splits(...)` substitute group and subset sums.  The arithmetic is in
integers throughout: a column is its catalog coefficients over one
denominator (`regions._Program.exact`), a parameter the ratio of integers
its float is, a substituted sum an integer vector, and a row is reduced
by its gcd.  What is left is refuted, together with the box's bounds, by
Fourier-Motzkin elimination that keeps strictness, and each refutation is
a Motzkin transposition certificate.

`BoxTest` is this test on one box at a time.  The quadrature builds one
per integral whose sampling box is not empty, and every box question of
that integral reads it: the route its residual on the whole box, the
strata its float bound (`bound.decide`) and the emptiness proof the test
itself.  Residuals are refuted in a canonical order of their items,
so a certificate does not depend on the process's string hashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .regions import RegionError, RegionSpec, _Bound, _bound, _fold

__all__ = ["BoxTest", "Certificate"]

EXACT_ROWS = 400  # rows an elimination step may hold
EXACT_BRANCHES = 64  # conjunctions one residual may branch into


class _GaveUp(Exception):
    """A cap of the exact test was reached."""


@dataclass(frozen=True)
class Certificate:
    """Motzkin's transposition theorem: rows (a, b, strict) have no common
    real solution when weights y >= 0 give sum y a = 0 and either
    sum y b < 0, or sum y b = 0 with a positive weight on a strict row."""

    rows: tuple
    weights: tuple

    def holds(self) -> bool:
        if not self.rows or len(self.rows) != len(self.weights) or min(self.weights) < 0:
            return False
        k = len(self.rows[0][0])
        if any(sum(y * a[i] for y, (a, _, _) in zip(self.weights, self.rows)) for i in range(k)):
            return False
        rhs = sum(y * b for y, (_, b, _) in zip(self.weights, self.rows))
        return rhs < 0 or rhs == 0 and any(y > 0 and s for y, (_, _, s) in zip(self.weights,
                                                                               self.rows))


class BoxTest:
    """The exact box test of a k-dimensional region at one parameter point.
    Called on a closed box [lo, hi], it returns True when every point of the
    box lies in the region, False when no real point does, and None when it
    cannot tell, also when a cap is reached.  The parameters are taken at
    their float values, exactly.

    It is the exact side of `_Bound.decide`, to which it supplies rows only:
    `row` writes an atom as its row in the box's coordinates, and `decide`
    judges that row on the box; the walk folds the verdicts into the box's
    residual (`regions._fold`, `regions._negate`).  The residual is refuted
    once, together with the box's bounds; it branches into at most
    EXACT_BRANCHES conjunctions and an elimination holds at most EXACT_ROWS
    rows.  The certificates of the boxes refuted gather in `certificates`;
    a box the exact mode decides empty needs none.
    """

    def __init__(self, region: RegionSpec, k: int, params: dict[str, float], catalog):
        self.bound = _bound(region, k, params, catalog)
        self.params, self.k = params, k
        self.rows: dict = {}
        self.subs: dict = {}
        self.certificates: list[Certificate] = []
        self.last: tuple = (None, None)  # the last box's ratios and residual

    def __call__(self, lo, hi):
        f = self.residual(lo, hi)
        if f is True or f is False:
            return f
        try:
            found = _refute(f, self.box_rows(), [EXACT_BRANCHES])
        except _GaveUp:
            return None
        if found is None or not all(c.holds() for c in found):
            return None
        self.certificates += found
        return False

    def residual(self, lo, hi):
        """The program on the closed box [lo, hi], judged exactly: True,
        False, or the residual of the atoms it leaves undecided.  The box
        becomes the one `box_rows` and `decide` read.  The last box and its
        residual are kept, so the same box asked again is not walked again."""
        ratios = [float(v).as_integer_ratio() for v in (*lo, *hi)]
        if ratios != self.last[0]:
            # the corners as integers over 2**shift: floats are dyadic rationals
            self.shift = max(d.bit_length() - 1 for _, d in ratios)
            ints = [n << (self.shift - d.bit_length() + 1) for n, d in ratios]
            self.lo, self.hi = ints[: self.k], ints[self.k :]
            self.last = ratios, self.bound.decide(lo, hi, self)
        return self.last[1]

    def box_rows(self) -> tuple:
        """lo <= t <= hi as rows."""
        rows = []
        for i, (l, h) in enumerate(zip(self.lo, self.hi)):
            unit = tuple(int(i == j) << self.shift for j in range(self.k))
            rows += [(tuple(-u for u in unit), -l, False), (unit, h, False)]
        return tuple(rows)

    def value(self, form) -> tuple[int, int]:
        """The constant and parameter terms of an integer form (`regions._ints`)
        as (numerator, denominator): floats are dyadic, so the largest
        parameter denominator is a common one."""
        den, const, params = form[:3]
        terms = []
        for name, w in params:
            if name not in self.params:
                raise RegionError(f"missing parameter {name!r}")
            terms.append((w, *float(self.params[name]).as_integer_ratio()))
        scale = max((d for _, _, d in terms), default=1)
        return const * scale + sum(w * n * (scale // d) for w, n, d in terms), den * scale

    def vectors(self, sub) -> tuple:
        """The variables of a program reached through sub as integer vectors
        of coefficients of the box's coordinates: the unit vectors at the
        root, then the sums of the groups of an `in` or of the two sides of
        a `splits` mask."""
        out = self.subs.get(sub)
        if out is None:
            if sub is None:
                out = tuple(tuple(int(i == j) for j in range(self.k)) for i in range(self.k))
            else:
                kind, part, parent = sub
                parent = self.vectors(parent)
                groups = (part if kind == "in" else
                          [[i for i in range(len(parent)) if (part >> i & 1) == side]
                           for side in (1, 0)])
                zero = (0,) * self.k
                out = tuple(tuple(map(sum, zip(zero, *(parent[i] for i in g)))) for g in groups)
            self.subs[sub] = out
        return out

    def row(self, bound: _Bound, c: int, sub):
        """Column c of the bound program through sub, as a row in lowest terms
        in the box's coordinates, or its verdict when no coordinate is left."""
        key = (bound.prog, c, sub)
        out = self.rows.get(key)
        if out is None:
            rel, *form = bound.prog.exact(c)
            vec, (num, den) = self.vectors(sub), self.value(form)
            # lhs - rhs < 0, or <= 0 (rhs - lhs for > and >=), over den
            sign = 1 if rel in ("<", "<=") else -1
            a, const = [0] * self.k, sign * num
            for i, w in form[3]:
                w *= sign * den // form[0]
                a = [x + w * y for x, y in zip(a, vec[i])]
            strict, g = rel in ("<", ">"), math.gcd(*a, const)
            out = self.rows[key] = ((tuple(x // g for x in a), -const // g, strict) if any(a)
                                    else 0 < -const if strict else 0 <= -const)
        return out

    def decide(self, f):
        """A row judged exactly on the box: True or False when it holds or
        fails at every point of it."""
        if f is True or f is False:
            return f
        a, b, strict = f
        low = high = 0
        for x, l, h in zip(a, self.lo, self.hi):
            if x > 0:
                low, high = low + x * l, high + x * h
            elif x < 0:
                low, high = low + x * h, high + x * l
        b <<= self.shift
        if high < b or high == b and not strict:
            return True
        if low > b or low == b and strict:
            return False
        return f


def _prune(work):
    """The tightest row of each direction, without the rows that hold
    trivially; the weights of a contradiction if one is among them."""
    best = {}
    for row in work:
        a, b, strict, y, _ = row
        g = math.gcd(*a)
        if not g:
            if b < 0 or b == 0 and strict:
                return [], y
            continue
        key = tuple(x // g for x in a)
        old = best.get(key)
        if old is not None:
            (_, b0, s0, _, _), g0 = old
            if b * g0 > b0 * g or b * g0 == b0 * g and (s0 or not strict):
                continue
        best[key] = row, g
    return [row for row, _ in best.values()], None


def _farkas(rows) -> dict | None:
    """Weights {row index: y > 0} proving that the rows have no common real
    solution, or None when it finds none.  None is not a proof that they
    have one: a row bounded tighter by another is dropped whatever rows
    each is made from, and Chernikov's rule may then drop the only
    contradiction (tests/test_regions.py, test_farkas_refutes_after_box_rows).

    Fourier-Motzkin elimination over the integers, keeping strictness (a
    sum of rows is strict when a strict row has a positive weight; Dantzig &
    Eaves 1973): each derived row carries the weights that make it from the
    given rows.  A derived row with more weights than one plus the number of
    variables eliminated is implied by others and dropped (Chernikov's rule),
    as is a row bounded tighter by another of the same direction.  Raises
    _GaveUp once a step holds more than EXACT_ROWS rows.
    """
    # (a, b, strict, weights, bit mask of the rows with a weight)
    work = [(a, b, s, {i: 1}, 1 << i) for i, (a, b, s) in enumerate(rows)]
    eliminated = 0
    while True:
        work, y = _prune(work)
        if y is not None:
            return y
        if not work:
            return None
        if len(work) > EXACT_ROWS:
            raise _GaveUp
        signs = [([r for r in work if r[0][j] > 0], [r for r in work if r[0][j] < 0])
                 for j in range(len(work[0][0]))]
        j = min((j for j, (p, n) in enumerate(signs) if p or n),
                key=lambda j: len(signs[j][0]) * len(signs[j][1]) - len(signs[j][0])
                - len(signs[j][1]))
        eliminated += 1
        pos, neg = signs[j]
        work = [r for r in work if not r[0][j]]
        for a, b, s, y, m in pos:
            for a2, b2, s2, y2, m2 in neg:
                if (m | m2).bit_count() > eliminated + 1:
                    continue
                cp, cn = -a2[j], a[j]
                ys = {i: cp * v for i, v in y.items()}
                for i, v in y2.items():
                    ys[i] = ys.get(i, 0) + cn * v
                na = [cp * x + cn * z for x, z in zip(a, a2)]
                nb = cp * b + cn * b2
                g = math.gcd(*na, nb, *ys.values())
                work.append((tuple(x // g for x in na), nb // g, s or s2,
                             {i: v // g for i, v in ys.items()}, m | m2))


def _order(f):
    """A sort key of residual items that does not depend on hashing: rows
    first, then junctions, each by its entries."""
    if f[0] == "and" or f[0] == "or":
        return 1, f[0], sorted(map(_order, f[1]))
    return 0, f


def _refute(f, rows: tuple, branches: list) -> list | None:
    """Certificates that the residual f has no real solution together with
    rows, one per conjunction it branches into, or None.  The rows outside
    any disjunction are decided first; only then is a disjunction branched
    on, the shortest first, and only while every choice of one alternative
    per disjunction fits in the branches left (a one-item counter).  Past
    that the test gives up.  Items are taken in `_order`."""
    rows, choices = list(rows), []
    for g in sorted(f[1], key=_order) if f[0] == "and" else (f,):
        if g[0] == "or":
            choices.append(g[1])
        else:
            rows.append(g)
    y = _farkas(rows)
    if y is not None:
        return [Certificate(tuple(rows[i] for i in sorted(y)), tuple(y[i] for i in sorted(y)))]
    if not choices or math.prod(map(len, choices)) > branches[0]:
        return None
    split = min(choices, key=len)
    rest = [("or", c) for c in choices if c is not split]
    certs = []
    for alt in sorted(split, key=_order):
        branches[0] -= 1
        if branches[0] < 0:
            raise _GaveUp
        more = _refute(_fold("and", [alt, *rest]), tuple(rows), branches)
        if more is None:
            return None
        certs += more
    return certs
