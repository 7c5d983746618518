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
an integer simplex (`_farkas`), which either finds a Motzkin transposition
certificate or shows that the rows have a common real solution.

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

EXACT_BRANCHES = 64  # conjunctions one residual may branch into


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
    cannot tell: the residual has a real solution in the box, or it needs
    more than EXACT_BRANCHES conjunctions.  The parameters are taken at
    their float values, exactly.

    It is the exact side of `_Bound.decide`, to which it supplies rows only:
    `row` writes an atom as its row in the box's coordinates, and `decide`
    judges that row on the box; the walk folds the verdicts into the box's
    residual (`regions._fold`, `regions._negate`).  The residual is refuted
    once, together with the box's bounds, and branches into at most
    EXACT_BRANCHES conjunctions.  The certificates of the boxes refuted
    gather in `certificates`; a box the exact mode decides empty needs none.
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
        found = _refute(f, self.box_rows(), [EXACT_BRANCHES])
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


def _farkas(rows) -> dict | None:
    """Weights {row index: y > 0} proving that the rows have no common real
    solution, or None when they have one.

    A simplex in integers on the dual of: maximise s subject to
    a.x + s <= b on the strict rows, a.x <= b on the others, and s <= 1.
    That dual is: minimise b.y + z over y, z >= 0 with sum y a = 0 and the
    strict rows' weights plus z equal to 1.  Its point y = 0, z = 1 is
    feasible, so no first phase is needed: each equation sum y a = 0 (its
    right-hand side is 0) is pivoted on its first nonzero column, or dropped
    once all zero, and z is made basic in the last.  An unbounded ray is a
    Farkas certificate, an optimum <= 0 a Motzkin one, and an optimum > 0
    means some x meets every row, the strict ones by s > 0.  Each tableau
    row is an integer equation in lowest terms whose basic column is
    positive; the objective row is the reduced costs times a positive
    scale.  Bland's rule (lowest index, on ties too) ends every pivoting
    sequence and makes the weights depend on the rows' order only.
    """
    n = len(rows)  # columns: y_0 .. y_(n-1), z, the right-hand side
    t = [[*col, 0, 0] for col in zip(*(a for a, _, _ in rows))]
    t += [[*(int(s) for _, _, s in rows), 1, 1], [*(b for _, b, _ in rows), 1, 0]]
    basis = []

    def pivot(r, c):
        if t[r][c] < 0:
            t[r] = [-x for x in t[r]]
        row, p = t[r], t[r][c]
        for i, other in enumerate(t):
            q = other[c]
            if q and i != r:
                new = [p * x - q * y for x, y in zip(other, row)]
                g = math.gcd(*new) or 1
                t[i] = [x // g for x in new]

    while len(basis) < len(t) - 2:
        r = len(basis)
        c = next((j for j, x in enumerate(t[r]) if x), None)
        if c is None:
            del t[r]
        else:
            pivot(r, c)
            basis.append(c)
    pivot(len(basis), n)
    basis.append(n)
    while True:
        c = next((j for j in range(n + 1) if t[-1][j] < 0), None)
        if c is None:  # optimal: the weights are the basic values
            if t[-1][-1] < 0:
                return None
            parts = [(j, row[-1], row[j]) for j, row in zip(basis, t) if j < n and row[-1]]
            break
        r = None
        for i, row in enumerate(t[:-1]):
            if row[c] > 0 and (r is None or (d := row[-1] * t[r][c] - t[r][-1] * row[c]) < 0
                               or d == 0 and basis[i] < basis[r]):
                r = i
        if r is None:  # an unbounded ray: y_c = 1 and the basics it lifts
            parts = [(c, 1, 1)] + [(j, -row[c], row[j]) for j, row in zip(basis, t)
                                   if j < n and row[c]]
            break
        pivot(r, c)
        basis[r] = c
    scale = math.lcm(*(d for _, _, d in parts))
    y = {j: v * (scale // d) for j, v, d in parts}
    g = math.gcd(*y.values())
    return {j: v // g for j, v in y.items()}


def _order(f):
    """A sort key of residual items that does not depend on hashing: rows
    first, then junctions, each by its entries."""
    if f[0] == "and" or f[0] == "or":
        return 1, f[0], sorted(map(_order, f[1]))
    return 0, f


def _refute(f, rows: tuple, branches: list) -> list | None:
    """Certificates that the residual f has no real solution together with
    rows, one per conjunction it branches into, or None: a conjunction has
    a real solution, or the branches would run out.  The rows outside any
    disjunction are decided first; only then is a disjunction branched on,
    the shortest first, and only while every choice of one alternative per
    disjunction fits in the branches left (a one-item counter).  Items are
    taken in `_order`."""
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
            return None
        more = _refute(_fold("and", [alt, *rest]), tuple(rows), branches)
        if more is None:
            return None
        certs += more
    return certs
