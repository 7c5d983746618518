"""Deterministic integration over a region whose residual on its sampling
box is a formula of linear rows: the path `quadrature.integrate` takes
when the weight is `one` or `reciprocal`.  The box is split into convex
cells on the residual's rows, and the cells where the residual holds are
polytopes, integrated by cubature: weighted model integration (Belle,
Passerini & Van den Broeck 2015; Morettin, Passerini & Sebastiani 2017).

- Rows.  The exact box test (`exact.BoxTest`) judges the program on the
  whole sampling box, deciding every `in`, `splits` and `not` it can.  What
  it leaves undecided is an and/or formula whose atoms are integer rows
  a . t <= b, strict or not, which does not matter for volume.  The first
  cell's rows are the box's bounds, in integers over a power of two as its
  floats are dyadic, for a sorted integral t1 >= t2 >= ... >= tk, and the
  rows of the residual's top-level conjunction.  A sorted integral
  is mult/k! times the integral over the box of the region's indicator and
  weight at the sorted point, which is mult times the integral over the
  region's points with t1 >= ... >= tk.  Of rows with one direction only
  the tightest is kept, by cross-multiplying; only its b becomes a Fraction.
- Cells.  The rest of the residual is judged on a cell at its exact
  vertices: a row holds when a . v <= b at every vertex v and fails when
  a . v >= b at every one, and the formula is folded (`regions._fold`).  A
  cell where it is True is kept, one where it is False dropped, and any
  other is split on its least undecided row under `exact._order`: one
  more cut of its vertices on each side.  A residual that is one
  conjunction is one cell.  Past MAX_CELLS cells, or when no cell is kept,
  the integral is sampled.
- Vertices.  Exact double description, in integers: the box's corners,
  over one denominator, are cut by every other row in index order, each cut
  keeping the vertices on its side and adding one where it crosses an edge,
  the edges found by their common tight rows alone.  Each vertex is kept as
  (numerators, denominator) with the rows tight at it.
- Triangulation.  Pulling: a face is triangulated by coning its
  lowest-numbered vertex over each of its facets that misses that vertex,
  triangulated the same way.  The facets of a face F are the sets F ∩
  tight(row) of dimension dim F - 1.  Tight sets and dimensions are exact.
- The rule.  It runs over the simplices of every cell kept, in the order
  the cells are found.  Weight `one` gives the exact volume, the sum of
  |det| / k! over the simplices.  Weight `reciprocal` takes Stroud's conical product
  rule on each simplex: n Gauss-Jacobi nodes per axis of the collapsed
  (Duffy) coordinates, axis i under the weight (1 - u)^(k - 1 - i), the
  eigenvalues of Golub and Welsch's matrix found by Sturm bisection.
  Rules of n = 2, 4, 6, ... nodes per axis run until two in a row differ
  by no more than the target, or the next one would pass the budget.

References: Stroud 1971, *Approximate Calculation of Multiple Integrals*;
Golub & Welsch 1969; Bareiss 1968; Motzkin, Raiffa, Thompson & Thrall
1953; Fukuda & Prodon 1996.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from .exact import BoxTest, _order
from .quadrature import stop_target
from .regions import _fold

# The route's cap on a polytope's k-subsets of rows; past it the integral is
# sampled.  The catalog's polytopes have at most 3,003 (S237 and L73, 15
# rows in 5 dimensions).  U234's residual at theta = 0.52 has 53 rows in 6
# dimensions, 2.3e7 subsets: its double description takes about 50 ms to
# find one vertex (2-core machine), and the sampler proves it empty.
MAX_SUBSETS = 1 << 16
# The route's cap on the cells a residual is split into, counting every cell
# made; past it the integral is sampled.  U233 makes 35 to 59 cells at the
# 47 of 60 theta in [0.5, 4/7) where its whole-box residual is not False,
# and 61 at theta = 0.545, about 0.2 ms each (2-core machine).  8 rows in 4
# dimensions cut a box into at most 163 pieces, so into at most 325 cells.
MAX_CELLS = 1 << 9
BLOCK = 1 << 14  # rule points evaluated together
TINY = sys.float_info.min  # a Sturm pivot nearer 0 is taken as -TINY


def integrate(spec, test: BoxTest, lo, hi, wfn, tol, rel_tol, budget):
    """(value, est_error, samples) of mult times the integral of the weight
    wfn (None for the unit weight) over the points in the box [lo, hi] of
    the region of the exact box test `test`; False when the box test finds
    no point of the region in the box; or None when no cell of the
    region's residual on the box is full-dimensional, a cell's rows have
    more than MAX_SUBSETS k-subsets, the residual splits into more than
    MAX_CELLS cells, or the rules n = 2 and n = 4 together need more than
    `budget` evaluations.

    samples counts the integrand evaluations of the Gauss rules run, 0 for
    the unit weight.  A reciprocal weight raises SpecificationError when a
    vertex of a cell kept has a coordinate, or 1 - sum(t), below FLOOR_MIN:
    region points come arbitrarily close to every such vertex, and a linear
    function's minimum over a polytope is at one."""
    k = spec.dim
    first = _rows(test, lo, hi, spec.sorted)
    if first is None:
        return False
    leaves = _cells(*first, k)
    if not leaves:
        return None
    simplices = [(verts, s) for verts, cones in leaves for s in cones]
    dets = [_det(verts, s) for verts, s in simplices]
    mult = spec.mult
    if wfn is None:
        return float(mult * sum(dets, Fraction(0)) / math.factorial(k)), 0.0, 0
    points = [np.array([[x / d for x in num] for num, d in verts]) for verts, _ in leaves]
    wfn(np.concatenate(points).T)  # the weight raises SpecificationError at a vertex below its floors
    cost = len(simplices) * (2**k + 4**k)
    if cost > budget:
        return None
    corners = [p[s] for p, (_, cones) in zip(points, leaves) for s in cones]
    scales = [float(mult * d) for d in dets]
    prev, n = _rule(corners, scales, wfn, 2), 4
    while True:
        value = _rule(corners, scales, wfn, n)
        err = abs(value - prev)
        target = stop_target(tol, rel_tol, value)
        step = len(simplices) * (n + 2) ** k
        if err <= target or cost + step > budget:
            return value, err, cost
        prev, n, cost = value, n + 2, cost + step


def _rows(test: BoxTest, lo, hi, descending: bool):
    """The first cell's rows (a, b), a . t <= b with a primitive integer
    direction a and a rational b, the tightest of each direction, sorted,
    and the rest of the residual, its junctions folded into one formula; or
    None when the box test finds no point in the box."""
    f = test.residual(lo, hi)
    if f is False:
        return None
    given, junctions = [(a, b) for a, b, _ in test.box_rows()], []
    for g in () if f is True else f[1] if f[0] == "and" else (f,):
        if isinstance(g[0], str):
            junctions.append(g)
        else:
            given.append(g[:2])
    if descending:
        k = len(lo)
        given += [(tuple(int(j == i + 1) - int(j == i) for j in range(k)), 0)
                  for i in range(k - 1)]
    best = {}  # direction: (b, g), the bound b / g
    for a, b in given:
        g = math.gcd(*a)
        a = tuple(x // g for x in a)
        if a not in best or b * best[a][1] < best[a][0] * g:
            best[a] = b, g
    return sorted((a, Fraction(b, g)) for a, (b, g) in best.items()), _fold("and", junctions)


def _cells(rows, f, k: int):
    """The full-dimensional cells on which the formula f holds, of the
    first cell with rows `rows` (`_rows`), each (vertices, simplices) as
    `_Faces.triangulate` gives them, in the order they are found; or None
    when a cap is passed.

    On a cell the formula's rows are judged at its vertices (`_judge`),
    and a cell where the folded formula is True is kept, one where it is
    False dropped.  Any other is split on the least row left undecided,
    under `exact._order`, into the cells where it holds and where it fails,
    taken in that order.  Both are full-dimensional, the row being
    violated at one vertex and satisfied at another, strictly; only the
    first cell can be empty or flat."""
    if math.comb(len(rows), k) > MAX_SUBSETS:
        return None
    todo, made, leaves = [(rows, *_vertices(rows, k), f)], 1, []
    while todo:
        rows, verts, tight, f = todo.pop()
        if not verts:
            continue
        faces = _Faces(verts, tight, len(rows))
        everything = (1 << len(verts)) - 1
        if faces.dim(everything) < k:
            continue
        f = f if f is True else _judge(f, verts)
        if f is True:
            leaves.append((verts, faces.triangulate(everything, k)))
        elif f is not False:
            made += 2
            if made > MAX_CELLS or math.comb(len(rows) + 1, k) > MAX_SUBSETS:
                return None
            a, b, _ = min(_atoms(f), key=_order)
            todo += [(*_split(rows, verts, tight, side, k), f)
                     for side in ((tuple(-x for x in a), -b), (a, b))]
    return leaves


def _atoms(f):
    """The rows of a formula."""
    if f[0] == "and" or f[0] == "or":
        for g in f[1]:
            yield from _atoms(g)
    else:
        yield f


def _judge(f, verts):
    """The formula f on a cell with vertices verts, folded: a row is True
    where a . v <= b at every vertex v, False where a . v >= b at every one,
    which decides it but on the cell's boundary, a set of no volume."""
    if f[0] == "and" or f[0] == "or":
        return _fold(f[0], [_judge(g, verts) for g in f[1]])
    a, b, _ = f
    sides = [sum(x * y for x, y in zip(a, num)) - b * d for num, d in verts]
    return True if max(sides) <= 0 else False if min(sides) >= 0 else f


def _split(rows, verts, tight, row, k):
    """The rows, vertices and tight rows of the cell cut by row (a, b), as
    `_vertices` makes them: the cell's vertices cut once.  The row is new,
    or tighter than the cell's row of its direction, which it replaces."""
    a, b = row
    g = math.gcd(*a)
    a, b = tuple(x // g for x in a), Fraction(b, g)
    i = bisect.bisect_left(rows, a, key=lambda r: r[0])
    if i < len(rows) and rows[i][0] == a:
        # every vertex tight at the old bound is cut off, and no edge kept has it
        rows = [*rows[:i], (a, b), *rows[i + 1 :]]
    else:
        rows = [*rows[:i], (a, b), *rows[i:]]
        tight = [t & (1 << i) - 1 | t >> i << i + 1 for t in tight]
    cut = _cut([(num, d, t) for (num, d), t in zip(verts, tight)], rows, i, k)
    return rows, *_ordered(cut, len(rows))


def _vertices(rows, k):
    """The polytope's vertices, each (numerators, denominator) in lowest
    terms with a positive denominator, and the bit mask of the rows tight at
    each; or [], [] when the box rows leave some axis no width.  Exact
    double description (Motzkin et al. 1953): the box's corners, cut by
    every other row in index order (`_cut`)."""
    index = {a: i for i, (a, _) in enumerate(rows)}
    bs = [(b.numerator, b.denominator) for _, b in rows]
    axes = [(index[tuple(-e for e in unit)], index[unit])
            for unit in (tuple(int(i == j) for i in range(k)) for j in range(k))]
    den = math.lcm(*(bs[i][1] for axis in axes for i in axis))
    # each axis's two box rows and bounds over den, (row of lo, lo) and (row of hi, hi)
    ends = [((l, -bs[l][0] * (den // bs[l][1])), (h, bs[h][0] * (den // bs[h][1])))
            for l, h in axes]
    if any(lo >= hi for (_, lo), (_, hi) in ends):
        return [], []
    verts = [([x for _, x in corner], den, sum(1 << i for i, _ in corner))  # (nums, den, tight)
             for corner in itertools.product(*ends)]
    boxed = sum(1 << i for axis in axes for i in axis)
    for i in range(len(rows)):
        if not boxed >> i & 1:
            verts = _cut(verts, rows, i, k)
    return _ordered(verts, len(rows))


def _cut(verts, rows, i, k):
    """The vertices (numerators, denominator, tight rows) of a polytope cut
    by row i: those on its side, and a vertex on each edge it crosses.  The
    edges are the pairs whose common tight rows lie in no third vertex's
    (Fukuda & Prodon 1996), which needs every vertex's tight rows complete.
    A new vertex is tight at the rows of its edge and at row i."""
    a, b = rows[i]
    bn, bd = b.numerator, b.denominator
    sides = [bd * sum(x * y for x, y in zip(a, num)) - bn * den for num, den, _ in verts]
    masks = [t for _, _, t in verts]
    cut = []
    for u, su in enumerate(sides):
        if su >= 0:
            continue
        nu, du, _ = verts[u]
        for w, sw in enumerate(sides):
            common = masks[u] & masks[w]
            if sw <= 0 or common.bit_count() < k - 1 or any(
                    t & common == common for v, t in enumerate(masks) if v != u and v != w):
                continue  # no edge: too few common rows, or a third vertex has them
            nw, dw, _ = verts[w]
            num = [sw * x - su * y for x, y in zip(nu, nw)]
            den = sw * du - su * dw
            g = math.gcd(den, *num)
            cut.append(([x // g for x in num], den // g, common | 1 << i))
    return [(num, den, mask | (s == 0) << i)
            for (num, den, mask), s in zip(verts, sides) if s <= 0] + cut


def _ordered(verts, n: int):
    """Vertices (numerators, denominator, tight rows) in lowest terms, and
    their tight rows, ordered by their tight rows' indices, which is the
    order of their least nonsingular k-subsets of tight rows: where two
    vertices' tight rows first differ, the lesser row is independent of
    those before it, as a combination of them would be tight at both.  The
    pulling triangulation's apexes, and so the rule's sums, depend on it."""
    verts = sorted(verts, key=lambda v: [i for i in range(n) if v[2] >> i & 1])
    return ([(tuple(x // g for x in num), den // g) for num, den, _ in verts
             for g in (math.gcd(den, *num),)], [mask for _, _, mask in verts])


def _eliminate(m: list) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows in place,
    every division exact (Bareiss 1968), skipping each column with no pivot
    left: (rank, last pivot).  Of k rows whose leading k x k block is
    nonsingular, that block ends as d times the identity, d the last pivot
    and the block's determinant up to sign."""
    rank, prev = 0, 1
    for j in range(len(m[0]) if m else 0):
        p = next((r for r in range(rank, len(m)) if m[r][j]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pivot = m[rank]
        for r, row in enumerate(m):
            if r != rank:
                f = row[j]
                m[r] = [(pivot[j] * x - f * y) // prev for x, y in zip(row, pivot)]
        prev = pivot[j]
        rank += 1
    return rank, prev


class _Faces:
    """Exact dimensions and pulling triangulations of the faces of one
    polytope, each face the bit mask of its vertices."""

    def __init__(self, verts, tight, rows: int):
        self.verts = verts
        # the vertices at which each row is tight
        self.rows = [sum(1 << v for v, t in enumerate(tight) if t >> r & 1) for r in range(rows)]
        self.dims: dict[int, int] = {}
        self.cones: dict[int, list] = {}

    def dim(self, face: int) -> int:
        """The dimension of the affine hull of the face's vertices."""
        out = self.dims.get(face)
        if out is None:
            (n0, d0), *rest = (v for i, v in enumerate(self.verts) if face >> i & 1)
            out = self.dims[face] = _eliminate([[x * d0 - y * d for x, y in zip(n, n0)]
                                                for n, d in rest])[0]
        return out

    def triangulate(self, face: int, d: int) -> list:
        """The simplices, as lists of d + 1 vertex numbers, of the pulling
        triangulation of a face of dimension d."""
        out = self.cones.get(face)
        if out is None:
            apex = face & -face
            if d == 0:
                return [[apex.bit_length() - 1]]
            out, facets = [], set()
            for row in self.rows:
                facet = face & row
                if not facet or facet & apex or facet == face or facet in facets:
                    continue
                facets.add(facet)
                if self.dim(facet) == d - 1:
                    out += [[apex.bit_length() - 1, *s] for s in self.triangulate(facet, d - 1)]
            self.cones[face] = out
        return out


def _det(verts, simplex) -> Fraction:
    """|det(v_1 - v_0, ..., v_k - v_0)| of a simplex's vertices, exactly."""
    (n0, d0), *rest = (verts[v] for v in simplex)
    m = [[x * d0 - y * d for x, y in zip(n, n0)] for n, d in rest]
    return Fraction(abs(_eliminate(m)[1]), math.prod(d * d0 for _, d in rest))


@functools.cache
def _jacobi(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights of n points on [0, 1] under the weight
    (1 - u)^alpha, mapped by u = (1 + x) / 2 from [-1, 1] and exponents
    (alpha, 0).  The nodes are the eigenvalues of the symmetric tridiagonal
    matrix of the Jacobi polynomials' recurrence (Golub & Welsch 1969),
    each bisected to the last bit on the count of negative pivots of
    J - x I (Sturm), and the weights the Christoffel numbers 1 / sum of the
    orthonormal polynomials' squares.  Only +, -, *, / and sqrt are used,
    which IEEE arithmetic rounds alike on every machine, unlike a LAPACK
    eigensolver, whose kernels add in an order of their own."""
    s = [2 * j + alpha for j in range(n)]
    diag = [-alpha / (alpha + 2)] + [-alpha * alpha / (x * (x + 2)) for x in s[1:]]
    off2 = [0.0] + [4 * (j * (j + alpha)) ** 2 / (x * x * (x + 1) * (x - 1))
                    for j, x in enumerate(s[1:], 1)]

    def below(x: float) -> int:  # the eigenvalues below x
        count, q = 0, 1.0
        for a, b2 in zip(diag, off2):
            q = a - x - b2 / q
            if abs(q) < TINY:
                q = -TINY
            count += q < 0
        return count

    nodes = []
    for rank in range(n):
        lo, hi = -1.0, 1.0
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (lo, mid) if below(mid) > rank else (mid, hi)
        nodes.append(mid)
    x, off = np.array(nodes), np.sqrt(off2)
    prev, p, total = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        prev, p = p, ((x - diag[j]) * p - off[j] * prev) / off[j + 1]
        total += p * p
    # mu_0 = 2**(alpha + 1) / (alpha + 1) on [-1, 1], and du = dx / 2
    return (1 + x) / 2, 1 / (total * (alpha + 1))


def _rule(corners, scales, wfn, n: int) -> float:
    """The conical product rule of n nodes per axis over every simplex:
    each simplex's corners v_0 .. v_k as rows, its scale mult |det|.  Point
    u of the unit cube maps to the barycentric weights u_0, (1 - u_0) u_1,
    ..., (1 - u_0) ... (1 - u_(k-1)) of the corners, where the map's
    Jacobian is |det| times the product of (1 - u_i)^(k - 1 - i).  Points
    and sums are added up in index order, not by BLAS, whose kernels add
    in an order of their own."""
    k = len(corners[0]) - 1
    nodes = [_jacobi(n, k - 1 - i) for i in range(k)]
    sums = [0.0] * len(corners)
    for start in range(0, n**k, BLOCK):
        flat = np.arange(start, min(start + BLOCK, n**k))
        bary = np.empty((k + 1, len(flat)))
        weight = np.ones(len(flat))
        left = np.ones(len(flat))
        for i, (u, w) in enumerate(nodes):
            digit = flat // n ** (k - 1 - i) % n
            bary[i] = left * u[digit]
            left *= 1 - u[digit]
            weight *= w[digit]
        bary[k] = left
        for s, v in enumerate(corners):
            x = v[0][:, None] * bary[0]
            for j in range(1, k + 1):
                x += v[j][:, None] * bary[j]
            sums[s] += float(np.cumsum(weight * wfn(x))[-1])
    total = 0.0
    for scale, part in zip(scales, sums):
        total += scale * part
    return total
