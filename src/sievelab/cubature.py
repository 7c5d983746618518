"""Deterministic integration over a region that is one convex polytope on
its sampling box: the path `quadrature.integrate` takes when the weight is
`one` or `reciprocal` and the region's residual on the sampling box is one
conjunction of comparisons.

- Rows.  The exact box test (`exact.BoxTest`) judges the program on the
  whole sampling box, deciding every `in`, `splits` and `not` it can.  When
  what it leaves undecided is one conjunction with no junction inside, its
  atoms are integer rows a . t <= b, strict or not, which does not matter
  for volume; any other residual is sampled.  To these rows are added the
  box's bounds, in integers over a power of two as its floats are dyadic,
  and for a sorted integral t1 >= t2 >= ... >= tk.  A sorted integral
  is mult/k! times the integral over the box of the region's indicator and
  weight at the sorted point, which is mult times the integral over the
  region's points with t1 >= ... >= tk.  Of rows with one direction only
  the tightest is kept, by cross-multiplying; only its b becomes a Fraction.
- Vertices.  Exact double description, in integers: the box's corners,
  over one denominator, are cut by every other row in index order, each cut
  keeping the vertices on its side and adding one where it crosses an edge,
  the edges found by their common tight rows alone.  Each vertex is kept as
  (numerators, denominator) with the rows tight at it.
- Triangulation.  Pulling: a face is triangulated by coning its
  lowest-numbered vertex over each of its facets that misses that vertex,
  triangulated the same way.  The facets of a face F are the sets F ∩
  tight(row) of dimension dim F - 1.  Tight sets and dimensions are exact.
- The rule.  Weight `one` gives the exact volume, the sum of |det| / k!
  over the simplices.  Weight `reciprocal` takes Stroud's conical product
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

import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from .exact import BoxTest

# The route's cap on a polytope's k-subsets of rows; past it the integral is
# sampled.  The catalog's polytopes have at most 3,003 (S237 and L73, 15
# rows in 5 dimensions).  U234's residual at theta = 0.52 has 53 rows in 6
# dimensions, 2.3e7 subsets: its double description takes about 50 ms to
# find one vertex (2-core machine), and the sampler proves it empty.
MAX_SUBSETS = 1 << 16
BLOCK = 1 << 14  # rule points evaluated together
TINY = sys.float_info.min  # a Sturm pivot nearer 0 is taken as -TINY


def integrate(spec, test: BoxTest, lo, hi, wfn, tol, rel_tol, budget):
    """(value, est_error, samples) of mult times the integral of the weight
    wfn (None for the unit weight) over the points in the box [lo, hi] of
    the region of the exact box test `test`, or None when the region's
    residual on the box is no conjunction, the polytope is not
    full-dimensional, its rows have more than MAX_SUBSETS k-subsets, or the
    rules n = 2 and n = 4 together need more than `budget` evaluations.

    A reciprocal weight raises SpecificationError when a vertex has a
    coordinate, or 1 - sum(t), below FLOOR_MIN: region points come
    arbitrarily close to every vertex, and a linear function's minimum over
    the polytope is at one."""
    k = spec.dim
    rows = _rows(test, lo, hi, spec.sorted)
    if rows is None or math.comb(len(rows), k) > MAX_SUBSETS:
        return None
    verts, tight = _vertices(rows, k)
    if not verts:
        return None
    faces = _Faces(verts, tight, len(rows))
    everything = (1 << len(verts)) - 1
    if faces.dim(everything) < k:
        return None
    simplices = faces.triangulate(everything, k)
    dets = [_det(verts, s) for s in simplices]
    mult = spec.mult
    if wfn is None:
        return float(mult * sum(dets, Fraction(0)) / math.factorial(k)), 0.0, 0
    points = np.array([[x / d for x in num] for num, d in verts])
    wfn(points.T)  # the weight raises SpecificationError at a vertex below its floors
    cost = len(simplices) * (2**k + 4**k)
    if cost > budget:
        return None
    corners = [points[s] for s in simplices]
    scales = [float(mult * d) for d in dets]
    prev, n = _rule(corners, scales, wfn, 2), 4
    while True:
        value = _rule(corners, scales, wfn, n)
        err = abs(value - prev)
        target = tol if rel_tol is None else max(tol, rel_tol * abs(value))
        step = len(simplices) * (n + 2) ** k
        if err <= target or cost + step > budget:
            return value, err, cost
        prev, n, cost = value, n + 2, cost + step


def _rows(test: BoxTest, lo, hi, descending: bool):
    """The polytope's rows (a, b), a . t <= b with a primitive integer
    direction a and a rational b, the tightest of each direction, sorted; or
    None when the box test finds no point in the box, or leaves a residual
    that is a disjunction or a conjunction holding one."""
    f = test.residual(lo, hi)
    if f is False:
        return None
    atoms = () if f is True else f[1] if f[0] == "and" else (f,)
    if any(isinstance(g[0], str) for g in atoms):  # a junction, not a row
        return None
    given = [(a, b) for a, b, _ in (*test.box_rows(), *atoms)]
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
    return sorted((a, Fraction(b, g)) for a, (b, g) in best.items())


def _vertices(rows, k):
    """The polytope's vertices, each (numerators, denominator) in lowest
    terms with a positive denominator, and the bit mask of the rows tight at
    each; or [], [] when the box rows leave some axis no width.  Exact
    double description (Motzkin et al. 1953): the box's corners, cut by
    every other row in index order.  A cut keeps the vertices on its side
    and adds a vertex on each edge it crosses; the edges are the pairs whose
    common tight rows lie in no third vertex's (Fukuda & Prodon 1996).

    The vertices are ordered by their tight rows' indices, which is the
    order of their least nonsingular k-subsets of tight rows: where two
    vertices' tight rows first differ, the lesser row is independent of
    those before it, as a combination of them would be tight at both.  The
    pulling triangulation's apexes, and so the rule's sums, depend on it."""
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
    for i, (a, _) in enumerate(rows):
        if boxed >> i & 1:
            continue
        bn, bd = bs[i]
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
        verts = [(num, den, mask | (s == 0) << i)
                 for (num, den, mask), s in zip(verts, sides) if s <= 0] + cut
    verts.sort(key=lambda v: [i for i in range(len(rows)) if v[2] >> i & 1])
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
