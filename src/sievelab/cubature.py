"""Deterministic integration over a region that is one convex polytope on
its sampling box: the path `quadrature.integrate` takes when the weight is
`one` or `reciprocal` and the region's residual on the sampling box is one
conjunction of comparisons.

- Rows.  The exact box test (`exact.BoxTest`) judges the program on the
  whole sampling box, deciding every `in`, `splits` and `not` it can.  When
  what it leaves undecided is one conjunction with no junction inside, its
  atoms are integer rows a . t <= b, strict or not, which does not matter
  for volume; any other residual is sampled.  To these rows are added the
  box's bounds, its floats taken as the dyadic rationals they are, and for
  a sorted integral t1 >= t2 >= ... >= tk.  A sorted integral
  is mult/k! times the integral over the box of the region's indicator and
  weight at the sorted point, which is mult times the integral over the
  region's points with t1 >= ... >= tk.  Of rows with one direction only
  the tightest is kept.
- Vertices.  Every k-subset of rows is tested for singularity and solved in
  floats, many at once; the subsets that are nonsingular and feasible
  within SLACK are solved again in integers, by fraction-free Gauss-Jordan
  elimination (Bareiss), checked against every row and kept once each as
  (numerators, denominator).  A subset whose rows are all tight at a vertex
  already found is not solved again.
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
Golub & Welsch 1969; Bareiss 1968.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from .exact import BoxTest
from .quadrature import _rest

SLACK = 1e-6  # feasibility slack of the float solutions, which are checked exactly after
# Row subsets a polytope may have, all solved in floats at once.  The
# catalog's polytopes have at most 3,003 (S237 and L73, 15 rows in 5
# dimensions).  54,264 subsets of 21 random rows in 6 dimensions took
# 0.18 s and raised the peak RSS by 30 MB; 53,130 in 5 dimensions took
# 0.16 s and 25 MB (2-core machine).
MAX_SUBSETS = 1 << 16
BLOCK = 1 << 14  # rule points evaluated together
TINY = sys.float_info.min  # a Sturm pivot nearer 0 is taken as -TINY


def integrate(spec, test: BoxTest, lo, hi, wfn, tol, rel_tol, budget):
    """(value, est_error, samples) of mult times the integral of the weight
    wfn (None for the unit weight) over the points in the box [lo, hi] of
    the region of the exact box test `test`, or None when the region's
    residual on the box is no conjunction, the polytope is not
    full-dimensional, its rows have more than MAX_SUBSETS k-subsets or are
    too large for the float singularity test to be exact, or the rules n = 2
    and n = 4 together need more than `budget` evaluations.

    A reciprocal weight raises SpecificationError when a vertex has a
    coordinate, or 1 - sum(t), below FLOOR_MIN: region points come
    arbitrarily close to every vertex, and a linear function's minimum over
    the polytope is at one."""
    k = spec.dim
    rows = _rows(test, lo, hi, spec.sorted)
    if rows is None or math.comb(len(rows), k) > MAX_SUBSETS:
        return None
    found = _vertices(rows, k)
    if found is None or not found[0]:
        return None
    verts, tight = found
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
    _rest(points.T)
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
    best = {}
    for a, b in given:
        g = math.gcd(*a)
        a, b = tuple(x // g for x in a), Fraction(b, g)
        if a not in best or b < best[a]:
            best[a] = b
    return sorted(best.items())


def _vertices(rows, k):
    """The polytope's vertices, each (numerators, denominator) in lowest
    terms with a positive denominator, and the bit mask of the rows tight at
    each; or None when the rows are too large for the float singularity
    test to be exact."""
    a = np.array([r[0] for r in rows], dtype=float)
    b = np.array([float(r[1]) for r in rows])
    # A k-subset of primitive integer directions is singular exactly when
    # its integer determinant is 0, else it is at least 1 in size.  The
    # float determinant errs by less than 1/4 while Hadamard's bound, the
    # product of the k longest row lengths, times k 2**(k-52) (LU with
    # partial pivoting grows entries by at most 2**(k-1)) stays below 1/4.
    norms = np.sort(np.linalg.norm(a, axis=1))[::-1]
    if float(np.prod(norms[:k])) * k * 2.0 ** (k - 52) >= 0.25:
        return None
    ints = [(r[0], r[1].numerator, r[1].denominator) for r in rows]
    verts, tight, seen = [], [], set()
    idx = np.array(list(itertools.combinations(range(len(rows)), k)), dtype=np.intp)
    idx = idx.reshape(-1, k)
    m = a[idx]
    keep = np.abs(np.linalg.det(m)) > 0.5
    idx, m = idx[keep], m[keep]
    x = np.linalg.solve(m, b[idx][..., None])[..., 0]
    feasible = (x @ a.T <= b + SLACK).all(axis=1)
    for subset in idx[feasible].tolist():
        mask = sum(1 << i for i in subset)
        if any(t & mask == mask for t in tight):
            continue
        v = _solve([ints[i] for i in subset])
        if v in seen:
            continue
        seen.add(v)
        t = _tight(v, ints)
        if t is not None:
            verts.append(v)
            tight.append(t)
    return verts, tight


def _solve(rows):
    """The solution of the rows' equations a . t = p / q as (numerators,
    denominator).  The rows are nonsingular."""
    den = math.lcm(*(q for _, _, q in rows))
    m = [[x * den for x in a] + [p * (den // q)] for a, p, q in rows]
    _, d = _eliminate(m)
    num = [row[-1] for row in m]
    g = math.gcd(d, *num) * (1 if d > 0 else -1)
    return tuple(x // g for x in num), d // g


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


def _tight(v, ints):
    """The bit mask of the rows tight at v, or None when v breaks one."""
    num, d = v
    mask = 0
    for i, (a, p, q) in enumerate(ints):
        lhs, rhs = q * sum(x * y for x, y in zip(a, num)), p * d
        if lhs > rhs:
            return None
        if lhs == rhs:
            mask |= 1 << i
    return mask


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
