"""Loss-integral evaluation.  `integrate` takes an integral under the
weight `one` or `reciprocal` by deterministic cubature (`cubature`,
imported only for these weights), with the flag ``cubature``: the region's
residual on the sampling box, an and/or formula of comparisons, is split
into convex cells on its own rows, one cell when it is a conjunction, and
the cells where it holds are integrated as polytopes.  Where that residual
is False the result is ``empty-region`` with no sample.  Every other
integral, Buchstab-weighted ones among them, and one that splits into more
than `cubature.MAX_CELLS` cells, keeps no full-dimensional cell, has too
many rows or needs Gauss rules past the budget, it hands to `sampled`:
stratified, replicated quasi-random sampling with indicator rejection over
region bounding boxes, described below.

Estimates are deterministic for a fixed seed: every (stratum, replicate)
pair owns a scrambled Sobol stream drawn from the seed, rounds refine
allocation by stratum spread, and results are reduced in fixed stratum
order.  The error estimate is the spread of the replicate totals.

One bisection, _bisect, serves both questions a three-valued box test
answers here; it takes the test as a function of a box.  It works on a grid
over the sampling box: the whole box is tested first, breadth first, and an
undecided box is halved at the grid's edges until each box is judged empty
(dropped), judged full or one cell wide (kept).  Both tests come from the
integral's one exact box test (`exact.BoxTest`), which `_setup` builds.

- The strata are the kept cells of the sampling grid under the float box
  test, its `bound.decide`, bound to the parameters once for all of them
  (`regions.definitely` is its public entry point for one box), numbered
  in grid order; a stratum's number picks its streams' scrambles.
  Float interval evaluation is monotone under inclusion, so the kept cells
  are exactly the cells a per-cell test keeps.  If none is kept, every
  cell is a stratum unless the proof below closes first.
- An integral whose first round has no hit tries to prove its region empty
  before it samples on, by the same bisection on a grid of 2**52 cells per
  axis, which no box gets down to, driven by the exact box test itself:
  the atoms a box leaves undecided, as integer rows,
  refuted together with the box's bounds by a Motzkin certificate.  If no
  box is kept within PROOF_CALLS tests, the result is a proved
  ``empty-region``; otherwise sampling carries on untouched.  Sorted
  integrals take the same proof: their points are sorted copies of points
  of a box with identical bounds, so they never leave it.

The streams are generated here, all of one integral as arrays: each is an
LMS+shift scrambled Sobol sequence with its own random shift and matrices,
over the direction numbers computed here by the Joe-Kuo recurrence for up
to MAX_DIM = 24 dimensions.  Every scramble of an integral comes from one
draw of ``np.random.default_rng(seed)``, in which stream stratum *
REPLICATES + replicate takes its own run of words, so its scramble depends
only on the seed and that number.

A stream is drawn in order and continues from its last point, which it
keeps: in Gray-code order each point is the one before XOR one scrambled
direction number.  One round draws every stream and evaluates the region
and the weight over blocks of many streams' points.  It takes the streams
in order of the number of points each draws, so that the streams of one
length lie together in a block: their sums are row sums of the block's
values reshaped to (streams, length).  A block is coordinate-major, one row
per coordinate, so each stream's run of points is mapped into its cell by
broadcasting the cell's bounds along it, and the region's program reads the
block without copying it.  A stream's sums are taken over its own values in
its own order, so neither the blocks nor their order change a result.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import buchstab
from .catalog import DEFAULT_BUDGET, DEFAULT_SEED, NAMED, Catalog, IntegralDef, default_catalog
from .exact import BoxTest
from .params import ThetaParams
from .regions import RegionError

__all__ = [
    "QuadratureResult",
    "SpecificationError",
    "integrate",
    "named_integral",
    "eval_L7",
    "DEFAULT_SEED",
    "DEFAULT_BUDGET",
]

REPLICATES = 4
FIRST_ROUND = 1 << 14  # per-round totals double from here up to the budget
MIN_BATCH = 16
MIN_SAMPLES = 1 << 18  # tolerance may only stop the refinement beyond this
FLOOR_MIN = 1e-4  # smallest admissible denominator floor for singular weights
# Box tests the emptiness proof may make.  Over 392 parameter points (I1-I4,
# U233 and U234 at 60 theta in [0.5, 4/7), I5 and I6 at four points, L71-L73
# at eight kappa in (1/13, 1/8]) the proof closes 237 regions: 229 within 8
# tests, the slowest three, I4 at theta = 0.5155, 0.5167 and 0.5179, in 81,
# 81 and 97.  A cap of 64 leaves those three open; 128, 256 and 1,024 close
# all 237.  At theta = 0.52 I1 closes in 9 tests, and I2 and U234 in one,
# the whole box: near t = (1/7, ..., 1/7) U234's certificate sums its rows
# to 0 < 0 through the strict bound 2*t1 + t2 + ... + t6 < 1.  I4 at 0.52
# spends all 128 (about 75 ms on a 2-core machine): its region holds a null
# segment, which no box test can drop.
PROOF_CALLS = 128
# Cells per axis of the proof's grid: every edge index i and i / 2**52 is
# exact in float64, and PROOF_CALLS tests never halve a box down to a cell.
PROOF_BINS = 1 << 52
# Points drawn and evaluated together.  Twice as many ran no faster and held
# about 1 MB more (I3, I5, I6, U233, cal2-cal6): a block's points and their
# copies grow with the rows, while a `splits` holds at most regions.BLOCK_PAIRS
# subset sums at a time, whatever the rows.
BLOCK_ROWS = 1 << 14


class SpecificationError(RegionError):
    """Integral specification rejected (unbounded box, unbounded integrand)."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    samples: int
    seed: int
    flag: str = ""

    def __float__(self) -> float:
        return self.value


def _params_dict(params) -> dict[str, float]:
    if isinstance(params, ThetaParams):
        return params.values()
    return dict(params)


def stop_target(tol: float, rel_tol: float | None, value: float) -> float:
    """The error an estimate of value stops at: tol, or rel_tol times |value|
    where rel_tol is given and that is larger."""
    return tol if rel_tol is None else max(tol, rel_tol * abs(value))


def rowwise(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc over each point of a (k, n) array, k >= 1, folded over whole
    rows in index order from the ufunc's identity: a sum adds left to
    right, as tsum does, where numpy's reduction adds eight or more terms
    pairwise."""
    acc = ufunc(ufunc.identity, x[0])
    for row in x[1:]:
        ufunc(acc, row, out=acc)
    return acc


def _rest(x: np.ndarray) -> np.ndarray:
    """1 - sum(t) for each region point t, a column of x, of a singular
    weight; raises unless every coordinate and 1 - sum(t) is at least
    FLOOR_MIN."""
    rest = 1.0 - rowwise(np.add, x)
    if x.min() < FLOOR_MIN or rest.min() < FLOOR_MIN:
        raise SpecificationError("integrand unbounded: a region point has a coordinate or "
                                 f"1 - sum(t) below {FLOOR_MIN}")
    return rest


def _weight_fn(kind: str, vals: dict[str, float]):
    """The weight of the region's points, or None for the unit weight."""
    if kind == "one":
        return None
    if kind == "reciprocal":

        def recip(x):
            return 1.0 / (rowwise(np.multiply, x) * _rest(x))

        return recip
    if kind == "buchstab":
        if "kappa" not in vals:
            raise SpecificationError("buchstab weight needs a kappa value")
        kap = vals["kappa"]
        omega_eval = buchstab.default_table().omega_many

        def buch(x):
            u = np.clip(_rest(x) / kap, 1.0, None)
            return omega_eval(u) / (kap * rowwise(np.multiply, x))

        return buch
    raise SpecificationError(f"unknown weight kind {kind!r}")


def _descending(x: np.ndarray) -> np.ndarray:
    """The points of a (k, n) x, its columns, sorted in descending order into
    one new (k, n) array, by a sorting network of np.maximum / np.minimum
    exchanges between rows (insertion order, k(k-1)/2 exchanges): on 16,384
    points of 2 to 6 coordinates it took 25 to 250 us against 0.8 to 1 ms
    for np.sort along axis 0 (2-core machine).  On finite coordinates of at
    least +0.0, as sampled points are, it returns the values of
    -np.sort(-x, axis=0)."""
    out = x.copy()
    spare = np.empty(x.shape[1])
    for i in range(1, len(out)):
        for j in range(i, 0, -1):
            a, b = out[j - 1], out[j]
            np.minimum(a, b, out=spare)
            np.maximum(a, b, out=a)
            b[...] = spare
    return out


# Sobol points are 30-bit binary fractions, as in qmc.Sobol's default engine.
SOBOL_BITS = 30
_LSB = np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32)  # bit k -> 2^k
_MSB = _LSB[::-1].copy()  # binary digit p after the point -> 2^(29-p)


# Primitive polynomials and initial direction numbers m_0 .. m_{s-1} of
# dimensions 1-24 (Joe & Kuo 2008, the table of qmc.Sobol): a
# polynomial's bits are its coefficients, leading and constant terms included,
# and its degree s is the number of initial numbers.  Dimension 1 is van der
# Corput's sequence, every m_j = 1.
_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115,
         131, 137, 143, 145, 157)
_VINIT = (
    (), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53),
    (1, 3, 1, 13, 9, 35, 107),
)
MAX_DIM = len(_POLY)


@functools.cache
def _directions(dim: int) -> np.ndarray:
    """Unscrambled direction numbers v_0 .. v_29 of qmc.Sobol's sequence,
    shape (SOBOL_BITS, dim).

    Bratley & Fox's recurrence: with the polynomial's bits a_1 .. a_{s-1}
    between its leading and constant terms, m_j = 2 a_1 m_{j-1} ^ 4 a_2
    m_{j-2} ^ ... ^ 2^s m_{j-s} ^ m_{j-s}, and v_j = m_j 2^(29-j).
    """
    v = np.ones((SOBOL_BITS, dim), dtype=np.uint32)
    for d in range(1, dim):
        poly, m = _POLY[d], list(_VINIT[d])
        s = len(m)
        for j in range(s, SOBOL_BITS):
            new = m[j - s]
            for k in range(1, s + 1):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[:, d] = m
    return v * _MSB[:, None]


class _Streams:
    """Scrambled Sobol streams held as arrays, with the running sums of the
    integrand over each stream's points.

    Each stream scrambles the direction numbers of `_directions` by a
    random digital shift and one random unit lower-triangular bit matrix per
    dimension (LMS+shift; Owen 1995, Matousek 1998).  All n streams' bits
    come from one draw of ``np.random.default_rng(seed)``, ``integers(0,
    2**30, (n, dim, SOBOL_BITS + 1), dtype=uint32)``: per stream and
    dimension, entry 0 is the shift, and entry k + 1, cut to the bits below
    k with bit k set, is column k, the matrix's image of bit k.  Each of
    these integers takes one 32-bit word of the generator, in order, so
    stream q's bits depend only on (seed, q).

    Point i is the shift XORed with the scrambled direction numbers of the
    set bits of i's Gray code, so it is point i - 1 XOR the one of i's
    lowest set bit (Gray codes of neighbours differ there).  Each stream
    keeps its last point, `last`, and `n`, the points it has drawn; a draw
    continues from them.
    """

    def __init__(self, dim: int, n: int, seed: int):
        self.dim = dim
        # one shift word and SOBOL_BITS column words per stream and dimension
        draw = np.random.default_rng(seed).integers(
            0, 1 << SOBOL_BITS, (n, dim, SOBOL_BITS + 1), dtype=np.uint32)
        self.shift = draw[..., 0]
        # columns[q, j, k]: the scrambling matrix's image of bit k, bit k
        # itself plus random bits below it.  Made in place in the draw: a
        # copy raised the peak RSS of the quad-affine benchmark by about 1 MB.
        self.columns = draw[..., 1:]
        self.columns &= _LSB - 1
        self.columns |= _LSB
        # scrambled[b, q]: stream q's direction number b.  Bit-major, so
        # that the zero pages of the bits no stream reaches are never written.
        self.scrambled = np.zeros((SOBOL_BITS, n, dim), dtype=np.uint32)
        self.bits = 0  # leading bits of `scrambled` filled so far
        self.last = self.shift.copy()  # each stream's last point drawn
        self.n = np.zeros(n, dtype=np.int64)  # points drawn
        self.total = np.zeros(n)
        self.total_sq = np.zeros(n)
        self.hits = np.zeros(n, dtype=np.int64)

    def mean(self) -> np.ndarray:
        return np.divide(self.total, self.n, out=np.zeros(len(self.n)), where=self.n > 0)

    def var(self) -> np.ndarray:
        sq = np.divide(self.total_sq, self.n, out=np.zeros(len(self.n)), where=self.n > 1)
        mean = self.mean()
        return np.where(self.n > 1, np.maximum(sq - mean * mean, 0.0), 0.0)

    def _reserve(self, bits: int) -> None:
        if bits > SOBOL_BITS:
            raise ValueError(f"a Sobol stream holds at most 2**{SOBOL_BITS} points")
        if bits <= self.bits:
            return
        # Only the bits a stream has reached are scrambled, each by the XOR of
        # the columns of v_b's set bits (at most b + 1): for cal2's 8,320
        # streams about 4.5 ms against 13 ms for all 30 columns masked (2 cores).
        v = _directions(self.dim).tolist()
        for b in range(self.bits, bits):
            for d, w in enumerate(v[b]):
                acc = self.scrambled[b, :, d]
                for k in range(SOBOL_BITS):
                    if w >> k & 1:
                        acc ^= self.columns[:, d, k]
        self.bits = bits

    def points(self, sid: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next `count` points of each stream sid (count >= 1),
        coordinate-major, shape (dim, len(sid), count), as floats in [0, 1),
        written into out when it is given.  Each stream continues from its
        last point; its first point, point 0, is its shift."""
        start = self.n[sid]
        self._reserve(int(start.max() + count - 1).bit_length())
        # Row b * n + q of `scrambled` is stream q's direction number b, and
        # i's lowest set bit is one less than the number of bits set in
        # i ^ (i - 1).  Indices are below 2**30: int32 holds them, and halves
        # the memory these passes read.
        n = np.int64(len(self.n))
        index = start.astype(np.int32)[:, None] + np.arange(count, dtype=np.int32)
        rows = (sid - n)[:, None] + n * np.bitwise_count(index ^ (index - 1))
        pts = self.scrambled.reshape(-1, self.dim).take(rows, axis=0)
        first = pts[:, 0]
        first[start == 0] = 0  # point 0 is `last` as set up, the shift
        first ^= self.last[sid]
        # One running XOR over all the streams' rows, then the running XOR
        # up to the stream before taken off each stream, down the rows: along
        # a coordinate-major last axis it took 2.5 to 5 times as long.
        flat = pts.reshape(-1, self.dim)
        np.bitwise_xor.accumulate(flat, axis=0, out=flat)
        flat[count:] ^= np.repeat(pts[:-1, -1], count, axis=0)
        self.last[sid] = pts[:, -1]
        self.n[sid] += count
        return np.multiply(pts.transpose(2, 0, 1), 1.0 / (1 << SOBOL_BITS), out=out)

    def run(self, count: np.ndarray, sample) -> None:
        """Draw count[q] further points of every stream q and add them to its
        sums.

        The streams are taken in stable order of their counts and sampled
        together in blocks of at most BLOCK_ROWS rows, a longer stream alone
        in pieces of BLOCK_ROWS.  A block x is coordinate-major, shape (dim,
        rows), a point per column, and a list of groups, each of streams sid
        that draw one length of points: u, shape (dim, len(sid), length),
        holds them stream after stream, a view of x's columns.
        sample(x, groups), groups the (sid, u) pairs, returns the integrand
        values and the region indicator of the points of x, and may
        overwrite x.  A group's sums are the row sums of its
        values as a (len(sid), length) array, each the pairwise sum
        g[a:b].sum() takes over one stream's whole run of values, so they
        depend neither on the blocks nor on their order.
        """
        live = np.flatnonzero(count)
        live = live[np.argsort(count[live], kind="stable")]
        ends = np.cumsum(count[live])  # rows up to the end of each stream
        first = 0
        while first < len(live):
            # the streams from the first on that end within BLOCK_ROWS rows
            # of its start, or the first alone
            limit = ends[first] - count[live[first]] + BLOCK_ROWS
            last = max(first + 1, int(np.searchsorted(ends, limit, side="right")))
            sid, first = live[first:last], last
            m = count[sid]
            if len(sid) == 1 and m[0] > BLOCK_ROWS:
                cuts = range(0, int(m[0]), BLOCK_ROWS)
                parts = [self._sample(sample, [(sid, min(int(m[0]) - a, BLOCK_ROWS))])
                         for a in cuts]
                g, inside = (np.concatenate(p) for p in zip(*parts))
                groups = [(sid, int(m[0]))]
            else:
                bounds = [0, *(np.flatnonzero(np.diff(m)) + 1).tolist(), len(sid)]
                groups = [(sid[a:b], int(m[a])) for a, b in itertools.pairwise(bounds)]
                g, inside = self._sample(sample, groups)
            g_sq = g * g
            a = 0
            for q, length in groups:
                rows = slice(a, a + len(q) * length)
                a = rows.stop
                self.total[q] += g[rows].reshape(-1, length).sum(axis=1)
                self.total_sq[q] += g_sq[rows].reshape(-1, length).sum(axis=1)
                self.hits[q] += np.count_nonzero(inside[rows].reshape(-1, length), axis=1)

    def _sample(self, sample, groups):
        """sample() of the next points of each group's streams, drawn into
        one block."""
        x = np.empty((self.dim, sum(len(q) * length for q, length in groups)))
        views, a = [], 0
        for q, length in groups:
            u = x[:, a : a + len(q) * length].reshape(self.dim, len(q), length)
            a += len(q) * length
            views.append((q, self.points(q, length, out=u)))
        return sample(x, views)


def _bisect(test, lo: np.ndarray, hi: np.ndarray, bins: int, calls=math.inf):
    """Yield the boxes of a grid over [lo, hi] with `bins` cells per axis
    that the box test does not judge empty, as cell index ranges (a, b):
    cells a[i] .. b[i] - 1 along axis i, whose edges are lo + (hi - lo) *
    edge / bins.

    test(box_lo, box_hi) judges a box True (inside the region), False
    (outside) or None (undecided).  Boxes are tested breadth first, the
    whole box first.  A box judged empty is dropped, and one judged full or
    one cell wide is kept; any other is halved along every axis wider than
    one cell.  A test monotone under inclusion, as float interval
    evaluation is (every bound, group and subset sum only narrows on a
    sub-box), gives a verdict on a box that is the verdict on each of its
    cells, so the cells of the kept boxes are exactly those the per-cell
    test keeps.  Once `calls` boxes have been tested, each box not yet
    tested is yielded untested, as kept.
    """
    lo, hi = lo.tolist(), hi.tolist()
    axes = range(len(lo))

    def corner(edge):  # the same floats as the rows of integrate's `edges`
        return [lo[i] + (hi[i] - lo[i]) * edge[i] / bins for i in axes]

    # The whole box, then the halves of each undecided box, made only when
    # reached: a list iterator sees what is appended while it runs.
    boxes = [[((0,) * len(lo), (bins,) * len(lo))]]
    for a, b in itertools.chain.from_iterable(boxes):
        if calls == 0:
            yield a, b
            continue
        calls -= 1
        verdict = test(corner(a), corner(b))
        if verdict is False:
            continue
        if verdict or all(b[i] - a[i] == 1 for i in axes):
            yield a, b
            continue
        mid = [(a[i] + b[i]) // 2 for i in axes]
        halves = [((a[i], b[i]),) if b[i] - a[i] == 1 else ((a[i], mid[i]), (mid[i], b[i]))
                  for i in axes]
        boxes.append(tuple(zip(*part)) for part in itertools.product(*halves))


def _proved_empty(test: BoxTest, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether no point of [lo, hi] lies in the region of the exact box
    test: the bisection on the proof's grid, driven by it, drops every box
    within PROOF_CALLS tests.  It stops at the first box it keeps."""
    return next(_bisect(test, lo, hi, PROOF_BINS, PROOF_CALLS), None) is None


def _setup(spec: IntegralDef, params, tol: float, seed: int, rel_tol: float | None,
           cat: Catalog | None):
    """The checks an integral passes before any work, in order; then its
    catalog, region, parameter values, sampling box (lo, hi) and exact box
    test, both None when the box is empty."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if rel_tol is not None and math.isnan(rel_tol):
        raise ValueError("rel_tol must not be NaN")
    if seed < 0:  # rejected before any work, with default_rng's message
        raise ValueError("expected non-negative integer")
    cat = cat or default_catalog()
    region = cat.region(spec.region)
    vals = _params_dict(params)
    k = spec.dim
    if k > MAX_DIM:
        raise SpecificationError(f"integral {spec.name}: {k} dimensions, at most {MAX_DIM} allowed")

    lo, hi = region.box(vals, k)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise SpecificationError(f"region {region.name} has a non-finite bounding box")
    if (hi <= lo).any():
        return cat, region, vals, None, None
    if spec.sorted and (np.ptp(lo) > 1e-15 or np.ptp(hi) > 1e-15):
        # sorting is measure-preserving only over an exchangeable box
        raise SpecificationError(f"sorted integral {spec.name} needs identical bounds")
    return cat, region, vals, (lo, hi), BoxTest(region, k, vals, cat)


def integrate(
    spec: IntegralDef,
    params,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    rel_tol: float | None = None,
    cat: Catalog | None = None,
) -> QuadratureResult:
    """Multiplier * integral of the weight over the region: by cubature
    over the cells of its residual on the sampling box where the weight is
    `one` or `reciprocal`, else by `sampled`.

    The residual is the exact box test's verdict on the whole sampling box,
    every `in`, `splits` and `not` it decides folded away: an and/or
    formula of comparisons.  That box test is `_setup`'s, which the strata
    and proof of a sampled integral read too.  Under those two weights,
    where the residual is False the region holds no point of the box, and
    the result is 0 with est_error 0, samples 0 and the flag
    "empty-region".  Otherwise the cubature (`cubature.integrate`) splits the box into convex cells on the
    residual's rows and integrates the full-dimensional cells where it
    holds; it declines past `cubature.MAX_CELLS` cells or when no such cell
    is left, and the integral is sampled.  Its result has the flag
    "cubature" and the seed it was given, which it does not use; samples
    counts integrand evaluations.  For the unit weight the value is the
    exact volume, rounded once, with est_error 0 and samples 0.  For the
    reciprocal weight, samples counts the evaluations of the Gauss rules
    run, never more than the budget, and est_error is the difference of
    the last two rules, which stop once it reaches tol (or rel_tol
    relative, as in `sampled`) or the next rule would pass the budget;
    where even the first two rules would pass it, the integral is sampled.
    A reciprocal weight raises SpecificationError when a region point has a
    coordinate, or 1 - sum(t), below FLOOR_MIN.  Every error `sampled`
    raises for bad arguments or a bad box is raised first.
    """
    cat, region, vals, box, test = _setup(spec, params, tol, seed, rel_tol, cat)
    if box is not None and spec.weight in ("one", "reciprocal"):
        from . import cubature

        out = cubature.integrate(spec, test, *box, _weight_fn(spec.weight, vals), tol, rel_tol,
                                 budget)
        if out is False:  # the residual on the whole sampling box is False
            return QuadratureResult(0.0, 0.0, 0, seed, flag="empty-region")
        if out is not None:
            return QuadratureResult(*out, seed, flag="cubature")
    return _sample(spec, cat, region, vals, box, test, tol, seed, budget, rel_tol)


def sampled(
    spec: IntegralDef,
    params,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    rel_tol: float | None = None,
    cat: Catalog | None = None,
) -> QuadratureResult:
    """Estimate multiplier * integral of the weight over the region by
    sampling.

    Sampling stops once the replicate-spread error estimate reaches tol
    (absolute, or rel_tol relative when given) or the budget is exhausted.
    The budget caps the samples, and the region sees no other points.  A
    reciprocal- or Buchstab-weighted integral raises SpecificationError
    when a sampled region point has a coordinate, or 1 - sum(t), below
    FLOOR_MIN.

    When the float strata keep no cell, or the first round finds no region
    point, _bisect bisects the box with the exact box test for up to
    PROOF_CALLS tests.  If it proves the region empty, the result is 0 with
    est_error 0, the samples drawn so far and the flag "empty-region".
    Otherwise sampling goes on as if the proof had not run, over every cell
    where none was kept, and a run without hits ends in "no-hits".
    """
    cat, region, vals, box, test = _setup(spec, params, tol, seed, rel_tol, cat)
    return _sample(spec, cat, region, vals, box, test, tol, seed, budget, rel_tol)


def _sample(spec: IntegralDef, cat: Catalog, region, vals: dict[str, float], box, test,
            tol: float, seed: int, budget: int, rel_tol: float | None) -> QuadratureResult:
    """`sampled` after `_setup`, which gave cat, region, vals, box and test."""
    if box is None:
        return QuadratureResult(0.0, 0.0, 0, seed, flag="empty-box")
    lo, hi = box
    k = spec.dim
    vol = float(np.prod(hi - lo))
    wfn = _weight_fn(spec.weight, vals)
    scale = float(spec.mult) / (math.factorial(k) if spec.sorted else 1.0)

    # Grid resolution: sorted integrals remix cells under the sorting map
    # and region indicators with partition predicates are costly per cell,
    # so both stay at the plain 2-way split.  Unit-weight (calibration)
    # indicators are cheap and benefit from a fine grid once interval
    # arithmetic prunes the provably dead cells.
    if spec.sorted or spec.weight != "one":
        bins = 2
    else:
        bins = max(2, int(round((4096.0) ** (1.0 / k))))
    n_cells = bins**k
    edges = np.array([lo + (hi - lo) * i / bins for i in range(bins + 1)])
    cells = np.arange(n_cells)
    if not spec.sorted:
        live = np.zeros((bins,) * k, dtype=bool)  # grid axis i is array axis k - 1 - i
        for a, b in _bisect(test.bound.decide, lo, hi, bins):
            live[tuple(slice(a[i], b[i]) for i in reversed(range(k)))] = True
        if live.any():
            cells = np.flatnonzero(live)
        elif _proved_empty(test, lo, hi):  # float bounds are rounded: only this is a proof
            return QuadratureResult(0.0, 0.0, 0, seed, flag="empty-region")
    n_strata = len(cells)
    if budget < REPLICATES * n_strata:
        # the budget is a hard cap, and every live stratum needs a point
        raise SpecificationError(
            f"budget {budget} is below one point per stratum and replicate "
            f"({REPLICATES * n_strata} for {n_strata} strata of {region.name})"
        )

    streams = _Streams(k, REPLICATES * n_strata, seed)
    # cell s has digit s // bins**i % bins along axis i; box_lo is (k, strata)
    digits = cells // bins ** np.arange(k)[:, None] % bins
    box_lo = np.take_along_axis(edges.T, digits, axis=1)
    box_width = np.take_along_axis(edges.T, digits + 1, axis=1) - box_lo
    frac = 1.0 / n_cells  # equal cell volumes
    total_n = 0
    round_total = FIRST_ROUND
    first = True
    value = 0.0
    err = float("inf")

    def sample(x: np.ndarray, groups):
        # each stream's points into its stratum's cell, in place: the
        # points are not used again.  A cell bound is broadcast along the
        # stream's run of points, numpy's contiguous inner loop.
        for sid, u in groups:
            stratum = sid // REPLICATES
            u *= box_width[:, stratum, None]
            u += box_lo[:, stratum, None]
        if spec.sorted:
            x = _descending(x)
        # x.T is (rows, k); its own transpose, the block, is not copied again
        inside = region.eval(x.T, vals, cat)
        if wfn is None:
            return inside.astype(float), inside
        g = np.zeros(x.shape[1])
        if inside.any():
            g[inside] = wfn(x[:, inside])
        return g, inside

    while True:
        # Allocation: half proportional and half by stratum spread, equal
        # while no stratum has spread (the first round: nothing is drawn
        # yet).  The proportional floor keeps rarely-hit strata sampled; a
        # pure spread rule starves any stratum whose hits are missed early
        # and biases the total low.  Replicate variances are summed one
        # replicate after another.
        spread = sum(streams.var().reshape(n_strata, REPLICATES).T)
        sigma = np.sqrt(np.maximum(spread / REPLICATES, 0.0))
        if sigma.sum() > 0:
            weights = 0.5 / n_strata + 0.5 * sigma / sigma.sum()
        else:
            weights = np.ones(n_strata) / n_strata
        # Per-replicate batches: the weighted share rounded up to a power of
        # two, at least MIN_BATCH.
        share = np.maximum((round_total * weights / REPLICATES).astype(np.int64), 1)
        batch = np.maximum(MIN_BATCH, np.int64(1) << np.frexp(share - 1.0)[1])
        # The budget is a hard cap: a round that would overshoot it is cut to
        # what is left, shared by the same weights, and is the last round.
        last = total_n + REPLICATES * int(batch.sum()) > budget
        if last:
            batch = ((budget - total_n) * weights / REPLICATES).astype(np.int64)
        streams.run(np.repeat(batch, REPLICATES), sample)
        total_n += REPLICATES * int(batch.sum())
        if first and not streams.hits.any() and _proved_empty(test, lo, hi):
            return QuadratureResult(0.0, 0.0, total_n, seed, flag="empty-region")
        first = False

        mean = streams.mean().reshape(n_strata, REPLICATES)
        # strata added in order: cumsum is sequential, unlike .sum() or 3.12's sum()
        reps = vol * frac * np.cumsum(mean, axis=0)[-1]
        value = scale * float(reps.mean())
        err = scale * float(reps.std(ddof=1)) / math.sqrt(REPLICATES)
        target = stop_target(tol, rel_tol, value)
        settled = total_n >= min(MIN_SAMPLES, budget)
        if settled and err <= target and not (value == 0.0 and err == 0.0):
            break
        if last or total_n >= budget:
            break
        round_total = min(2 * round_total, max(budget - total_n, FIRST_ROUND))

    if not streams.hits.any():
        if spec.weight == "one":
            w_cap = 1.0
        else:
            # crude ceiling from the admissible denominator floors
            floors = np.maximum(lo, FLOOR_MIN)
            rest_floor = max(1.0 - float(hi.sum()), float(floors.min()), FLOOR_MIN)
            w_cap = 1.0 / (float(np.prod(floors)) * rest_floor)
        bound = scale * vol * w_cap * 3.0 / max(total_n, 1)
        return QuadratureResult(0.0, bound, total_n, seed, flag="no-hits")
    return QuadratureResult(value, err, total_n, seed)


def named_integral(
    name: str,
    params: ThetaParams,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    cat: Catalog | None = None,
    min_alpha_floor: bool = True,
) -> QuadratureResult:
    """Evaluate one of the catalogued loss integrals at a parameter point.

    min_alpha_floor selects whether the smallest-exponent floor participates
    in the covering predicate that the integration regions exclude; with
    False the floor-free variant is bound instead.
    """
    cat = cat or default_catalog()
    if name not in NAMED:
        raise RegionError(f"unknown named integral {name!r}; expected one of {NAMED}")
    spec = cat.record("integrals", name)
    arity = params.arity if isinstance(params, ThetaParams) else None
    if arity is not None:
        if name in ("I5", "I6") and arity != 2:
            raise RegionError(f"{name} takes a two-exponent parameter point")
        if name not in ("I5", "I6") and arity != 1:
            raise RegionError(f"{name} takes a single-exponent parameter point")
    if not min_alpha_floor:
        regions = dict(cat.regions)
        regions["G"] = cat.region("G_nofloor")
        cat = Catalog(regions, cat.ranges, cat.integrals, cat.groups)
    return integrate(spec, params, tol, seed, budget, cat=cat)


def eval_L7(
    kappa_val: float,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    cat: Catalog | None = None,
) -> QuadratureResult:
    """Sum of the three sieve-level loss integrals at a given starting point,
    with the flag the three share, else none."""
    if not 0 < kappa_val <= 0.125:
        raise ValueError("L7 is defined for 0 < kappa <= 1/8")
    cat = cat or default_catalog()
    vals = {"kappa": kappa_val}
    total, err, n, flags = 0.0, 0.0, 0, set()
    for name in ("L71", "L72", "L73"):
        res = integrate(cat.record("integrals", name), vals, tol / 3.0, seed, budget, cat=cat)
        total += res.value
        err += res.est_error
        n += res.samples
        flags.add(res.flag)
    return QuadratureResult(total, err, n, seed, flags.pop() if len(flags) == 1 else "")
