"""Parametric affine regions, partition predicates and interval unions.

Everything here evaluates over exponent vectors (alpha vectors): points whose
coordinates t1..tk live on the log-x scale.  Region predicates are boolean
trees of affine comparisons plus two non-local atom kinds, membership of a
grouped point in another region and exists-bipartition ("splits") into a
two-dimensional region.

A region is evaluated through a program compiled once per (region, catalog,
point dimension) and kept on the catalog.  At a fixed dimension every atom
but `in` and `splits` comes down to affine comparisons: compiling writes
tsum out as t1 + ... + tk, a comparison with tmin or tmax as a junction of
the comparison at each coordinate, descending as the comparisons
t_i > t_(i+1), and true / false as the empty and / or.  Two walkers run
the program.  One gives membership of a batch of points, vectorised over
a coordinate-major (k, N) copy of the (N, k) batch.  The other,
`_Bound.decide`, is the box test: a three-valued verdict over an
axis-aligned box, folded in Kleene's strong logic (`_fold`, `_negate`).
Its float mode judges each atom by float interval bounds and leaves an
atom they do not decide undecided (None); its exact mode, given an
`exact.BoxTest`, judges each atom by its exact row alone and leaves the
residual of the box, which the `BoxTest` refutes.  A row (a, b, strict)
with integer entries means a . t < b when strict and a . t <= b
otherwise, over the coordinates t of the box.  A residual is True, False,
None, a row, or a junction ("and" | "or", frozenset of residuals).

`_Bound.eval` copies a batch once, as float64, into a (k, N) array, so a
coordinate is one contiguous row.  Every comparison reads whole rows, and
a gather of points takes the same columns of every row.  A nested clause
that holds nothing but comparisons runs over all points under a mask of
the points its parent has not decided; `in` and `splits` children run on
a copy of those points alone.

The entry points are `RegionSpec.eval` for a batch, `definitely` for a box
and `contains` for a point (a box with equal corners), the one-region case
of `_hits`, which walks a point through a list of regions and judges each
distinct atom (compiled content, interned per catalog) once per call, where
`in` and `splits` have not moved the point.  Only the batch walker needs
numpy; it, `subset_sums` and `RegionSpec.box` import it where they run.  The
box walker works on lists of floats, the subset sums of a `splits` atom
included, so no box test loads numpy: not `definitely`, not `contains` and
not the exact `exact.BoxTest`.  `subset_sums` serves the batch walker alone;
`divisors` enumerates its subsets in pure Python.

Every sum over the coordinates of a point adds them left to right, at
every width and in both walkers: tsum, the group sums of `in`, and the
subset sums and totals of `splits`.  A bipartition's total is the sum over
its full subset, so an empty part sums to exactly 0.  A `splits` compiles
over at most MAX_SPLIT coordinates, so no walker holds more than
BLOCK_PAIRS subset sums of a point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .shared import RegionError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AffineForm",
    "Comparison",
    "Membership",
    "Splits",
    "Descending",
    "BoolNode",
    "RegionSpec",
    "IntervalPiece",
    "IntervalUnion",
    "RegionError",
    "contains",
    "definitely",
    "subset_sums",
    "interval_contains",
]

# Parameter names an affine form may reference.  theta/theta1..3, eps, delta
# come straight from the parameter point; the rest are the derived piecewise
# sieve parameters evaluated at that point.
PARAM_NAMES = (
    "theta",
    "theta1",
    "theta2",
    "theta3",
    "eps",
    "eps2",
    "delta",
    "kappa",
    "kappap",
    "tau",
    "taup",
    "nu",
    "nup",
)

# Pseudo-variables usable in dimension-generic regions, in the sorted order
# AffineForm.make keeps them in.
SPECIALS = ("tmax", "tmin", "tsum")

BLOCK_PAIRS = 1 << 14  # points x masks per chunk of a bipartition search
MAX_SPLIT = BLOCK_PAIRS.bit_length() - 1  # the most coordinates whose masks fit one chunk


@dataclass(frozen=True)
class AffineForm:
    """constant + sum(param coefficients) + sum(variable coefficients).

    Variable indices are 1-based (t1, t2, ...).  The tsum/tmin/tmax pseudo
    variables let dimension-generic families constrain the sum, minimum or
    maximum coordinate; tmin/tmax are only piecewise-linear and are rejected
    as interval endpoints.
    """

    const: Fraction = Fraction(0)
    params: tuple[tuple[str, Fraction], ...] = ()
    vars: tuple[tuple[int, Fraction], ...] = ()
    specials: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def make(const=0, params=None, vars=None, specials=None) -> "AffineForm":
        def norm(d):
            if not d:
                return ()
            items = [(k, Fraction(v)) for k, v in sorted(dict(d).items()) if Fraction(v) != 0]
            return tuple(items)

        return AffineForm(Fraction(const), norm(params), norm(vars), norm(specials))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        p = dict(self.params)
        for k, v in other.params:
            p[k] = p.get(k, Fraction(0)) + v
        w = dict(self.vars)
        for k, v in other.vars:
            w[k] = w.get(k, Fraction(0)) + v
        s = dict(self.specials)
        for k, v in other.specials:
            s[k] = s.get(k, Fraction(0)) + v
        return AffineForm.make(self.const + other.const, p, w, s)

    def __neg__(self) -> "AffineForm":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def scale(self, c) -> "AffineForm":
        c = Fraction(c)
        return AffineForm.make(
            self.const * c,
            {k: v * c for k, v in self.params},
            {k: v * c for k, v in self.vars},
            {k: v * c for k, v in self.specials},
        )

    @property
    def max_var(self) -> int:
        return max((i for i, _ in self.vars), default=0)

    def eval_scalar(self, params: dict[str, float]) -> float:
        """Evaluate a point-free form (interval endpoints)."""
        if self.vars or self.specials:
            raise RegionError("form references point variables; scalar context")
        return _base(float(self.const), ((p, float(w)) for p, w in self.params), params)


# ---------------------------------------------------------------------------
# Region atoms and boolean tree (the parsed form; see _Program for evaluation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    lhs: AffineForm
    rel: str  # one of '<', '<=', '>', '>='
    rhs: AffineForm


@dataclass(frozen=True)
class Membership:
    """Grouped-point membership in a named region.

    groups is a tuple of index tuples; the tested point is the vector of the
    group sums.  An empty groups tuple means the full point is passed through.
    """

    region: str
    groups: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class Splits:
    """Exists-bipartition of the coordinates into a 2-dimensional region.

    True iff some subset I of the indices (taken with its complement J, either
    of which may be empty) satisfies (sum_I, sum_J) in region.
    """

    region: str


@dataclass(frozen=True)
class Descending:
    """Strictly decreasing coordinates (dimension-generic ordering atom)."""


@dataclass(frozen=True)
class BoolNode:
    op: str  # 'and' | 'or' | 'not' | 'atom' | 'const'
    children: tuple = ()
    atom: object = None
    value: bool = True


@dataclass
class RegionSpec:
    """A named region: boolean tree over atoms, with optional per-variable
    bounding intervals used as the sampling box by the quadrature engine."""

    name: str
    dimension: int | None  # None means any dimension
    tree: BoolNode
    bounds: dict[int, tuple[AffineForm, AffineForm]] = field(default_factory=dict)

    def eval(self, x: np.ndarray, params: dict[str, float], catalog) -> np.ndarray:
        return _bound(self, x.shape[1], params, catalog).eval(x)

    def referenced_regions(self) -> list[str]:
        out: list[str] = []

        def walk(node: BoolNode):
            if node.op == "atom":
                if isinstance(node.atom, (Membership, Splits)):
                    out.append(node.atom.region)
            for c in node.children:
                walk(c)

        walk(self.tree)
        return list(dict.fromkeys(out))  # in written order, each name once

    def box(self, params: dict[str, float], dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Evaluated bounding box (lo, hi) arrays for the given dimension."""
        import numpy as np

        lo = np.empty(dim)
        hi = np.empty(dim)
        for i in range(1, dim + 1):
            if i not in self.bounds:
                raise RegionError(f"region {self.name} has no bound for t{i}")
            blo, bhi = self.bounds[i]
            lo[i - 1] = blo.eval_scalar(params)
            hi[i - 1] = bhi.eval_scalar(params)
        return lo, hi


def definitely(region: RegionSpec, lo: np.ndarray, hi: np.ndarray, params, catalog):
    """Tri-state box test: True/False when the region verdict is constant
    over the whole box [lo, hi], None when undecided.  The public entry
    point of the float box test for one box."""
    return _bound(region, len(lo), params, catalog).decide(lo, hi)


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

# A compiled form is (constant, ((param, w), ...), ((i - 1, w), ...)) with float
# coefficients, its variables t_i in index order, the order the form adds them.
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _terms(form: AffineForm, dim: int) -> tuple[tuple[int, float], ...]:
    if form.max_var > dim:
        raise RegionError(f"variable t{form.max_var} out of range for dimension {dim}")
    return tuple((i - 1, float(c)) for i, c in form.vars)


def _ints(form: AffineForm) -> tuple:
    """The form times den, the least common denominator of its coefficients:
    (den, constant, ((param, w), ...), ((i - 1, w), ...)) in integers."""
    den = math.lcm(form.const.denominator, *(w.denominator for _, w in form.params + form.vars))
    return (den, int(form.const * den), tuple((p, int(w * den)) for p, w in form.params),
            tuple((i - 1, int(w * den)) for i, w in form.vars))


def _compiled(form: AffineForm, dim: int) -> tuple:
    return float(form.const), tuple((p, float(w)) for p, w in form.params), _terms(form, dim)


def _base(const: float, weights, params: dict[str, float]) -> float:
    """Constant plus weighted parameters, added in order."""
    for name, w in weights:
        if name not in params:
            raise RegionError(f"missing parameter {name!r}")
        const += w * params[name]
    return const


def _values(base: float, terms, x: np.ndarray):
    """A form at every point of a (k, n) x: base, then each term in order.
    Multiplying by 1 and adding a zero base are skipped; neither changes a
    value."""
    acc = None
    for key, w in terms:
        v = x[key]
        if w != 1.0:
            v = v * w
        acc = (v + base if base else v) if acc is None else acc + v
    return base if acc is None else acc


def _floats(v) -> list[float]:
    """The coordinates of a point or a box corner (a sequence or a 1-d
    array) as a list of floats."""
    tolist = getattr(v, "tolist", None)  # an array, read without importing numpy
    return list(map(float, v if tolist is None else tolist()))


def _bounds(base: float, terms, lo: list[float], hi: list[float]) -> tuple[float, float]:
    """Interval of a form over a box, adding its terms in the same order."""
    a = b = base
    for key, w in terms:
        if w >= 0:
            a += w * lo[key]
            b += w * hi[key]
        else:
            a += w * hi[key]
            b += w * lo[key]
    return a, b


def _sum(values) -> float:
    """Left-to-right sum; the built-in sum is compensated from Python 3.12 on."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def subset_sums(x: np.ndarray) -> np.ndarray:
    """Sums over every subset of the rows of a (k, n) array, as (2**k, n):
    the bipartitions a `splits` atom searches.

    Row m sums the rows whose bits are set in m, added in index order by
    doubling; the last row is the total.
    """
    import numpy as np

    k, n = x.shape
    out = np.zeros((1 << k, n))
    for i in range(k):
        np.add(out[: 1 << i], x[i], out=out[1 << i : 2 << i])
    return out


class _Node:
    """A node of a compiled program: 'and' / 'or' (the columns of their
    comparisons, then their other children cheapest first by a static count
    of the comparisons a point costs), 'not', 'in' (grouped membership) or
    'splits'.  A junction is `masked` when its subtree holds only
    comparisons: it then runs over all the points of its parent's batch
    under a mask of the live ones instead of on a gathered copy of them."""

    __slots__ = ("kind", "cols", "children", "arg", "cost", "masked")

    def __init__(self, kind, cost=1.0, cols=(), children=(), arg=None):
        self.kind, self.arg, self.cols = kind, arg, tuple(cols)
        self.children = tuple(sorted(children, key=lambda c: c.cost))
        self.cost = cost + len(self.cols) + sum(c.cost for c in self.children)
        self.masked = kind in ("and", "or") and all(c.masked for c in self.children)


class _Program:
    """A region compiled for one catalog and one point dimension.

    Comparisons become numbered columns of compiled forms, with tsum, tmin,
    tmax and descending written out at this dimension (`_comparison`) and
    true / false as the empty and / or.  `not` is pushed down to the atoms
    (a negated comparison flips its relation), membership without groups is
    inlined and nested and/or nodes of the same kind are merged.  Structural
    errors raise here; parameters are bound per call.
    """

    def __init__(self, spec: RegionSpec, catalog, dim: int):
        self.spec, self.dim = spec, dim
        self.columns: list[tuple] = []  # (relation, lhs, rhs) compiled forms
        self.forms: list[tuple] = []  # (lhs, rhs) of each column, as rational forms
        self.rows: dict[int, tuple] = {}  # exact rows of columns, made on first use
        self.ids, self.atoms = [], catalog.atoms  # atom id of each column, and their table
        self.root = self._junction("and", [self._compile(spec.tree, catalog, False, {spec.name})])

    def _compile(self, tree: BoolNode, catalog, neg: bool, seen: set) -> _Node:
        if tree.op == "const":
            return self._junction("and" if tree.value != neg else "or", [])
        if tree.op == "not":
            return self._compile(tree.children[0], catalog, not neg, seen)
        if tree.op in ("and", "or"):
            op = tree.op if not neg else "or" if tree.op == "and" else "and"
            children = [self._compile(c, catalog, neg, seen) for c in tree.children]
            return self._junction(op, children)
        atom = tree.atom
        if isinstance(atom, Comparison):
            if atom.rel not in _OPS:
                raise RegionError(f"bad relation {atom.rel!r}")
            return self._comparison(_NEGATED[atom.rel] if neg else atom.rel, atom.lhs, atom.rhs)
        if isinstance(atom, Descending):
            t = [AffineForm.make(vars={i: 1}) for i in range(1, self.dim + 1)]
            pairs = [self._comparison("<=" if neg else ">", a, b) for a, b in zip(t, t[1:])]
            return self._junction("or" if neg else "and", pairs)
        if not isinstance(atom, (Membership, Splits)):
            raise RegionError(f"bad atom {atom!r}")
        target = catalog.region(atom.region)
        width = 2 if isinstance(atom, Splits) else len(atom.groups) or self.dim
        if target.dimension is not None and width > target.dimension:
            raise RegionError(f"region {target.name} has dimension {target.dimension}, got {width}")
        if isinstance(atom, Splits):
            if self.dim > MAX_SPLIT:
                raise RegionError(f"bipartition enumeration capped at {MAX_SPLIT} coordinates")
            prog = _program(target, catalog, 2)
            node = _Node("splits", (2 + prog.root.cost) * 2**self.dim, arg=prog)
        elif not atom.groups:
            if target.name in seen:
                raise RegionError(f"region {target.name} refers to itself")
            return self._compile(target.tree, catalog, neg, seen | {target.name})
        else:
            for i in (i for grp in atom.groups for i in grp if i > self.dim):
                raise RegionError(f"group index t{i} out of range")
            prog = _program(target, catalog, width)
            groups = tuple(tuple(i - 1 for i in grp) for grp in atom.groups)
            node = _Node("in", width + prog.root.cost, arg=(groups, prog))
        return _Node("not", 0.0, children=[node]) if neg else node

    def _comparison(self, rel: str, lhs: AffineForm, rhs: AffineForm) -> _Node:
        """lhs rel rhs as columns.  tsum becomes t1 + ... + tk.  A w*tmin or
        w*tmax term becomes the comparison at each t_j in its place, joined
        by `and` when the term must keep the relation at every j and by `or`
        when at some j: a tmax that raises the side the relation keeps
        smaller, or a tmin that lowers it, must keep it at every j.  Several
        such terms nest.  The sides stay apart, as the box test bounds each
        on its own."""
        sides = [lhs, rhs]
        for s, form in enumerate(sides):
            for name, w in form.specials:
                rest = AffineForm(form.const, form.params, form.vars,
                                  tuple(x for x in form.specials if x[0] != name))
                if name == "tsum":
                    sides[s] = rest + AffineForm.make(vars=dict.fromkeys(range(1, self.dim + 1), w))
                    return self._comparison(rel, *sides)
                raises = (w > 0) == (s == (rel in (">", ">=")))
                alts = []
                for j in range(1, self.dim + 1):
                    sides[s] = rest + AffineForm.make(vars={j: w})
                    alts.append(self._comparison(rel, *sides))
                return self._junction("and" if raises == (name == "tmax") else "or", alts)
        self.columns.append((rel, _compiled(lhs, self.dim), _compiled(rhs, self.dim)))
        self.ids.append(self.atoms.setdefault(self.columns[-1], len(self.atoms)))
        self.forms.append((lhs, rhs))
        return _Node("col", arg=len(self.columns) - 1)

    def exact(self, c: int) -> tuple:
        """Column c with the catalog's rational coefficients: its relation and
        lhs - rhs in integers over one positive denominator, as (relation,
        den, constant, ((param, w), ...), ((i - 1, w), ...))."""
        row = self.rows.get(c)
        if row is None:
            lhs, rhs = self.forms[c]
            row = self.rows[c] = (self.columns[c][0], *_ints(lhs - rhs))
        return row

    @staticmethod
    def _junction(op: str, nodes: list[_Node]) -> _Node:
        cols, children = [], []
        for n in nodes:
            if n.kind == op:
                cols += n.cols
                children += n.children
            elif n.kind == "col":
                cols.append(n.arg)
            else:
                children.append(n)
        return _Node(op, 0.0, cols, children)


class _Bound:
    """A program bound to a parameter point for one call: each column's
    constant parts, shared by atom id with every bound of the call, are
    computed when a live, undecided row first reaches it, so a missing
    parameter raises only then.  `_hits` adds memo, read by `_recall`."""

    def __init__(self, prog: _Program, params: dict[str, float], cols=None, memo=None):
        self.prog, self.params, self.ids, self.memo = prog, params, prog.ids, memo
        self.cols: dict[int, tuple] = {} if cols is None else cols
        self.subs: dict[_Program, _Bound] = {}  # targets of in and splits nodes

    def base(self, form: tuple) -> float:
        return _base(form[0], form[1], self.params)

    def column(self, c: int) -> tuple:
        """(relation, lhs base, lhs terms, rhs base, rhs terms)."""
        col = self.cols.get(self.ids[c])
        if col is None:
            rel, lhs, rhs = self.prog.columns[c]
            col = self.cols[self.ids[c]] = (rel, self.base(lhs), lhs[2], self.base(rhs), rhs[2])
        return col

    # ----- membership of a batch of points -----

    def eval(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return self._run(self.prog.root, np.ascontiguousarray(x.T, dtype=float))

    def _run(self, node: _Node, x: np.ndarray, live=None) -> np.ndarray:
        """Verdicts of node on the points of a (k, n) x, one per column;
        only the points where the mask live is set (all when it is None)
        count, the others are junk."""
        import numpy as np

        kind = node.kind
        if kind == "and" or kind == "or":
            # Comparisons in order while a live point is undecided, then each
            # other child: a masked clause over all points of x, anything
            # else on a copy of the points it can still change.
            is_and = kind == "and"
            out = np.full(x.shape[1], is_and)
            for i, c in enumerate(node.cols):
                if i and not self._undecided(out, is_and, live).any():
                    return out
                rel, lbase, lterms, rbase, rterms = self.column(c)
                v = _OPS[rel](_values(lbase, lterms, x), _values(rbase, rterms, x))
                if is_and:
                    out &= v
                else:
                    out |= v
            for child in node.children:
                todo = self._undecided(out, is_and, live)
                if not todo.any():
                    break
                if not child.masked:
                    rows = np.flatnonzero(todo)
                    out[rows] = self._run(child, np.take(x, rows, axis=1))
                elif is_and:
                    out &= self._run(child, x, todo)
                else:
                    out |= self._run(child, x, todo)
            return out
        if kind == "not":
            return ~self._run(node.children[0], x)
        if kind == "in":
            groups, prog = node.arg
            sums = np.zeros((len(groups), x.shape[1]))
            for row, grp in zip(sums, groups):
                for i in grp:
                    row += x[i]
            return self.sub(prog)._run(prog.root, sums)
        return _bipartition_hits(x, self.sub(node.arg))

    @staticmethod
    def _undecided(out: np.ndarray, is_and: bool, live) -> np.ndarray:
        """The live rows a junction has not decided yet."""
        todo = out if is_and else ~out
        return todo if live is None else todo & live

    # ----- three-valued verdict over a box -----

    def sub(self, prog: _Program) -> "_Bound":
        """prog, the target of an `in` or `splits` node, bound to the same
        parameters, once for every row, box and bipartition."""
        out = self.subs.get(prog)
        if out is None:
            out = self.subs[prog] = _Bound(prog, self.params, self.cols)
        return out

    def decide(self, lo, hi, ex=None):
        """The region on the box [lo, hi] in three-valued logic: True or
        False where the box decides it.

        Without ex this is the float box test: atoms are judged by the
        float interval bounds of their sides, an atom the bounds leave
        undecided is None, and so is the region unless the other atoms
        decide it.  With ex (an `exact.BoxTest` called on the same box)
        every atom is its row (`ex.row`), judged on the box in integers
        (`ex.decide`), and what stays undecided is a residual over those
        rows.  So every verdict of the exact mode is exact.
        """
        return self._walk(self.prog.root, _floats(lo), _floats(hi), None, ex)

    def _walk(self, node: _Node, lo: list[float], hi: list[float], sub, ex):
        """decide at node, over the variables sub maps to the box's
        coordinates."""
        kind = node.kind
        if kind == "and" or kind == "or":
            stop, items = kind == "or", []
            judge = self._interval if self.memo is None else self._recall
            for c in node.cols:
                v = judge(c, lo, hi) if ex is None else ex.decide(ex.row(self, c, sub))
                if v is stop:
                    return v
                items.append(v)
            for child in node.children:
                v = self._walk(child, lo, hi, sub, ex)
                if v is stop:
                    return v
                items.append(v)
            return _fold(kind, items)
        if kind == "not":
            return _negate(self._walk(node.children[0], lo, hi, sub, ex))
        if kind == "in":
            groups, prog = node.arg
            glo = [_sum(lo[i] for i in g) for g in groups]
            ghi = [_sum(hi[i] for i in g) for g in groups]
            return self.sub(prog)._walk(prog.root, glo, ghi, ("in", groups, sub), ex)
        prog = node.arg
        sums = [(0.0, 0.0)]  # every subset's (lo, hi), added as subset_sums adds them
        for a, b in zip(lo, hi):
            sums += [(s + a, t + b) for s, t in sums]
        total_lo, total_hi = sums[-1]
        target, items = self.sub(prog), []
        for mask, (s_lo, s_hi) in enumerate(sums):
            v = target._walk(prog.root, [s_lo, total_lo - s_hi], [s_hi, total_hi - s_lo],
                             ("splits", mask, sub), ex)
            if v is True:
                return v
            items.append(v)
        return _fold("or", items)

    def _recall(self, c: int, lo: list[float], hi: list[float]):
        """Column c by `_interval`, judged once per atom in the call."""
        v = self.memo.get(self.ids[c])
        if v is None:
            v = self.memo[self.ids[c]] = self._interval(c, lo, hi)
        return v

    def _interval(self, c: int, lo: list[float], hi: list[float]):
        """Column c by the float interval bounds of its sides: True or False
        where they decide it, None where they do not."""
        rel, lbase, lterms, rbase, rterms = self.column(c)
        (la, lb), (ra, rb) = _bounds(lbase, lterms, lo, hi), _bounds(rbase, rterms, lo, hi)
        if rel in (">", ">="):  # as b < a, b <= a
            (la, lb), (ra, rb) = (ra, rb), (la, lb)
        strict = rel in ("<", ">")
        if lb < ra or lb == ra and not strict:
            return True
        if la > rb or la == rb and strict:
            return False
        return None


def _fold(op: str, items):
    """The junction op ("and" | "or") of residuals: a constant that decides
    op returns, the other drops out, a junction of the same kind is merged,
    and None stays unless another item decides op."""
    stop, out = op == "or", set()
    for f in items:
        if f is stop:
            return stop
        if f is not (not stop):
            if f is not None and f[0] == op:
                out |= f[1]
            else:
                out.add(f)
    if len(out) < 2:
        return out.pop() if out else not stop
    return op, frozenset(out)


def _negate(f):
    """The negation of a residual; None stays None."""
    if f is None:
        return f
    if f is True or f is False:
        return not f
    if f[0] == "and" or f[0] == "or":
        return "or" if f[0] == "and" else "and", frozenset(map(_negate, f[1]))
    a, b, strict = f
    return tuple(-x for x in a), -b, not strict


def _bipartition_hits(x: np.ndarray, target: _Bound) -> np.ndarray:
    """Points of a (k, n) x with a bipartition (I, J) of their coordinates
    such that (sum_I, sum_J) lies in the bound two-dimensional target.

    Points run in chunks of BLOCK_PAIRS >> k, so a chunk holds at most
    BLOCK_PAIRS subset sums: its (2**k, m) table from `subset_sums`.  The
    pairs (sum_I, sum_J) of a chunk are the columns of one (2, 2**k * m)
    buffer, mask-major, which the target reads as its batch.  sum_J is the
    total less sum_I, and the total is the full mask's sum, so an empty J
    is exactly 0.
    """
    import numpy as np

    k, n = x.shape
    step, hit = BLOCK_PAIRS >> k, np.empty(n, dtype=bool)
    for start in range(0, n, step):
        sums = subset_sums(x[:, start : start + step])
        pairs = np.empty((2,) + sums.shape)
        pairs[0] = sums
        np.subtract(sums[-1], sums, out=pairs[1])
        v = target._run(target.prog.root, pairs.reshape(2, -1))
        hit[start : start + step] = np.logical_or.reduce(v.reshape(sums.shape), axis=0)
    return hit


def _program(spec: RegionSpec, catalog, dim: int) -> _Program:
    """The compiled program of spec at this dimension, kept on the catalog
    (catalogs are not changed once loaded)."""
    cache = catalog.programs
    prog = cache.get((spec.name, dim))
    if prog is None or prog.spec is not spec:
        prog = cache[spec.name, dim] = _Program(spec, catalog, dim)
    return prog


def _bound(region: RegionSpec, dim: int, params, catalog, cols=None, memo=None) -> _Bound:
    if region.dimension is not None and dim > region.dimension:
        raise RegionError(f"region {region.name} has dimension {region.dimension}, got {dim}")
    return _Bound(_program(region, catalog, dim), params, cols, memo)


# ---------------------------------------------------------------------------
# Interval unions with affine endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalPiece:
    lo: AffineForm
    hi: AffineForm
    lo_open: bool = True
    hi_open: bool = True
    src: str = ""


@dataclass(frozen=True)
class NumericPiece:
    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True


@dataclass
class IntervalUnion:
    pieces: list[IntervalPiece]

    def evaluated(self, params: dict[str, float]) -> list[NumericPiece]:
        return [NumericPiece(p.lo.eval_scalar(params), p.hi.eval_scalar(params), p.lo_open,
                             p.hi_open) for p in self.pieces]


def merge_numeric(pieces: list[NumericPiece]) -> list[NumericPiece]:
    """Canonical sorted disjoint union.

    Empty pieces (hi <= lo, up to equality with both ends closed) are
    dropped; two pieces merge iff they overlap or touch with at least one
    closed endpoint at the junction.
    """
    live = []
    for p in pieces:
        if p.hi < p.lo:
            continue
        if p.hi == p.lo and (p.lo_open or p.hi_open):
            continue
        live.append(p)
    live.sort(key=lambda p: (p.lo, p.lo_open))
    out: list[NumericPiece] = []
    for p in live:
        if out:
            q = out[-1]
            joins = p.lo < q.hi or (p.lo == q.hi and not (p.lo_open and q.hi_open))
            if joins:
                if (p.hi, not p.hi_open) > (q.hi, not q.hi_open):
                    out[-1] = NumericPiece(q.lo, p.hi, q.lo_open, p.hi_open)
                continue
        out.append(p)
    return out


def interval_contains(pieces: list[NumericPiece], x: float) -> bool:
    """Membership in a union of numeric pieces, respecting open/closed
    endpoints."""
    for p in pieces:
        lo_ok = x > p.lo if p.lo_open else x >= p.lo
        hi_ok = x < p.hi if p.hi_open else x <= p.hi
        if lo_ok and hi_ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Top-level operations (catalog passed explicitly)
# ---------------------------------------------------------------------------


def contains(region: RegionSpec, point, params: dict[str, float], catalog) -> bool:
    """True iff the point (a sequence or a 1-d array of coordinates)
    satisfies the region's boolean tree as written.

    A point is a box with equal corners: the float box test decides every
    atom on it exactly, with the same arithmetic as batch evaluation, and
    without numpy (see the module docstring).  A NaN
    coordinate would leave atoms undecided, so non-finite points are
    rejected.  This is the one-region case of `_hits`.
    """
    return next(_hits([region], point, params, catalog))


def _hits(regions, point, params: dict[str, float], catalog):
    """Whether each region holds the point, yielded in order (the point path
    of `contains` and `params`).  The point is checked once; a region raises
    what it raises tested alone, once reached.  The walks share verdicts."""
    x = _floats(point)
    if not all(map(math.isfinite, x)):
        raise RegionError(f"point {x} has a non-finite coordinate")
    cols, memo = {}, {}
    for region in regions:
        bound = _bound(region, len(x), params, catalog, cols, memo)
        yield bound._walk(bound.prog.root, x, x, None, None)
