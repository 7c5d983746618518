"""Loss-integral evaluation: stratified, replicated quasi-random sampling
with indicator rejection over region bounding boxes.

Estimates are deterministic for a fixed seed: every (stratum, replicate)
pair owns a scrambled Sobol stream seeded from (seed, stratum, replicate),
rounds refine allocation by stratum spread, and results are reduced in fixed
stratum order.  The error estimate is the spread of the replicate totals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import buchstab
from .catalog import Catalog, IntegralDef, default_catalog
from .params import ThetaParams
from .regions import RegionError, definitely

__all__ = [
    "QuadratureResult",
    "SpecificationError",
    "integrate",
    "named_integral",
    "eval_L7",
    "DEFAULT_SEED",
    "DEFAULT_BUDGET",
]

DEFAULT_SEED = 0x5EED
DEFAULT_BUDGET = 1 << 22
REPLICATES = 4
FIRST_ROUND = 1 << 14  # per-round totals double from here up to the budget
MIN_BATCH = 16
MIN_SAMPLES = 1 << 18  # tolerance may only stop the refinement beyond this
FLOOR_MIN = 1e-4  # smallest admissible denominator floor for singular weights

NAMED = ("I1", "I2", "I3", "I4", "I5", "I6", "S235", "S236", "S237", "U233", "U234")


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


def _weight_fn(kind: str, vals: dict[str, float], variant: str = ""):
    if kind == "one":
        return lambda x: np.ones(x.shape[0])
    if kind == "reciprocal":

        def recip(x):
            rest = 1.0 - x.sum(axis=1)
            return 1.0 / (x.prod(axis=1) * rest)

        return recip
    if kind == "buchstab":
        if "kappa" not in vals:
            raise SpecificationError("buchstab weight needs a kappa value")
        kap = vals["kappa"]
        omega_eval = {
            "": buchstab.default_table().omega_many,
            "lower": np.vectorize(buchstab.omega_lower, otypes=[float]),
            "upper": np.vectorize(buchstab.omega_upper, otypes=[float]),
        }.get(variant)
        if omega_eval is None:
            raise SpecificationError(f"unknown weight variant {variant!r}")

        def buch(x):
            rest = 1.0 - x.sum(axis=1)
            u = np.clip(rest / kap, 1.0, None)
            return omega_eval(u) / (kap * x.prod(axis=1))

        return buch
    raise SpecificationError(f"unknown weight kind {kind!r}")


class _Stream:
    """One (stratum, replicate) Sobol stream with running sums."""

    def __init__(self, dim: int, seed_key: tuple[int, int, int]):
        from scipy.stats import qmc  # slow to import, and only sampling needs it

        rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
        self.engine = qmc.Sobol(d=dim, scramble=True, seed=rng)
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.hits = 0

    def draw(self, m: int) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return self.engine.random(m)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def var(self) -> float:
        if self.n < 2:
            return 0.0
        m = self.mean
        return max(self.total_sq / self.n - m * m, 0.0)


def integrate(
    spec: IntegralDef,
    params,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    rel_tol: float | None = None,
    cat: Catalog | None = None,
    weight_variant: str = "",
) -> QuadratureResult:
    """Estimate multiplier * integral of the weight over the region.

    Sampling stops once the replicate-spread error estimate reaches tol
    (absolute, or rel_tol relative when given) or the budget is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cat = cat or default_catalog()
    region = cat.region(spec.region)
    vals = _params_dict(params)
    k = spec.dim

    lo, hi = region.box(vals, k)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise SpecificationError(f"region {region.name} has a non-finite bounding box")
    if (hi <= lo).any():
        return QuadratureResult(0.0, 0.0, 0, seed, flag="empty-box")
    if spec.sorted and (np.ptp(lo) > 1e-15 or np.ptp(hi) > 1e-15):
        # sorting is measure-preserving only over an exchangeable box
        raise SpecificationError(f"sorted integral {spec.name} needs identical bounds")
    vol = float(np.prod(hi - lo))
    wfn = _weight_fn(spec.weight, vals, weight_variant)
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
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]

    def cell_box(s: int):
        slo, shi = lo.copy(), hi.copy()
        for i in range(k):
            d = s % bins
            s //= bins
            slo[i] = edges[d][i]
            shi[i] = edges[d + 1][i]
        return slo, shi

    boxes = []
    for s in range(n_cells):
        slo, shi = cell_box(s)
        if not spec.sorted and definitely(region, slo, shi, vals, cat) is False:
            continue
        boxes.append((slo, shi))
    if not boxes:
        return QuadratureResult(0.0, 0.0, 0, seed, flag="empty-region")
    if budget < REPLICATES * len(boxes):
        # the budget is a hard cap, and every live stratum needs a point
        raise SpecificationError(
            f"budget {budget} is below one point per stratum and replicate "
            f"({REPLICATES * len(boxes)} for {len(boxes)} strata of {region.name})"
        )

    # Boundedness pilot: for singular weights the region must keep every
    # coordinate and the leftover 1 - sum(t) away from zero.
    if spec.weight in ("reciprocal", "buchstab"):
        pilot = _Stream(k, (seed, 1 << 30, 0)).draw(8192)
        x = lo + pilot * (hi - lo)
        if spec.sorted:
            x = -np.sort(-x, axis=1)
        inside = region.eval(x, vals, cat)
        if inside.any():
            xin = x[inside]
            rest = 1.0 - xin.sum(axis=1)
            if xin.min() < FLOOR_MIN or rest.min() < FLOOR_MIN:
                raise SpecificationError(
                    f"integrand unbounded on region {region.name}: the region "
                    "does not keep the weight denominators away from zero"
                )

    n_strata = len(boxes)
    streams = [
        [_Stream(k, (seed, s, r)) for r in range(REPLICATES)] for s in range(n_strata)
    ]
    frac = 1.0 / n_cells  # equal cell volumes
    w_cap = 0.0
    total_n = 0
    round_total = FIRST_ROUND
    first = True
    value = 0.0
    err = float("inf")

    while True:
        # Allocation: equal on the first round, then half proportional and
        # half by stratum spread.  The proportional floor keeps rarely-hit
        # strata sampled; a pure spread rule starves any stratum whose hits
        # are missed early and biases the total low.
        if first:
            weights = np.ones(n_strata) / n_strata
        else:
            sigma = np.array(
                [math.sqrt(max(sum(st.var for st in row) / REPLICATES, 0.0)) for row in streams]
            )
            if sigma.sum() > 0:
                weights = 0.5 / n_strata + 0.5 * sigma / sigma.sum()
            else:
                weights = np.ones(n_strata) / n_strata
        batch = []
        for s in range(n_strata):
            m = int(round_total * weights[s] / REPLICATES)
            batch.append(max(MIN_BATCH, 1 << max(int(math.ceil(math.log2(max(m, 1)))), 0)))
        # The budget is a hard cap: a round that would overshoot it is cut to
        # what is left, shared by the same weights, and is the last round.
        last = total_n + REPLICATES * sum(batch) > budget
        if last:
            batch = [int((budget - total_n) * w / REPLICATES) for w in weights]
        for s, m in enumerate(batch):
            if not m:
                continue
            slo, shi = boxes[s]
            for r in range(REPLICATES):
                st = streams[s][r]
                u = st.draw(m)
                x = slo + u * (shi - slo)
                if spec.sorted:
                    x = -np.sort(-x, axis=1)
                inside = region.eval(x, vals, cat)
                g = np.zeros(m)
                if inside.any():
                    xin = x[inside]
                    w = wfn(xin)
                    g[inside] = w
                    w_cap = max(w_cap, float(w.max()))
                st.n += m
                st.total += float(g.sum())
                st.total_sq += float((g * g).sum())
                st.hits += int(inside.sum())
                total_n += m
        first = False

        reps = np.zeros(REPLICATES)
        for r in range(REPLICATES):
            reps[r] = vol * frac * sum(streams[s][r].mean for s in range(n_strata))
        value = scale * float(reps.mean())
        err = scale * float(reps.std(ddof=1)) / math.sqrt(REPLICATES)
        target = tol if rel_tol is None else max(tol, rel_tol * abs(value))
        settled = total_n >= min(MIN_SAMPLES, budget)
        if settled and err <= target and not (value == 0.0 and err == 0.0):
            break
        if last or total_n >= budget:
            break
        round_total = min(2 * round_total, max(budget - total_n, FIRST_ROUND))

    hits = sum(st.hits for row in streams for st in row)
    if hits == 0:
        if w_cap == 0.0:
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
    weight_variant: str = "",
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
    spec = cat.integrals[name]
    arity = params.arity if isinstance(params, ThetaParams) else None
    if arity is not None:
        if name in ("I5", "I6") and arity != 2:
            raise RegionError(f"{name} takes a two-exponent parameter point")
        if name not in ("I5", "I6") and arity != 1:
            raise RegionError(f"{name} takes a single-exponent parameter point")
    if not min_alpha_floor:
        regions = dict(cat.regions)
        regions["G"] = regions["G_nofloor"]
        cat = Catalog(regions, cat.ranges, cat.integrals, cat.groups)
    return integrate(spec, params, tol, seed, budget, cat=cat, weight_variant=weight_variant)


def eval_L7(
    kappa_val: float,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    cat: Catalog | None = None,
) -> QuadratureResult:
    """Sum of the three sieve-level loss integrals at a given starting point."""
    if not 0 < kappa_val <= 0.125:
        raise ValueError("L7 is defined for 0 < kappa <= 1/8")
    cat = cat or default_catalog()
    vals = {"kappa": kappa_val}
    total, err, n = 0.0, 0.0, 0
    for name in ("L71", "L72", "L73"):
        res = integrate(cat.integrals[name], vals, tol / 3.0, seed, budget, cat=cat)
        total += res.value
        err += res.est_error
        n += res.samples
    return QuadratureResult(total, err, n, seed)
