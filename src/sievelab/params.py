"""Modulus-exponent parameter points, the piecewise sieve parameter
functions, subregion classification and Type-II range assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Catalog, default_catalog
from .regions import NumericPiece, _hits, interval_contains, merge_numeric
from .shared import AmbiguityError, RegionError

__all__ = [
    "ThetaParams",
    "TypeIIRangeReport",
    "AmbiguityError",
    "in_kappa_domain",
    "kappa",
    "kappa_prime",
    "tau",
    "tau_prime",
    "nu",
    "nu_prime",
    "classify",
    "type_ii_range",
]


# ---------------------------------------------------------------------------
# Piecewise parameter functions (eps enters exactly as printed)
# ---------------------------------------------------------------------------


def in_kappa_domain(theta: float) -> bool:
    """Whether kappa, kappa', tau and tau' are defined at total exponent theta."""
    return 0.5 <= theta < 4 / 7


def kappa(theta: float, eps: float = 0.0) -> float:
    """Sieve starting point for a total modulus exponent theta."""
    if not in_kappa_domain(theta):
        raise ValueError("kappa is defined for 1/2 <= theta < 4/7")
    if theta <= 17 / 32 - eps:
        return (5 - 8 * theta) / 6 - eps
    if theta <= 7 / 13 - eps:
        return (5 - 8 * theta) / 12 - 3 * eps
    return (3 - 5 * theta) / 7 - 2 * eps


def kappa_prime(theta: float, eps: float = 0.0) -> float:
    if not in_kappa_domain(theta):
        raise ValueError("kappa_prime is defined for 1/2 <= theta < 4/7")
    if 7 / 13 - eps < theta <= 11 / 20 - eps:
        return (11 - 20 * theta) / 6 - 2 * eps
    return kappa(theta, eps)


def tau(theta: float, eps: float = 0.0) -> float:
    if not in_kappa_domain(theta):
        raise ValueError("tau is defined for 1/2 <= theta < 4/7")
    if theta <= 11 / 21:
        return 3 * (1 - theta) / 5 - eps
    if theta <= 6 / 11 - eps:
        return 2 / 7 - eps
    return (5 - 6 * theta) / 7 - eps


def tau_prime(theta: float, eps: float = 0.0) -> float:
    if not in_kappa_domain(theta):
        raise ValueError("tau_prime is defined for 1/2 <= theta < 4/7")
    if 7 / 13 - eps < theta <= 11 / 20 - eps:
        return (5 - 6 * theta) / 7
    return tau(theta, eps)


def nu(theta: float) -> float:
    """Smooth-modulus Type-II width parameter."""
    if not 0.5 < theta < 9 / 17:
        raise ValueError("nu is defined for 1/2 < theta < 9/17")
    return 1 - 2 * max(6 * theta - 11 / 4, 16 * theta - 8)


def nu_prime(theta: float) -> float:
    if not 0.5 < theta < 9 / 17:
        raise ValueError("nu_prime is defined for 1/2 < theta < 9/17")
    return 1 - 2 * max(120 / 17 * theta - 56 / 17, 16 * theta - 8)


# ---------------------------------------------------------------------------
# Parameter points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaParams:
    """One, two or three modulus exponents plus the small constant eps.

    theta is always the total exponent.  In two-parameter mode theta1 >=
    theta2 is required (the standard normalisation); a three-parameter point
    carries theta3 as well and reduces to two parameters via theta2+theta3
    where needed.
    """

    theta1: float
    theta2: float | None = None
    theta3: float | None = None
    eps: float = 0.0

    def __post_init__(self):
        parts = [self.theta1] + [t for t in (self.theta2, self.theta3) if t is not None]
        if self.theta3 is not None and self.theta2 is None:
            raise ValueError("theta3 requires theta2")
        for t in parts:
            if not 0 < t < 1:
                raise ValueError("each exponent must lie in (0, 1)")
        if not 0 < self.theta < 1:
            raise ValueError("total exponent must lie in (0, 1)")
        if self.theta2 is not None and self.theta3 is None and self.theta1 < self.theta2:
            raise ValueError("two-parameter mode requires theta1 >= theta2")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("eps must be finite and nonnegative")
        if in_kappa_domain(self.theta) and not (k := kappa(self.theta, self.eps)) > 0:
            raise ValueError(f"kappa(theta, eps) = {k:.3g} at theta = {self.theta:.6g}, "
                             f"eps = {self.eps:.3g}; kappa must be positive")

    @property
    def arity(self) -> int:
        return 1 + (self.theta2 is not None) + (self.theta3 is not None)

    @property
    def theta(self) -> float:
        return self.theta1 + (self.theta2 or 0.0) + (self.theta3 or 0.0)

    def reduce_to_two(self) -> "ThetaParams":
        """Three-parameter point folded to (theta1, theta2 + theta3)."""
        if self.theta3 is None:
            return self
        t1, t2 = self.theta1, self.theta2 + self.theta3
        if t1 < t2:
            t1, t2 = t2, t1
        return ThetaParams(t1, t2, eps=self.eps)

    def values(self) -> dict[str, float]:
        """Evaluation dictionary for affine forms (derived values included)."""
        th = self.theta
        out = {
            "theta": th,
            "theta1": self.theta1,
            "eps": self.eps,
            "eps2": self.eps * self.eps,
            # delta is an arbitrarily small positive constant; numerically 0.
            "delta": 0.0,
        }
        if self.theta2 is not None:
            out["theta2"] = self.theta2
        if self.theta3 is not None:
            out["theta3"] = self.theta3
        if in_kappa_domain(th):
            out["kappa"] = kappa(th, self.eps)
            out["kappap"] = kappa_prime(th, self.eps)
            out["tau"] = tau(th, self.eps)
            out["taup"] = tau_prime(th, self.eps)
        if 0.5 < th < 9 / 17:
            out["nu"] = nu(th)
            out["nup"] = nu_prime(th)
        return out


def theta_only(theta: float, eps: float = 0.0) -> ThetaParams:
    return ThetaParams(theta, eps=eps)


# ---------------------------------------------------------------------------
# Classification and Type-II assembly
# ---------------------------------------------------------------------------

def classify(params: ThetaParams, catalog_name: str, cat: Catalog | None = None) -> list[str]:
    """All regions of the named group containing (theta1, theta2), as
    `regions.contains` judges each, in one walk (`regions._hits`)."""
    cat = cat or default_catalog()
    group = cat.record("groups", catalog_name)
    p = params.reduce_to_two()
    if p.arity != 2:
        raise RegionError("classification needs a two-parameter point")
    hits = _hits(map(cat.region, group), [p.theta1, p.theta2], p.values(), cat)
    return [name for name, hit in zip(group, hits) if hit]


@dataclass
class RawRange:
    lo: float
    hi: float
    src: str


@dataclass
class TypeIIRangeReport:
    point: ThetaParams
    matched_region: str
    raw_ranges: list[RawRange]
    merged: list[NumericPiece]
    kappa_start: float | None
    note: str = ""


def _climb(start: float, merged: list[NumericPiece]) -> float:
    """Lift the starting point to the end of the range piece that covers it.

    The merged pieces are sorted and disjoint, and two that touch are both
    open at the junction, so no piece covers the end of the one that
    lifted the point: one ascending pass finds the only lift.  A start on
    a closed end is lifted to itself.
    """
    return next((p.hi for p in merged if interval_contains([p], start)), start)


_FAMILIES = {"auto": ("a_leaves", "e_leaves"), "a": ("a_leaves",), "e": ("e_leaves",)}
# the regimes where the exponent of distribution holds outright: no ranges
_ASYMPTOTIC = ("bombieri_vinogradov", "Imaster", "Jmaster")


def type_ii_range(
    params: ThetaParams, cat: Catalog | None = None, family: str = "auto"
) -> TypeIIRangeReport:
    """Raw and merged Type-II ranges plus the lifted starting point.

    family selects the subregion family to search: 'a' (absolute-value
    factored moduli), 'e' (bilinear) or 'auto' (a first, then e); any
    other value raises RegionError.
    """
    # The two leaf families model different modulus settings and may overlap
    # on the parameter plane; search them in order unless one is forced.
    search = _FAMILIES.get(family)
    if search is None:
        raise RegionError(f"unknown family {family!r}; expected one of {', '.join(_FAMILIES)}")
    cat = cat or default_catalog()
    p = params.reduce_to_two()
    vals = p.values()
    th = p.theta

    if p.arity == 1:
        if th >= 4 / 7:
            raise RegionError("single-exponent mode covers theta < 4/7")
        name = "theta_mode" if th >= 0.5 else "bombieri_vinogradov"
    else:
        for grp in search:
            leaves = classify(p, grp, cat)
            if len(leaves) > 1:
                raise AmbiguityError(leaves)
            if leaves:
                (name,) = leaves
                break
        else:
            masters = ("Imaster", "Jmaster")
            hits = _hits(map(cat.region, masters), [p.theta1, p.theta2], vals, cat)
            name = next((name for name, hit in zip(masters, hits) if hit), None)
            if name is None:
                raise RegionError("no catalogued subregion contains the point")
    if name in _ASYMPTOTIC:
        return TypeIIRangeReport(
            params, name, [], [], None, note="asymptotic (exponent of distribution) regime"
        )
    union = cat.record("ranges", name)
    pieces = union.evaluated(vals)
    raw = [RawRange(q.lo, q.hi, pc.src) for q, pc in zip(pieces, union.pieces)]
    merged = merge_numeric(pieces)
    start = _climb(kappa(th, p.eps), merged) if in_kappa_domain(th) else None
    return TypeIIRangeReport(params, name, raw, merged, start)
