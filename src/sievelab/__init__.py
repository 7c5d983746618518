"""sievelab: a numerical laboratory for sieve-decomposition bookkeeping.

Submodules: buchstab (the delay-equation weight function and its
envelopes), regions (parametric affine region algebra), catalog (the
structured-text region catalog), params (piecewise sieve parameters,
classification, Type-II assembly), quadrature (loss integrals), cubature
(loss integrals over one convex polytope, for quadrature), exact (the exact
box test and its emptiness certificates, for quadrature), divisors
(squarefree factorization-pattern combinatorics), tables (divisor-triple
example tables), shared (the error types and integral defaults, importing
nothing), cli (command-line front end).

The names below are exported lazily, by a module ``__getattr__`` (PEP 562):
each is imported from its submodule on first use.  So ``import sievelab``
runs no submodule, and numpy, which buchstab and quadrature import, loads
only with them.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BuchstabTable", "omega", "omega_lower", "omega_upper"), "buchstab"),
    **dict.fromkeys(("Catalog", "default_catalog", "load_catalog"), "catalog"),
    **dict.fromkeys(("DegeneracyError", "FactorizationPattern", "divisor_count_gap",
                     "divisor_triple_verdict", "mobius_half_sum", "omega3_midrange_count"),
                    "divisors"),
    **dict.fromkeys(("ThetaParams", "classify", "kappa", "kappa_prime", "nu",
                     "nu_prime", "tau", "tau_prime", "type_ii_range"), "params"),
    **dict.fromkeys(("QuadratureResult", "eval_L7", "integrate", "named_integral"), "quadrature"),
    **dict.fromkeys(("AffineForm", "IntervalUnion", "RegionSpec", "contains",
                     "interval_contains"), "regions"),
    **dict.fromkeys(("AmbiguityError", "RegionError"), "shared"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
