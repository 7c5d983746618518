"""sievelab: a numerical laboratory for sieve-decomposition bookkeeping.

Submodules: buchstab (the delay-equation weight function and its
envelopes), regions (parametric affine region algebra), catalog (the
structured-text region catalog), params (piecewise sieve parameters,
classification, Type-II assembly), quadrature (loss integrals), divisors
(squarefree factorization-pattern combinatorics), tables (divisor-triple
example tables), cli (command-line front end).
"""

from .buchstab import BuchstabTable, omega, omega_lower, omega_upper
from .catalog import Catalog, default_catalog, load_catalog
from .divisors import (
    DegeneracyError,
    FactorizationPattern,
    divisor_count_gap,
    divisor_triple_verdict,
    mobius_half_sum,
    omega3_midrange_count,
)
from .params import (
    AmbiguityError,
    ThetaParams,
    classify,
    kappa,
    kappa_prime,
    nu,
    nu_prime,
    tau,
    tau_prime,
    type_ii_range,
)
from .quadrature import QuadratureResult, eval_L7, integrate, named_integral
from .regions import (
    AffineForm,
    IntervalUnion,
    RegionError,
    RegionSpec,
    contains,
    interval_contains,
    merge_intervals,
    partitions_into,
)

__version__ = "0.1.0"
