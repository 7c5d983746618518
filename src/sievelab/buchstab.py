"""Buchstab function omega(u) and its explicit lower/upper envelopes.

omega solves the delay differential equation (u*omega(u))' = omega(u-1) with
omega(u) = 1/u on [1,2].  Closed forms give omega exactly on [1, 4]; a table
continues the solution to u = 64 by cumulative trapezoidal integration of the
integral form u*omega(u) = 4*omega(4) + int_4^u omega(t-1) dt, and beyond 64
omega is its limit e^{-gamma} (omega - e^{-gamma} decays faster than
exponentially, de Bruijn 1950).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BuchstabTable",
    "default_table",
    "omega",
    "omega_lower",
    "omega_upper",
    "omega_many",
]

DEFAULT_GRID_STEP = 1e-4
DEFAULT_U_MAX = 64.0
EXP_NEG_GAMMA = math.exp(-0.57721566490153286)

# Envelope constants for the tail branches.
LOWER_34 = 0.5607
UPPER_34 = 0.5644
LOWER_4 = 0.5612
UPPER_4 = 0.5617

# c_k = B_{2k}/(2k+1)!: the Bernoulli series of the dilogarithm,
# Li2(1 - e^{-L}) = L - L^2/4 + sum_k c_k L^{2k+1}, truncated after k = 8.
_LI2_COEFFS = (
    1 / 36,
    -1 / 3600,
    1 / 211680,
    -1 / 10886400,
    1 / 526901760,
    -691 / 16999766784000,
    1 / 1120863744000,
    -3617 / 181400588328960000,
)


def _closed_form_23(u):
    """Exact omega on [2, 3]: (1 + log(u-1))/u, for a float or an array.

    There is no np.asarray: a float wrapped in a 0-d array costs 4-9 us a
    call, where the arithmetic on it takes 0.3-2 us.  The one step that is
    not plain IEEE arithmetic is np.log, taken for floats and arrays alike
    (math.log differs from it in the last bit at some points), so a float
    gets bitwise the value an array entry gets."""
    return (1.0 + np.log(u - 1.0)) / u


def _closed_form_34(u):
    """Exact omega on [3, 4], for a float or an array, as in
    `_closed_form_23`.

    u*omega(u) = 1 + pi^2/12 + log(u-1) + log(u-1)*log(u-2) + Li2(2-u);
    Landen's identity at w = (u-2)/(u-1) turns log(u-1) + Li2(2-u) into
    -L^2/4 - sum_k c_k L^{2k+1} with L = log(u-1) <= log 3.
    """
    L = np.log(u - 1.0)
    L2 = L * L
    series = 0.0
    for c in reversed(_LI2_COEFFS):
        series = series * L2 + c
    return (1.0 + math.pi**2 / 12 + L * np.log(u - 2.0) - L2 / 4 - series * L2 * L) / u


class BuchstabTable:
    """Sampled omega on a uniform grid over [1, DEFAULT_U_MAX], immutable
    once built."""

    def __init__(self, grid_step: float = DEFAULT_GRID_STEP):
        if grid_step <= 0:
            raise ValueError("grid_step must be positive")
        self.grid_step = float(grid_step)
        self.per_unit = int(round(1.0 / grid_step))
        if abs(self.per_unit * grid_step - 1.0) > 1e-12:
            raise ValueError("grid_step must divide 1 exactly")
        self.values = self._build()
        self.values.flags.writeable = False

    def _build(self) -> np.ndarray:
        h = self.grid_step
        m = self.per_unit
        top = int(DEFAULT_U_MAX)
        u = 1.0 + h * np.arange((top - 1) * m + 1)
        vals = np.empty(len(u))
        # [1, 4]: the closed forms.
        vals[: m + 1] = 1.0 / u[: m + 1]
        vals[m + 1 : 2 * m + 1] = _closed_form_23(u[m + 1 : 2 * m + 1])
        vals[2 * m + 1 : 3 * m + 1] = _closed_form_34(u[2 * m + 1 : 3 * m + 1])
        # (4, top]: u*omega(u) = 4*omega(4) + int_4^u omega(t-1) dt,
        # accumulated trapezoidally one unit block at a time so that the
        # integrand omega(t-1) is always already tabulated.
        f = 4.0 * vals[3 * m]
        for b in range(top - 4):
            lo = (2 + b) * m  # grid index of u-1 at the block start
            g = vals[lo : lo + m + 1]  # omega(t-1) across the block
            cum = f + np.cumsum(0.5 * h * (g[:-1] + g[1:]))
            idx0 = (3 + b) * m + 1
            vals[idx0 : idx0 + m] = cum / u[idx0 : idx0 + m]
            f = cum[-1]
        return vals

    def omega(self, u: float) -> float:
        """Evaluate omega(u): closed forms below 4, table interpolation to
        DEFAULT_U_MAX, e^{-gamma} beyond."""
        if not u >= 1.0:
            raise ValueError("omega is defined for u >= 1")
        if u <= 2.0:
            return 1.0 / u
        if u <= 3.0:
            return float(_closed_form_23(u))
        if u <= 4.0:
            return float(_closed_form_34(u))
        if u > DEFAULT_U_MAX:
            return EXP_NEG_GAMMA
        # `_interp` in Python floats: the same operations in the same order
        pos = (u - 1.0) / self.grid_step
        idx = min(int(pos), len(self.values) - 2)
        frac = pos - idx
        return self.values.item(idx) * (1.0 - frac) + self.values.item(idx + 1) * frac

    def omega_many(self, u: np.ndarray) -> np.ndarray:
        """Vectorised omega for u >= 1: table interpolation, e^{-gamma}
        beyond DEFAULT_U_MAX."""
        u = np.asarray(u, dtype=float)
        if u.size and not float(u.min()) >= 1.0:
            raise ValueError("omega is defined for u >= 1")
        return np.where(u > DEFAULT_U_MAX, EXP_NEG_GAMMA, self._interp(u))

    def _interp(self, u: np.ndarray) -> np.ndarray:
        pos = (u - 1.0) / self.grid_step
        idx = np.clip(pos.astype(np.int64), 0, len(self.values) - 2)
        frac = pos - idx
        return self.values[idx] * (1.0 - frac) + self.values[idx + 1] * frac


_DEFAULT: BuchstabTable | None = None


def default_table() -> BuchstabTable:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BuchstabTable()
    return _DEFAULT


def omega(u: float) -> float:
    """Buchstab omega(u) via the shared default table."""
    return default_table().omega(u)


def omega_many(u: np.ndarray) -> np.ndarray:
    return default_table().omega_many(u)


def omega_lower(u: float) -> float:
    """Lower envelope: omega below 3, omega clamped from below at 0.5607
    on [3,4), constant 0.5612 beyond."""
    if u >= 4.0:
        return LOWER_4
    return max(omega(u), LOWER_34) if u >= 3.0 else omega(u)


def omega_upper(u: float) -> float:
    """Upper envelope: omega below 3, omega capped at 0.5644 on [3,4),
    constant 0.5617 beyond."""
    if u >= 4.0:
        return UPPER_4
    return min(omega(u), UPPER_34) if u >= 3.0 else omega(u)

