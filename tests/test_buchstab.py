import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import sievelab
from sievelab import buchstab
from sievelab.buchstab import (
    GRID_STEP,
    PER_UNIT,
    _closed_form_23,
    _closed_form_34,
    default_table,
    omega,
    omega_lower,
    omega_many,
    omega_upper,
)

EXP_NEG_GAMMA = math.exp(-0.5772156649015329)


def test_reciprocal_branch():
    assert omega(1.5) == pytest.approx(2 / 3, abs=1e-15)
    assert omega_lower(1.5) == pytest.approx(2 / 3, abs=1e-15)
    assert omega_upper(1.5) == pytest.approx(2 / 3, abs=1e-15)


def test_log_branch():
    assert omega(2.5) == pytest.approx((1 + math.log(1.5)) / 2.5, abs=1e-12)
    assert omega(2.5) == pytest.approx(0.562186, abs=5e-7)


def test_band_on_34():
    assert 0.5607 <= omega(3.5) <= 0.5644
    assert omega_lower(3.2) >= 0.5607
    assert omega_upper(3.2) <= 0.5644


def test_tail_constants():
    assert omega_lower(5.0) == 0.5612
    assert omega_upper(5.0) == 0.5617
    assert omega_lower(4.0) == 0.5612
    assert omega_upper(100.0) == 0.5617


def test_domain_errors():
    # NaN compares False with everything: it must not slip past the check
    for u in (0.999, math.nan):
        for fn in (omega, omega_lower, omega_upper):
            with pytest.raises(ValueError, match="omega is defined for u >= 1"):
                fn(u)
    for u in ([2.0, 0.999], [math.nan, 2.5], [2.5, math.nan]):
        with pytest.raises(ValueError, match="omega is defined for u >= 1"):
            omega_many(np.array(u))


def test_table_invariants():
    tab = default_table()
    # 1/u on the first unit block, to machine precision.
    for idx in range(0, PER_UNIT + 1, 250):
        u = 1.0 + idx * GRID_STEP
        assert abs(tab.values[idx] - 1.0 / u) <= 1e-12


def test_envelopes_bracket_omega():
    rng = random.Random(17)
    # every join of the branches, and its neighbours on both sides
    joins = [2.0, 3.0, 4.0, 64.0]
    joins += [math.nextafter(u, 0.0) for u in joins] + [math.nextafter(u, 100.0) for u in joins]
    for u in [*joins, *(rng.uniform(1.0, 20.0) for _ in range(10_000))]:
        assert omega_lower(u) <= omega(u) <= omega_upper(u)


def test_delay_equation_residual():
    h = GRID_STEP
    rng = random.Random(5)
    for _ in range(1000):
        u = rng.uniform(2.1, 19.9)
        # centred finite difference of u*omega(u) on the table grid
        left = (u - h) * omega(u - h)
        right = (u + h) * omega(u + h)
        deriv = (right - left) / (2 * h)
        assert abs(deriv - omega(u - 1.0)) <= 10 * h


def test_continuity_at_joins():
    eps = 1e-9
    for u0 in (2.0, 3.0, 4.0):
        lo = omega(u0 - eps)
        hi = omega(u0 + eps)
        assert abs(lo - hi) <= 1e-8
    # The table ends at 64, where omega has converged to e^{-gamma}.
    assert abs(omega(64.0) - EXP_NEG_GAMMA) <= 1e-11
    assert abs(omega(64.0 + eps) - EXP_NEG_GAMMA) <= 1e-11


def test_table_against_quadrature_on_45():
    # on (4, 5] u*omega(u) = 4*omega(4) + int_4^u omega(t-1) dt, with the
    # integrand the closed form on [3, 4]
    from scipy.integrate import quad

    rng = random.Random(11)
    for _ in range(200):
        u = rng.uniform(4.0, 5.0)
        area = quad(lambda t: float(_closed_form_34(t - 1.0)), 4.0, u, epsabs=0.0, epsrel=1e-13)[0]
        assert abs(omega(u) - (4.0 * omega(4.0) + area) / u) <= 1e-10


def test_omega_to_4_builds_no_table(monkeypatch):
    monkeypatch.setattr(buchstab, "_DEFAULT", None)
    for u in (1.5, 2.5, 3.5, 4.0):
        for fn in (omega, omega_lower, omega_upper):
            fn(u)
    assert buchstab._DEFAULT is None
    omega(4.5)
    assert isinstance(buchstab._DEFAULT, buchstab.BuchstabTable)


def test_scalar_table_lookup_equals_omega_many():
    # on (4, 64] the scalar omega interpolates in Python floats, bit for bit as numpy does
    rng = random.Random(12)
    u = [round(4.0 + i * 0.001, 12) for i in range(60_001)]
    u += [rng.uniform(4.0, 64.0) for _ in range(20_000)] + [math.nextafter(4.0, 5.0)]
    many = omega_many(np.array(u)).tolist()
    assert [omega(v) for v in u] == many


def test_scalar_closed_forms_equal_the_array_forms():
    # on [2, 4] the scalar omega takes the closed forms on floats, bit for bit
    # as the table takes them on arrays
    rng = random.Random(13)
    u = (1.0 + GRID_STEP * np.arange(PER_UNIT, 3 * PER_UNIT + 1)).tolist()
    u += [rng.uniform(2.0, 4.0) for _ in range(20_000)]
    u += [2.0, 3.0, 4.0, math.nextafter(2.0, 3.0), math.nextafter(3.0, 2.0),
          math.nextafter(3.0, 4.0), math.nextafter(4.0, 3.0)]
    for form, piece in ((_closed_form_23, [v for v in u if v <= 3.0]),
                        (_closed_form_34, [v for v in u if v > 3.0])):
        assert [omega(v) for v in piece] == form(np.array(piece)).tolist()


def test_tail_is_exp_neg_gamma():
    assert omega(100.0) == EXP_NEG_GAMMA
    assert (omega_many(np.array([64.5, 100.0])) == EXP_NEG_GAMMA).all()


def test_closed_form_34_against_dilogarithm():
    # u*omega(u) = 1 + pi^2/12 + log(u-1) + log(u-1)*log(u-2) + Li2(2-u),
    # with scipy's spence(x) = Li2(1-x).
    from scipy.special import spence

    u = np.linspace(3.0, 4.0, 10_001)
    ref = (1 + math.pi**2 / 12 + np.log(u - 1) * (1 + np.log(u - 2)) + spence(u - 1)) / u
    assert np.abs(_closed_form_34(u) - ref).max() <= 1e-14


def test_cli_path_loads_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "import sievelab.cli\n"
        "from sievelab import buchstab\n"
        "buchstab.default_table()\n"
        "buchstab.omega(3.5)\n"
        "buchstab.omega_lower(3.5)\n"
        "argv = ['integral', 'S235', '--theta', '0.52', '--budget', '65536']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert sievelab.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
