"""What each entry point imports: the package's lazy exports, and the
commands that never build an array load neither numpy nor the sampling
modules."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import sievelab

HEAVY = ("numpy", "sievelab.quadrature", "sievelab.buchstab", "sievelab.divisors",
         "sievelab.exact")

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "buchstab": ["BuchstabTable", "omega", "omega_lower", "omega_upper"],
    "catalog": ["Catalog", "default_catalog", "load_catalog"],
    "divisors": ["DegeneracyError", "FactorizationPattern", "divisor_count_gap",
                 "divisor_triple_verdict", "mobius_half_sum", "omega3_midrange_count"],
    "params": ["AmbiguityError", "ThetaParams", "classify", "kappa", "kappa_prime", "nu",
               "nu_prime", "tau", "tau_prime", "type_ii_range"],
    "quadrature": ["QuadratureResult", "eval_L7", "integrate", "named_integral"],
    "regions": ["AffineForm", "IntervalUnion", "RegionError", "RegionSpec", "contains",
                "interval_contains", "merge_intervals", "partitions_into"],
}


def loaded_after(*argvs):
    """The HEAVY modules loaded in a fresh interpreter after `import
    sievelab`, and after running each argv through the CLI (each must exit
    0), as one list per stage."""
    code = (
        "import contextlib, io, json, sys\n"
        "import sievelab\n"
        f"heavy = {HEAVY!r}\n"
        "stages = [[m for m in heavy if m in sys.modules]]\n"
        "import sievelab.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert sievelab.cli.main(argv) == 0, argv\n"
        "    stages.append([m for m in heavy if m in sys.modules])\n"
        "print(json.dumps(stages))\n"
    )
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    return json.loads(out.stdout)


def test_typeii_loads_no_numpy_nor_sampling_modules():
    stages = loaded_after(["typeii", "0.36", "0.141"],
                          ["typeii", "0.28", "0.23", "--family", "e", "--format", "csv"],
                          ["typeii", "0.52"])
    assert stages == [[], [], [], []]


def test_verify_buchstab_loads_no_quadrature():
    _, after = loaded_after(["verify", "buchstab"])
    assert "sievelab.buchstab" in after
    assert "sievelab.quadrature" not in after


def test_integral_loads_the_sampling_modules():
    _, after = loaded_after(["integral", "S235", "--theta", "0.52", "--budget", "65536"])
    assert {"numpy", "sievelab.quadrature", "sievelab.buchstab"} <= set(after)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_its_home_modules_object(module, name):
    assert getattr(sievelab, name) is getattr(import_module(f"sievelab.{module}"), name)


def test_exports_listed():
    names = {n for names in EXPORTS.values() for n in names}
    assert len(names) == 35
    assert names <= set(dir(sievelab))
    assert set(sievelab.__all__) == names


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sievelab.no_such_name  # noqa: B018
