"""What each entry point imports: the package's lazy exports, and the
commands that never build an array load neither numpy nor the sampling
modules, and those that never read the catalog load none of its modules."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import sievelab

HEAVY = ("numpy", "sievelab.quadrature", "sievelab.buchstab", "sievelab.divisors",
         "sievelab.exact")
CATALOG = ("sievelab.catalog", "sievelab.params", "sievelab.regions")

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
                "interval_contains"],
}


def loaded_after(*argvs, watch=HEAVY):
    """The watched modules loaded in a fresh interpreter after `import
    sievelab` and `import sievelab.cli`, and after running each argv through
    the CLI (each must exit 0), as one list per stage."""
    code = (
        "import contextlib, io, json, sys\n"
        "import sievelab, sievelab.cli\n"
        f"watch = {watch!r}\n"
        "stages = [[m for m in watch if m in sys.modules]]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert sievelab.cli.main(argv) == 0, argv\n"
        "    stages.append([m for m in watch if m in sys.modules])\n"
        "print(json.dumps(stages))\n"
    )
    return python(code)


def python(code, *argv):
    """What code, run with argv in a fresh interpreter that imports this
    checkout's sievelab, prints as JSON; it must exit 0."""
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
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


def test_divisor_suites_load_no_numpy():
    assert loaded_after(["verify", "tables26"], ["verify", "divisor"],
                        watch=("numpy",)) == [[], [], []]


def test_catalog_free_commands_load_no_catalog_module():
    stages = loaded_after(["buchstab", "1", "10", "0.01"], ["verify", "buchstab"],
                          ["verify", "tables26"], ["verify", "divisor"], watch=CATALOG)
    assert stages == [[]] * 5


def test_typeii_loads_the_catalog():
    # CATALOG names modules that load, so the test above cannot pass vacuously
    _, after = loaded_after(["typeii", "0.36", "0.141"], watch=CATALOG)
    assert after == list(CATALOG)


def test_cli_reaches_the_catalog_loaders():
    import sievelab.catalog
    import sievelab.cli

    assert sievelab.cli.default_catalog is sievelab.catalog.default_catalog
    assert sievelab.cli.load_catalog is sievelab.catalog.load_catalog
    with pytest.raises(AttributeError, match="no_such_name"):
        sievelab.cli.no_such_name  # noqa: B018


def test_errors_and_defaults_are_the_shared_modules_objects():
    from sievelab import catalog, cli, params, quadrature, regions, shared

    for module in (regions, params, catalog, cli, quadrature, sievelab):
        assert module.RegionError is shared.RegionError
    for module in (params, cli, sievelab):
        assert module.AmbiguityError is shared.AmbiguityError
    for module in (catalog, cli, quadrature):
        assert module.NAMED is shared.NAMED
        assert module.DEFAULT_SEED is shared.DEFAULT_SEED
        assert module.DEFAULT_BUDGET is shared.DEFAULT_BUDGET


def test_box_tests_on_splits_regions_load_no_numpy():
    # The box walker sums the subsets of a splits atom in Python floats, so
    # contains, definitely and the exact BoxTest run with numpy blocked.
    # D1 is not in(G), and G holds splits(gunion) and splits(Tstar3).
    from sievelab.catalog import default_catalog
    from sievelab.params import ThetaParams

    lo, hi = default_catalog().region("D1").box(ThetaParams(0.52).values(), 3)
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from sievelab.catalog import default_catalog\n"
        "from sievelab.exact import BoxTest\n"
        "from sievelab.params import ThetaParams\n"
        "from sievelab.regions import contains, definitely\n"
        "cat, vals = default_catalog(), ThetaParams(0.52).values()\n"
        "lo, hi = json.loads(sys.argv[1])\n"
        "out = [contains(cat.region(name), point, vals, cat) for name in ('S_fam', 'GG')\n"
        "       for point in ([0.3, 0.2, 0.1], [0.3, 0.25, 0.2])]\n"
        "out.append(definitely(cat.region('GG'), [0.2, 0.1, 0.05], [0.22, 0.12, 0.06], vals, cat))\n"
        "test = BoxTest(cat.region('D1'), 3, vals, cat)\n"
        "half = [(a + b) / 2 for a, b in zip(lo, hi)]\n"
        "out += [test(lo, hi), test(lo, half), test(half, hi)]\n"
        "print(json.dumps(out))\n"
    )
    got = python(code, json.dumps([lo.tolist(), hi.tolist()]))
    assert got == [True, False, True, False, True, None, False, False]


def test_integral_loads_the_sampling_modules():
    _, after = loaded_after(["integral", "S235", "--theta", "0.52", "--budget", "65536"])
    assert {"numpy", "sievelab.quadrature", "sievelab.buchstab"} <= set(after)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_its_home_modules_object(module, name):
    assert getattr(sievelab, name) is getattr(import_module(f"sievelab.{module}"), name)


def test_exports_listed():
    names = {n for names in EXPORTS.values() for n in names}
    assert len(names) == 33
    assert names <= set(dir(sievelab))
    assert set(sievelab.__all__) == names


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sievelab.no_such_name  # noqa: B018
