"""Command-line front end.

Subcommands: buchstab, typeii, integral, verify, each taking only the flags
it reads; any other flag is a usage error.  Exit codes: 0 success, 2
domain/validation or usage error, 3 ambiguous classification, 4
verification failure.  At import this module loads only the standard
library and the import-free `shared` (the error types, the integral names
and defaults).
Each command imports what it calls: `typeii`, `integral` and the `L7`,
`I56` and `calibration` suites load the catalog (`catalog`, `params`,
`regions`); `buchstab` and the `buchstab` suite load `buchstab` and numpy;
the `divisor` and `tables26` suites load `divisors` and `tables`, which
need neither numpy nor the catalog.  Only `integral` and the three
quadrature suites load `quadrature`, and through it `cubature` for the
weights `one` and `reciprocal`; `verify calibration` samples.
`default_catalog` and `load_catalog` stay readable as attributes of this
module, imported on first use.
Output is deterministic for a fixed configuration (seed included); the csv
format prints full precision, plain/markdown print 6 significant digits.
The provenance column distinguishes published reference values from
numbers computed here.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from .shared import DEFAULT_BUDGET, DEFAULT_SEED, NAMED, AmbiguityError, RegionError

PUBLISHED = "published"
COMPUTED = "computed"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_AMBIGUOUS = 3
EXIT_VERIFY = 4

MAX_TABLE_ROWS = 10**6  # rows of the longest table `buchstab` builds


def _fmt(x: float, full: bool) -> str:
    if full:
        return repr(float(x))
    return f"{float(x):.6g}"


def _emit_table(header, rows, fmt, out=None):
    out = out or sys.stdout
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    elif fmt == "markdown":
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _build_params(args, theta3=None):
    """The point the --theta flags give; only typeii takes --theta3."""
    from .params import ThetaParams

    eps = args.epsilon or 0.0
    if args.theta is not None:
        if args.theta1 is not None or args.theta2 is not None or theta3 is not None:
            raise RegionError("give the point by --theta or by --theta1/--theta2, not both")
        return ThetaParams(args.theta, eps=eps)
    if args.theta1 is None:
        raise RegionError("supply --theta or --theta1/--theta2")
    return ThetaParams(args.theta1, args.theta2, theta3, eps=eps)


def cmd_buchstab(args) -> int:
    from .buchstab import omega, omega_lower, omega_upper

    full = args.format == "csv"
    rows = []
    u = args.lo
    if not all(map(math.isfinite, (args.lo, args.hi, args.step))):
        raise RegionError("lo, hi and step must be finite")
    if args.step <= 0:
        raise RegionError("step must be positive")
    # the rows lo, lo + step, ... up to hi are counted before any is built
    steps = (args.hi + 1e-12 - args.lo) / args.step
    if steps >= MAX_TABLE_ROWS:
        raise RegionError(f"the table would hold about {steps:.3g} rows, "
                          f"more than {MAX_TABLE_ROWS}")
    while u <= args.hi + 1e-12:
        rows.append(
            (
                _fmt(u, full),
                _fmt(omega_lower(u), full),
                _fmt(omega(u), full),
                _fmt(omega_upper(u), full),
                COMPUTED,
            )
        )
        nxt = round(u + args.step, 12)
        if nxt <= u:
            raise RegionError(f"step {args.step!r} does not advance u = {u!r} at 12 decimals")
        u = nxt
    _emit_table(("u", "omega_lower", "omega", "omega_upper", "provenance"), rows, args.format)
    return EXIT_OK


def cmd_typeii(args) -> int:
    from .params import ThetaParams, type_ii_range

    point = args.point
    if len(point) > 3:
        raise RegionError(f"typeii takes at most three coordinates, got {len(point)}")
    if point and any(v is not None for v in (args.theta, args.theta1, args.theta2, args.theta3)):
        raise RegionError("give the point as coordinates or by --theta flags, not both")
    params = (ThetaParams(*point, eps=args.epsilon or 0.0) if point
              else _build_params(args, args.theta3))
    cat = _catalog(args)
    report = type_ii_range(params, cat, family=args.family)
    full = args.format == "csv"
    rows = []
    for raw in report.raw_ranges:
        rows.append(("raw", _fmt(raw.lo, full), _fmt(raw.hi, full), raw.src))
    for piece in report.merged:
        rows.append(("merged", _fmt(piece.lo, full), _fmt(piece.hi, full), "-"))
    print(f"region: {report.matched_region}")
    if report.note:
        print(f"note: {report.note}")
    if report.kappa_start is not None:
        print(f"kappa_start: {_fmt(report.kappa_start, full)}")
    if rows:
        _emit_table(("kind", "lo", "hi", "src"), rows, args.format)
    return EXIT_OK


def cmd_integral(args) -> int:
    from .quadrature import named_integral

    params = _build_params(args)
    cat = _catalog(args)
    res = named_integral(
        args.name, params, tol=args.tol, seed=args.seed, budget=args.budget, cat=cat,
        min_alpha_floor=(args.g_floor != "off"),
    )
    full = args.format == "csv"
    rows = [
        (
            args.name,
            _fmt(res.value, full),
            _fmt(res.est_error, full),
            str(res.samples),
            str(res.seed),
            res.flag or "-",
            COMPUTED,
        )
    ]
    _emit_table(
        ("integral", "value", "est_error", "samples", "seed", "flag", "provenance"),
        rows,
        args.format,
    )
    return EXIT_OK


def _verify_buchstab(args):
    from .buchstab import omega

    for label, u, last, lo, hi in (("omega within [3,4) band", 3.0, 3.99, 0.5607, 0.5644),
                                   ("omega within tail band", 4.0, 10.0, 0.5612, 0.5617)):
        good = True
        while u <= last:
            good &= lo - 1e-4 <= omega(u) <= hi + 1e-4
            u = round(u + 0.01, 10)
        yield label, good, f"bounds {lo}..{hi}", PUBLISHED


def _verify_divisor(args):
    from .divisors import FactorizationPattern, mobius_half_sum, omega3_midrange_count

    rng = random.Random(args.seed)
    good = True
    for _ in range(2000):
        k = rng.randint(1, 8)
        cuts = sorted(rng.random() for _ in range(k - 1))
        parts = []
        prev = 0.0
        for c in cuts + [1.0]:
            parts.append(c - prev)
            prev = c
        parts.sort(reverse=True)
        try:  # an invalid pattern, or a degenerate one (a DegeneracyError), is skipped
            pat = FactorizationPattern(parts)
            m = mobius_half_sum(pat)
            c3 = omega3_midrange_count(pat)
        except ValueError:
            continue
        if k == 1 and m != 1:
            good = False
        if c3 % 2:
            good = False
        if k == 5:
            g = c3 - m
            if not 0 <= g <= 2:
                good = False
    yield "divisor sweep", good, "case table and gap bracket", COMPUTED


def _verify_tables26(args):
    from .tables import verify_triple_tables

    for label, passed, provenance in verify_triple_tables():
        yield label, passed, "row verdict", provenance


def _verify_L7(args):
    from .quadrature import eval_L7

    cat = _catalog(args)
    r11 = eval_L7(1 / 11, tol=5e-3, seed=args.seed, budget=args.budget, cat=cat)
    yield "L7(1/11) < 0.84", r11.value < 0.84, f"value {r11.value:.6g}", PUBLISHED
    r12 = eval_L7(1 / 12, tol=5e-3, seed=args.seed, budget=args.budget, cat=cat)
    yield "L7(1/12) > 1.2", r12.value > 1.2, f"value {r12.value:.6g}", PUBLISHED


def _verify_I56(args):
    from .params import ThetaParams
    from .quadrature import named_integral

    cat = _catalog(args)
    # D5 and D6 depend on theta1 + theta2 alone, so the published (0.33, 0.19)
    # would repeat (0.32, 0.20); the second point is chosen here, where both move
    points = ((0.32, 0.20, "", PUBLISHED),
              (0.33, 0.1902, ", where D5's and D6's boxes move", COMPUTED))
    for t1, t2, why, provenance in points:
        params = ThetaParams(t1, t2)
        r5 = named_integral("I5", params, tol=3e-6, seed=args.seed, budget=args.budget, cat=cat)
        r6 = named_integral("I6", params, tol=3e-6, seed=args.seed, budget=args.budget, cat=cat)
        total = r5.value + r6.value
        bound = 1e-5 + 3 * (r5.est_error + r6.est_error)
        yield (f"I5+I6 at ({t1}, {t2}){why}", total <= bound,
               f"value {total:.3g} <= {bound:.3g}", provenance)


def _verify_calibration(args):
    # a check of the sampler: integrate would take these simplices by cubature
    from .quadrature import sampled, stop_target

    cat = _catalog(args)
    tol, rel_tol = 1e-9, 5e-4
    for k in range(2, 7):
        res = sampled(cat.record("integrals", f"cal{k}"), {}, tol=tol, rel_tol=rel_tol,
                      seed=args.seed, budget=args.budget, cat=cat)
        expected = 1.0 / math.factorial(k)
        detail = f"value {res.value:.6g} vs {expected:.6g}"
        # sampling stops short of the error it was asked for only when the budget runs out
        target = stop_target(tol, rel_tol, res.value)
        if res.est_error > target:
            detail += (f"; budget ran out at {res.samples} samples with est_error "
                       f"{res.est_error:.3g} above its target {target:.3g}")
        yield (f"simplex volume k={k}", abs(res.value - expected) <= 0.003 * expected,
               detail, COMPUTED)


# each suite yields its checks as (label, ok, detail, provenance)
SUITES = {"buchstab": _verify_buchstab, "divisor": _verify_divisor, "tables26": _verify_tables26,
          "L7": _verify_L7, "I56": _verify_I56, "calibration": _verify_calibration}


def cmd_verify(args) -> int:
    checks = list(SUITES[args.suite](args))  # every check runs before a line is printed
    for label, ok, detail, provenance in checks:
        print(f"[{'pass' if ok else 'FAIL'}] {label}: {detail} [{provenance}]")
    return EXIT_OK if all(ok for _, ok, _, _ in checks) else EXIT_VERIFY


def _catalog(args):
    from .catalog import default_catalog, load_catalog

    # a catalog file that cannot be read is a configuration error (exit 2)
    try:
        if args.catalog:
            return load_catalog(args.catalog)
        return default_catalog()
    except OSError as exc:
        raise RegionError(f"cannot read catalog: {exc}") from None


def __getattr__(name: str):
    # the catalog's loaders stay attributes of this module (PEP 562), loaded on first use
    if name in ("default_catalog", "load_catalog"):
        from . import catalog

        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# each flag with its argparse options; a subcommand takes only the flags it reads
FLAGS = {
    "--format": dict(choices=("plain", "csv", "markdown"), default="plain"),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--tol": dict(type=float, default=1e-3),
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
    "--catalog": dict(default=None),
    "--epsilon": dict(type=float, default=None),
    "--theta": dict(type=float, default=None),
    "--theta1": dict(type=float, default=None),
    "--theta2": dict(type=float, default=None),
    "--theta3": dict(type=float, default=None),
}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sievelab")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, flags, **kw):
        p = sub.add_parser(name, **kw)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(usage_error=p.error)  # see main
        return p

    b = command("buchstab", ("--format",), help="tabulate omega and its envelopes")
    b.add_argument("lo", type=float)
    b.add_argument("hi", type=float)
    b.add_argument("step", type=float)
    b.set_defaults(func=cmd_buchstab)

    t = command("typeii", ("--format", "--catalog", "--epsilon", "--theta", "--theta1", "--theta2",
                           "--theta3"), help="classify a parameter point and merge its ranges")
    t.add_argument("point", type=float, nargs="*")
    t.add_argument("--family", choices=("auto", "a", "e"), default="auto")
    t.set_defaults(func=cmd_typeii)

    i = command("integral", [f for f in FLAGS if f != "--theta3"],
                help="evaluate a named loss integral")
    i.add_argument("name", choices=NAMED)
    i.add_argument(
        "--g-floor", choices=("on", "off"), default="on", dest="g_floor",
        help="whether the smallest-exponent floor joins the covering predicate",
    )
    i.set_defaults(func=cmd_integral)

    v = command("verify", ("--seed", "--budget", "--catalog"), help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    # An argument no parser takes is reported by the subcommand's parser,
    # with its usage line: parse_args would print the top-level one.
    args, extra = ap.parse_known_args(argv)
    if extra:
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except AmbiguityError as exc:
        print(f"ambiguous: {', '.join(exc.matches)}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (RegionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
