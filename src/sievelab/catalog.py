"""Region catalog: structured-text records for every named region, Type-II
range list and integral definition.

The grammar is line-oriented (see docs/catalog_format.md and the shipped
data/catalog.txt).  Records:

    region NAME dim=<k|any>
      bound t<i> = [EXPR, EXPR]          # optional sampling box, per variable
      where BOOLEXPR                     # may continue over multiple lines
    end

    ranges NAME
      piece (EXPR, EXPR) src=LABEL       # ( ) open, [ ] closed endpoints
      ...
    end

    integral NAME dim=<k> region=NAME weight=<reciprocal|buchstab|one> \
        mult=<rational> [sorted]

    group NAME: member1 member2 ...

BOOLEXPR uses and/or/not, parentheses, comparison chains over affine
expressions (variables t1, t2, ... numbered from 1, tsum/tmin/tmax,
parameter names), and the atoms in(NAME), in(NAME; t1, t2+t3),
splits(NAME) and descending.  Parsing and serialisation round-trip
losslessly.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .regions import (
    PARAM_NAMES,
    SPECIALS,
    AffineForm,
    BoolNode,
    Comparison,
    Descending,
    IntervalPiece,
    IntervalUnion,
    Membership,
    RegionError,
    RegionSpec,
    Splits,
)
# re-exported: the integral names and defaults live in the import-free `shared`
from .shared import DEFAULT_BUDGET, DEFAULT_SEED, NAMED

__all__ = ["Catalog", "IntegralDef", "load_catalog", "default_catalog", "dumps"]

ENV_VAR = "SIEVELAB_CATALOG"

# A token (number, name or operator) in group 1, or a stray character in
# group 2; whitespace between tokens matches neither and is skipped.
_TOKEN_RE = re.compile(
    r"(\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|<=|>=|[-<>+*/(),;=])|(\S)"
)
_VAR_RE = re.compile(r"t(\d+)")


def _tokenize(text: str) -> list[str]:
    pairs = _TOKEN_RE.findall(text)
    if not pairs:
        return []
    toks, stray = zip(*pairs)
    bad = "".join(stray)
    if bad:
        raise RegionError(f"cannot tokenize {bad[0]!r} in {text!r}")
    return list(toks)


def _var_index(tok: str) -> int:
    m = _VAR_RE.fullmatch(tok)
    if not m:
        raise RegionError(f"expected variable t<i>, got {tok!r}")
    idx = int(m.group(1))
    if idx == 0:
        raise RegionError("variables are numbered from t1; t0 is not allowed")
    return idx


# An affine expression is accumulated as a linear combination: a dict from
# symbol keys to coefficients (int or Fraction, exact either way).  A key is
# (kind, name) with kind 0 for the constant, 1 for a parameter, 2 for a
# variable (name its index) and 3 for a special, so that sorting the keys
# orders every kind as AffineForm.make does.
_CONST = (0, "")
_SYMBOLS = {**{p: (1, p) for p in PARAM_NAMES}, **{s: (3, s) for s in SPECIALS}}
_ZERO = Fraction(0)


def _is_const(acc: dict) -> bool:
    return all(not v for k, v in acc.items() if k != _CONST)


def _form(acc: dict) -> AffineForm:
    """The AffineForm of a linear combination: sorted, zero-free tuples."""
    parts: tuple[list, ...] = ([], [], [], [])
    for (kind, name), coef in sorted(acc.items()):
        if coef:
            parts[kind].append((name, coef if type(coef) is Fraction else Fraction(coef)))
    const = parts[0][0][1] if parts[0] else _ZERO
    return AffineForm(const, tuple(parts[1]), tuple(parts[2]), tuple(parts[3]))


# What may follow an arithmetic parenthesis that starts a comparison chain:
# a relation or an operator.  After a boolean parenthesis none of these can.
_CHAIN_FOLLOW = frozenset(("<", "<=", ">", ">=", "+", "-", "*", "/"))


# Tokens an affine expression may hold, besides numbers, variables and the
# names of _SYMBOLS.
_AFFINE_OPS = frozenset(("+", "-", "*", "/", "(", ")"))


class _Parser:
    def __init__(self, tokens: list[str], forms: dict | None = None):
        self.toks = tokens + [None]  # the sentinel None ends every expression
        self.i = 0
        # the AffineForm of each token span parse_affine has used up, which
        # the parsers of one catalog share
        self.forms = {} if forms is None else forms

    def peek(self) -> str | None:
        return self.toks[self.i]

    def next(self) -> str:
        tok = self.toks[self.i]
        if tok is None:
            raise RegionError("unexpected end of expression")
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        """Whether the cursor is at tok, stepping past it if so."""
        if self.toks[self.i] != tok:
            return False
        self.i += 1
        return True

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise RegionError(f"expected {tok!r}, got {got!r}")

    # ----- boolean grammar -----

    def parse_bool(self, op: str = "or") -> BoolNode:
        """An `op` junction, or its one operand; `and` binds tighter than `or`."""
        operand = (lambda: self.parse_bool("and")) if op == "or" else self.parse_unary
        children = [operand()]
        while self.accept(op):
            children.append(operand())
        return children[0] if len(children) == 1 else BoolNode(op, tuple(children))

    def parse_unary(self) -> BoolNode:
        if self.accept("not"):
            return BoolNode("not", (self.parse_unary(),))
        tok = self.peek()
        if tok == "true" or tok == "false":
            self.next()
            return BoolNode("const", value=(tok == "true"))
        if self.accept("descending"):
            return BoolNode("atom", atom=Descending())
        if tok == "in":
            return self._parse_in()
        if tok == "splits":
            return self._parse_splits()
        if tok == "(" and self._after_parenthesis() not in _CHAIN_FOLLOW:
            self.next()
            node = self.parse_bool()
            self.expect(")")
            return node
        return self._parse_chain()

    def _after_parenthesis(self) -> str | None:
        """The token after the ")" that matches the "(" at the cursor."""
        depth = 0
        for j in range(self.i, len(self.toks) - 1):
            tok = self.toks[j]
            depth += (tok == "(") - (tok == ")")
            if not depth:
                return self.toks[j + 1]
        return None

    def _parse_in(self) -> BoolNode:
        self.expect("in")
        self.expect("(")
        name = self.next()
        groups: list[tuple[int, ...]] = []
        sep = ";"  # before the first group, and "," before each further one
        while self.accept(sep):
            grp = [_var_index(self.next())]
            while self.accept("+"):
                grp.append(_var_index(self.next()))
            groups.append(tuple(grp))
            sep = ","
        self.expect(")")
        return BoolNode("atom", atom=Membership(name, tuple(groups)))

    def _parse_splits(self) -> BoolNode:
        self.expect("splits")
        self.expect("(")
        name = self.next()
        self.expect(")")
        return BoolNode("atom", atom=Splits(name))

    def _parse_chain(self) -> BoolNode:
        first = self.parse_affine()
        rel = self.peek()
        if rel not in ("<", "<=", ">", ">="):
            raise RegionError(f"expected relation after expression, got {rel!r}")
        comps = []
        lhs = first
        while self.peek() in ("<", "<=", ">", ">="):
            op = self.next()
            rhs = self.parse_affine()
            comps.append(Comparison(lhs, op, rhs))
            lhs = rhs
        if len(comps) == 1:
            return BoolNode("atom", atom=comps[0])
        return BoolNode("and", tuple(BoolNode("atom", atom=c) for c in comps))

    # ----- affine grammar -----

    def parse_affine(self) -> AffineForm:
        """An affine expression, parsed once per distinct token span.

        The span runs from the cursor over the tokens an expression may
        hold, up to a ")" that closes a parenthesis opened before it.  A
        form is stored only when the parse used up exactly its span: then
        the tokens after the span cannot have changed it, and any text the
        parse rejects is parsed afresh, with the same error.
        """
        start, depth = self.i, 0
        end = start
        while (tok := self.toks[end]) is not None:
            if tok == ")" and not depth:
                break
            if tok in _AFFINE_OPS:
                depth += (tok == "(") - (tok == ")")
            elif not (tok in _SYMBOLS or tok[0].isdigit() or _VAR_RE.fullmatch(tok)):
                break
            end += 1
        span = tuple(self.toks[start:end])
        form = self.forms.get(span)
        if form is not None:
            self.i = end
            return form
        form = _form(self.parse_sum())
        if self.i == end:
            self.forms[span] = form
        return form

    def parse_sum(self) -> dict:
        acc = self.parse_term()
        while (op := self.peek()) == "+" or op == "-":
            self.i += 1
            for k, v in self.parse_term().items():
                acc[k] = acc.get(k, 0) + v if op == "+" else acc.get(k, 0) - v
        return acc

    def parse_term(self) -> dict:
        acc = self.parse_factor()
        while (op := self.peek()) == "*" or op == "/":
            self.i += 1
            rhs = self.parse_factor()
            if op == "/":
                if not _is_const(rhs) or not rhs.get(_CONST):
                    raise RegionError("division must be by a nonzero constant")
                c = 1 / Fraction(rhs[_CONST])
            elif _is_const(rhs):
                c = rhs.get(_CONST, 0)
            elif _is_const(acc):
                c, acc = acc.get(_CONST, 0), rhs
            else:
                raise RegionError("nonlinear product in affine expression")
            acc = {k: v * c for k, v in acc.items()}
        return acc

    def parse_factor(self) -> dict:
        tok = self.next()
        key = _SYMBOLS.get(tok)
        if key is not None:
            return {key: 1}
        if tok == "-":
            return {k: -v for k, v in self.parse_factor().items()}
        if tok == "(":
            acc = self.parse_sum()
            self.expect(")")
            return acc
        if tok[0].isdigit():
            return {_CONST: int(tok) if "." not in tok else Fraction(tok)}
        if _VAR_RE.fullmatch(tok):
            return {(2, _var_index(tok)): 1}
        raise RegionError(f"unknown symbol {tok!r}")


def _parse_all(text: str, parse, forms: dict | None = None):
    """parse(parser) over the tokens of text, which it must use up; forms
    is the parser's memo of affine expressions."""
    p = _Parser(_tokenize(text), forms)
    node = parse(p)
    if p.peek() is not None:
        raise RegionError(f"trailing tokens in {text!r}")
    return node


def parse_bool_expr(text: str) -> BoolNode:
    return _parse_all(text, _Parser.parse_bool)


def parse_affine_expr(text: str) -> AffineForm:
    return _parse_all(text, _Parser.parse_affine)


# ---------------------------------------------------------------------------
# Catalog records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralDef:
    name: str
    dim: int
    region: str
    weight: str  # 'reciprocal' | 'buchstab' | 'one'
    mult: Fraction
    sorted: bool = False


# the record keyword of each table, as the catalog text writes it
_KINDS = {"regions": "region", "ranges": "ranges", "integrals": "integral", "groups": "group"}


@dataclass
class Catalog:
    regions: dict[str, RegionSpec] = field(default_factory=dict)
    ranges: dict[str, IntervalUnion] = field(default_factory=dict)
    integrals: dict[str, IntegralDef] = field(default_factory=dict)
    groups: dict[str, list[str]] = field(default_factory=dict)
    # compiled region programs by (region, dimension), made on first use
    programs: dict = field(default_factory=dict, repr=False, compare=False)
    # atom ids of the programs' columns, by compiled (relation, lhs, rhs)
    atoms: dict = field(default_factory=dict, repr=False, compare=False)

    def record(self, table: str, name: str):
        """The named record of one table: 'regions', 'ranges', 'integrals'
        or 'groups'.  A missing record raises RegionError."""
        try:
            return getattr(self, table)[name]
        except KeyError:
            raise RegionError(f"unknown {_KINDS[table]} {name!r}") from None

    def region(self, name: str) -> RegionSpec:
        return self.record("regions", name)

    def validate(self) -> None:
        """No dangling references anywhere in the catalog."""
        for spec in self.regions.values():
            for ref in spec.referenced_regions():
                if ref not in self.regions:
                    raise RegionError(f"region {spec.name} references unknown {ref!r}")
        for name in self.ranges:
            # theta_mode is a standalone range list; everything else must
            # name a catalogued subregion.
            if name != "theta_mode" and name not in self.regions:
                raise RegionError(f"ranges record for unknown region {name!r}")
        for spec in self.integrals.values():
            if spec.region not in self.regions:
                raise RegionError(f"integral {spec.name} references unknown {spec.region!r}")
        for grp, members in self.groups.items():
            for m in members:
                if m not in self.regions:
                    raise RegionError(f"group {grp} lists unknown region {m!r}")


def _add(table: dict, kind: str, name: str, record) -> None:
    if name in table:
        raise RegionError(f"duplicate {kind} {name!r}")
    table[name] = record


def _match(pattern: str, line: str, what: str) -> tuple:
    """The groups of the pattern, which must match the whole line."""
    m = re.fullmatch(pattern, line)
    if not m:
        raise RegionError(f"bad {what}: {line!r}")
    return m.groups()


def loads(text: str) -> Catalog:
    cat = Catalog()
    # the lines of the text, comments stripped and blank lines dropped
    lines = (s for s in (line.split("#", 1)[0].strip() for line in text.splitlines()) if s)
    # A catalog repeats a few affine expressions many times: the packaged
    # one writes 2,015 comparison sides and endpoints in 187 distinct
    # expressions.  Each is parsed once (AffineForm is immutable, so
    # records share it), and each distinct endpoint text tokenized once.
    forms: dict[tuple, AffineForm] = {}
    endpoints: dict[str, AffineForm] = {}

    def endpoint(expr: str) -> AffineForm:
        expr = expr.strip()
        form = endpoints.get(expr)
        if form is None:
            form = endpoints[expr] = _parse_all(expr, _Parser.parse_affine, forms)
        return form

    def body(header: str):
        """The lines of the record opened by `header`, up to its end."""
        for row in lines:
            if row == "end":
                return
            yield row
        raise RegionError(f"record {header!r} has no end")

    for line in lines:
        if line.startswith("region "):
            name, dim = _match(r"region\s+(\S+)\s+dim=(any|\d+)", line, "region header")
            dim = None if dim == "any" else int(dim)
            bounds: dict[int, tuple[AffineForm, AffineForm]] = {}
            where: list[str] = []  # the where clause, once it has begun
            for row in body(line):
                if row.startswith("bound "):
                    var, lo, hi = _match(r"bound\s+(t\d+)\s*=\s*\[(.*),(.*)\]", row, "bound line")
                    idx = _var_index(var)
                    if dim is not None and idx > dim:
                        raise RegionError(f"bound t{idx} out of range for region {name} dim={dim}")
                    if idx in bounds:
                        raise RegionError(f"region {name} bounds t{idx} twice")
                    bounds[idx] = (endpoint(lo), endpoint(hi))
                elif row.startswith("where "):
                    where.append(row[len("where ") :])
                elif where:
                    where.append(row)
                else:
                    raise RegionError(f"unexpected line in region {name}: {row!r}")
            if not where:
                raise RegionError(f"region {name} has no where clause")
            tree = _parse_all(" ".join(where), _Parser.parse_bool, forms)
            _add(cat.regions, "region", name, RegionSpec(name, dim, tree, bounds))
        elif line.startswith("ranges "):
            (name,) = _match(r"ranges\s+(\S+)", line, "ranges header")
            pieces: list[IntervalPiece] = []
            for row in body(line):
                lb, lo, hi, rb, src = _match(
                    r"piece\s+([(\[])(.*),(.*)([)\]])\s+src=(\S+)", row, "piece line")
                pieces.append(IntervalPiece(endpoint(lo), endpoint(hi), lb == "(", rb == ")", src))
            _add(cat.ranges, "ranges", name, IntervalUnion(pieces))
        elif line.startswith("integral "):
            name, dim, region, weight, mult, tail = _match(
                r"integral\s+(\S+)\s+dim=(\d+)\s+region=(\S+)"
                r"\s+weight=(reciprocal|buchstab|one)\s+mult=(\S+)(\s+sorted)?",
                line,
                "integral line",
            )
            try:
                mult = Fraction(mult)
            except (ValueError, ZeroDivisionError):
                raise RegionError(f"bad integral line: {line!r}") from None
            _add(cat.integrals, "integral", name,
                 IntegralDef(name, int(dim), region, weight, mult, sorted=bool(tail)))
        elif line.startswith("group "):
            name, members = _match(r"group\s+(\S+)\s*:\s*(.*)", line, "group line")
            members = members.split()
            for i, m in enumerate(members):
                if m in members[:i]:
                    raise RegionError(f"group {name} lists region {m!r} twice")
            _add(cat.groups, "group", name, members)
        else:
            raise RegionError(f"unrecognised catalog line: {line!r}")
    cat.validate()
    return cat


def load_catalog(path: str) -> Catalog:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


_DEFAULT: Catalog | None = None
_FROM_ENV: tuple[tuple, Catalog] | None = None  # ((path, inode, size, mtime), catalog)


def default_catalog() -> Catalog:
    """Catalog from SIEVELAB_CATALOG if set, else the packaged data file.

    The file named by SIEVELAB_CATALOG is parsed again only when its path,
    inode, size or modification time changes (a rewrite that keeps all four
    is not seen)."""
    global _DEFAULT, _FROM_ENV
    env = os.environ.get(ENV_VAR)
    if env:
        st = os.stat(env)
        key = (env, st.st_ino, st.st_size, st.st_mtime_ns)
        if _FROM_ENV is None or _FROM_ENV[0] != key:
            _FROM_ENV = (key, load_catalog(env))
        return _FROM_ENV[1]
    if _DEFAULT is None:
        text = resources.files("sievelab.data").joinpath("catalog.txt").read_text()
        _DEFAULT = loads(text)
    return _DEFAULT


# ---------------------------------------------------------------------------
# Serialisation (lossless round-trip)
# ---------------------------------------------------------------------------


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _affine_str(form: AffineForm) -> str:
    symbols = [*form.params, *((f"t{idx}", coef) for idx, coef in form.vars), *form.specials]
    out = _frac_str(form.const) if form.const != 0 or not symbols else ""
    for sym, coef in symbols:
        mag = abs(coef)
        body = sym if mag == 1 else f"{_frac_str(mag)}*{sym}"
        if out:
            out += f" {'-' if coef < 0 else '+'} {body}"
        else:
            out = "-" + body if coef < 0 else body
    return out


def _bool_str(node: BoolNode, parent: str = "or") -> str:
    if node.op == "const":
        return "true" if node.value else "false"
    if node.op == "atom":
        a = node.atom
        if isinstance(a, Comparison):
            return f"{_affine_str(a.lhs)} {a.rel} {_affine_str(a.rhs)}"
        if isinstance(a, Membership):
            if a.groups:
                grps = ", ".join("+".join(f"t{i}" for i in g) for g in a.groups)
                return f"in({a.region}; {grps})"
            return f"in({a.region})"
        if isinstance(a, Splits):
            return f"splits({a.region})"
        if isinstance(a, Descending):
            return "descending"
        raise RegionError(f"unknown atom {a!r}")
    if node.op == "not":
        inner = _bool_str(node.children[0], "not")
        return f"not {inner}"
    sep = f" {node.op} "
    body = sep.join(_bool_str(c, node.op) for c in node.children)
    need_paren = (node.op == "or" and parent in ("and", "not")) or (
        node.op == "and" and parent == "not"
    )
    return f"({body})" if need_paren else body


def dumps(cat: Catalog) -> str:
    out: list[str] = []
    for name, spec in cat.regions.items():
        dim = "any" if spec.dimension is None else str(spec.dimension)
        out.append(f"region {name} dim={dim}")
        for idx in sorted(spec.bounds):
            lo, hi = spec.bounds[idx]
            out.append(f"  bound t{idx} = [{_affine_str(lo)}, {_affine_str(hi)}]")
        out.append(f"  where {_bool_str(spec.tree)}")
        out.append("end")
    for name, union in cat.ranges.items():
        out.append(f"ranges {name}")
        for p in union.pieces:
            lb = "(" if p.lo_open else "["
            rb = ")" if p.hi_open else "]"
            out.append(f"  piece {lb}{_affine_str(p.lo)}, {_affine_str(p.hi)}{rb} src={p.src}")
        out.append("end")
    for spec in cat.integrals.values():
        tail = " sorted" if spec.sorted else ""
        out.append(
            f"integral {spec.name} dim={spec.dim} region={spec.region} "
            f"weight={spec.weight} mult={_frac_str(spec.mult)}{tail}"
        )
    for name, members in cat.groups.items():
        out.append(f"group {name}: {' '.join(members)}")
    return "\n".join(out) + "\n"
