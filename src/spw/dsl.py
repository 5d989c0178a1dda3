"""Hand-written recursive-descent parser for the workbench DSL.

Grammar:

    manifest :=  block*
    block    :=  kind NAME "{" (stmt)* "}"
    kind     :=  algebra | lie | poisson | form | ideal | options | complex
    stmt     :=  key "=" expr ";"
    key      :=  NAME | NAME "[" INT "]" "[" INT "]" | NAME "(" NAME ")"
    expr     :=  sum of products of factors; factors are rationals p/q,
                 names, duals @name, powers f^k, calls name(args) and
                 comma lists at top level; line comments start with #.

Every numeric literal is an exact rational.  Parsing is total: either a
Manifest or a ParseError with line/column and the expected token set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat

from .errors import DuplicateName, ParseError, UnresolvedReference

BLOCK_KINDS = ("algebra", "lie", "poisson", "form", "ideal", "options", "complex")

_PUNCT = "{}()[]=;,*+-^@/"


@dataclass
class Token:
    kind: str  # 'name', 'number', or a punctuation char, or 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("number", source[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("name", source[start:i], line, start_col))
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col, expected=("token",))
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- expression AST ----------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Rat

    def show(self):
        return str(self.value)


@dataclass(frozen=True)
class Name:
    ident: str

    def show(self):
        return self.ident


@dataclass(frozen=True)
class Dual:
    ident: str

    def show(self):
        return "@" + self.ident


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

    def show(self):
        return f"{self.base.show()}^{self.exponent}"


@dataclass(frozen=True)
class Mul:
    factors: tuple

    def show(self):
        return "*".join(f.show() for f in self.factors)


@dataclass(frozen=True)
class Neg:
    arg: object

    def show(self):
        return f"-{self.arg.show()}"


@dataclass(frozen=True)
class Add:
    terms: tuple

    def show(self):
        out = self.terms[0].show()
        for t in self.terms[1:]:
            if isinstance(t, Neg):
                out += f" - {t.arg.show()}"
            else:
                out += f" + {t.show()}"
        return out


@dataclass(frozen=True)
class Call:
    ident: str
    args: tuple  # of Rat

    def show(self):
        return f"{self.ident}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Items:
    items: tuple

    def show(self):
        return ", ".join(x.show() for x in self.items)


@dataclass
class Block:
    kind: str
    name: str
    entries: list  # of (key tuple, expr AST); key = (base, *qualifiers)
    line: int = 0

    def get(self, key):
        for k, v in self.entries:
            if k == key:
                return v
        return None


@dataclass
class Manifest:
    blocks: list
    source: str = ""

    def block(self, name):
        for b in self.blocks:
            if b.name == name:
                return b
        raise UnresolvedReference(f"no block named {name!r}")

    def __eq__(self, other):
        return isinstance(other, Manifest) and [
            (b.kind, b.name, b.entries) for b in self.blocks
        ] == [(b.kind, b.name, b.entries) for b in other.blocks]


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, expected=None):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {expected or kind}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=(expected or kind,),
            )
        return self.advance()

    # -- expressions ---------------------------------------------------------

    def parse_rational(self) -> Rat:
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        num = self.expect("number", "number")
        value = Rat(int(num.text))
        if self.peek().kind == "/":
            self.advance()
            den = self.expect("number", "denominator")
            if not int(den.text):
                raise ParseError(
                    "zero denominator", den.line, den.col, expected=("nonzero denominator",)
                )
            value = value / int(den.text)
        return -value if neg else value

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number" or tok.kind == "-":
            base = Num(self.parse_rational())
        elif tok.kind == "@":
            self.advance()
            name = self.expect("name", "generator name")
            base = Dual(name.text)
        elif tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.parse_rational()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_rational())
                self.expect(")", "')'")
                base = Call(tok.text, tuple(args))
            else:
                base = Name(tok.text)
        else:
            raise ParseError(
                f"expected an expression, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=("number", "name", "@"),
            )
        if self.peek().kind == "^":
            self.advance()
            exp = self.expect("number", "exponent")
            base = Pow(base, int(exp.text))
        return base

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def parse_sum(self):
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            t = self.parse_term()
            terms.append(Neg(t) if op.kind == "-" else t)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_expr(self):
        first = self.parse_sum()
        if self.peek().kind != ",":
            return first
        items = [first]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.parse_sum())
        return Items(tuple(items))

    # -- statements ----------------------------------------------------------

    def parse_key(self):
        name = self.expect("name", "key")
        key = [name.text]
        if self.peek().kind == "[":
            while self.peek().kind == "[":
                self.advance()
                idx = self.expect("number", "index")
                self.expect("]", "']'")
                key.append(int(idx.text))
        elif self.peek().kind == "(":
            self.advance()
            arg = self.expect("name", "generator name")
            self.expect(")", "')'")
            key.append(arg.text)
        return tuple(key)

    def parse_block(self):
        kind_tok = self.expect("name", "block kind")
        if kind_tok.text not in BLOCK_KINDS:
            raise ParseError(
                f"unknown block kind {kind_tok.text!r}",
                kind_tok.line,
                kind_tok.col,
                expected=BLOCK_KINDS,
            )
        name_tok = self.expect("name", "block name")
        self.expect("{", "'{'")
        entries = []
        while self.peek().kind != "}":
            key = self.parse_key()
            self.expect("=", "'='")
            expr = self.parse_expr()
            self.expect(";", "';'")
            entries.append((key, expr))
        self.expect("}", "'}'")
        return Block(kind_tok.text, name_tok.text, entries, kind_tok.line)


def parse(source: str) -> Manifest:
    tokens = tokenize(source)
    parser = _Parser(tokens)
    blocks = []
    seen = set()
    while parser.peek().kind != "eof":
        block = parser.parse_block()
        if block.name in seen:
            raise DuplicateName(f"duplicate block name {block.name!r}")
        seen.add(block.name)
        blocks.append(block)
    manifest = Manifest(blocks, source)
    _resolve_references(manifest)
    return manifest


def _resolve_references(manifest: Manifest):
    names = {b.name for b in manifest.blocks}
    for block in manifest.blocks:
        for key, expr in block.entries:
            if key[0] == "on":
                if not isinstance(expr, Name) or expr.ident not in names:
                    raise UnresolvedReference(
                        f"block {block.name!r} refers to unknown block "
                        f"{expr.show() if hasattr(expr, 'show') else expr!r}"
                    )


def serialize(manifest: Manifest) -> str:
    out = []
    for block in manifest.blocks:
        out.append(f"{block.kind} {block.name} {{")
        for key, expr in block.entries:
            base = key[0]
            quals = key[1:]
            if quals and all(isinstance(q, int) for q in quals):
                key_str = base + "".join(f"[{q}]" for q in quals)
            elif quals:
                key_str = f"{base}({quals[0]})"
            else:
                key_str = base
            out.append(f"  {key_str} = {expr.show()};")
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# resolution into workbench objects
# ---------------------------------------------------------------------------


def eval_scalar(expr) -> Rat:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Neg):
        return -eval_scalar(expr.arg)
    raise UnresolvedReference(f"expected a rational, got {expr.show()}")


def eval_poly(expr, algebra, dual_prefix="@"):
    """Evaluate an expression AST inside a FreeCDGA.

    Names resolve to generators; `dx` style names resolve to the de Rham
    symbol when present; @name resolves to the polyvector dual.
    """
    if isinstance(expr, Num):
        return algebra.scalar(expr.value)
    if isinstance(expr, Name):
        ident = expr.ident
        if ident in algebra.index:
            return algebra.gen(ident)
        raise UnresolvedReference(f"unknown generator {ident!r}")
    if isinstance(expr, Dual):
        dual = "@" + expr.ident
        if dual in algebra.index:
            return algebra.gen(dual)
        raise UnresolvedReference(f"unknown dual generator {dual!r}")
    if isinstance(expr, Pow):
        return eval_poly(expr.base, algebra) ** expr.exponent
    if isinstance(expr, Neg):
        return -eval_poly(expr.arg, algebra)
    if isinstance(expr, Mul):
        out = algebra.one()
        for f in expr.factors:
            out = out * eval_poly(f, algebra)
        return out
    if isinstance(expr, Add):
        out = algebra.zero()
        for t in expr.terms:
            out = out + eval_poly(t, algebra)
        return out
    raise UnresolvedReference(f"cannot evaluate {expr.show()} as a polynomial")


def build_algebra(block: Block):
    """algebra B { gens = x(0), xi(-1, 0); d(xi) = x^2; eps(x) = dx; }"""
    from .freecdga import FreeCDGA, Generator

    gens_expr = block.get(("gens",))
    gens = []
    if gens_expr is not None:
        items = gens_expr.items if isinstance(gens_expr, Items) else (gens_expr,)
        for item in items:
            if not isinstance(item, Call):
                raise UnresolvedReference(
                    f"generator spec must be name(degree[, weight]), got {item.show()}"
                )
            if any(a.denominator != 1 for a in item.args):
                raise UnresolvedReference(
                    f"generator {item.show()} needs an integer degree and weight"
                )
            degree = int(item.args[0])
            weight = int(item.args[1]) if len(item.args) > 1 else 0
            gens.append(Generator(item.ident, degree, weight))
    base_expr = block.get(("base",))
    base_names = []
    if base_expr is not None:
        items = base_expr.items if isinstance(base_expr, Items) else (base_expr,)
        gen_names = {g.name for g in gens}
        for item in items:
            if not (isinstance(item, Name) and item.ident in gen_names):
                raise UnresolvedReference(f"base {item.show()} names no generator")
            base_names.append(item.ident)
    alg = FreeCDGA(gens, base_names=base_names)
    d_vals = {}
    eps_vals = {}
    for key, expr in block.entries:
        if key[0] in ("d", "eps") and len(key) == 2:
            if key[1] not in alg.index:
                raise UnresolvedReference(f"{key[0]}({key[1]}) names no generator")
            (d_vals if key[0] == "d" else eps_vals)[key[1]] = eval_poly(expr, alg)
    alg.set_differential(d_vals)
    alg.set_mixed(eps_vals)
    return alg


def build_lie(block: Block):
    """lie g { dim = 3; bracket[1][2] = 2*e2; } with basis symbols e1..eN."""
    from .lieinfty import LieAlgebra

    dim_expr = block.get(("dim",))
    if dim_expr is None:
        raise UnresolvedReference(f"lie block {block.name!r} needs dim")
    dim = eval_scalar(dim_expr)
    if dim.denominator != 1 or dim < 1:
        raise UnresolvedReference(
            f"lie block {block.name!r} needs dim a positive integer, got {dim}"
        )
    dim = int(dim)
    brackets = {}
    for key, expr in block.entries:
        if key[0] != "bracket":
            continue
        if len(key) != 3 or not all(1 <= q <= dim for q in key[1:]):
            raise UnresolvedReference(f"bracket indices must be [i][j] with 1 <= i, j <= {dim}")
        i, j = key[1] - 1, key[2] - 1
        comps = {}
        terms = expr.terms if isinstance(expr, Add) else (expr,)
        for term in terms:
            sign = Rat(1)
            if isinstance(term, Neg):
                sign = Rat(-1)
                term = term.arg
            coeff = Rat(1)
            names = []
            factors = term.factors if isinstance(term, Mul) else (term,)
            for f in factors:
                if isinstance(f, Num):
                    coeff *= f.value
                elif isinstance(f, Name):
                    names.append(f.ident)
                else:
                    raise UnresolvedReference(f"bad bracket term {f.show()}")
            k = names[0][1:] if len(names) == 1 and names[0].startswith("e") else ""
            if not (k.isdigit() and 1 <= int(k) <= dim):
                raise UnresolvedReference(f"bracket values are combinations of e1..e{dim}")
            k = int(k) - 1
            comps[k] = comps.get(k, Rat(0)) + sign * coeff
        brackets[i, j] = comps
    return LieAlgebra.from_brackets(dim, brackets)


def build_complex(block: Block):
    """complex E { basis = a(0, 0), b(1, 1); d(a) = ...; eps(a) = b; }"""
    from .gradedmixed import BiGradedModule, GradedMixedComplex

    basis_expr = block.get(("basis",))
    if basis_expr is None:
        raise UnresolvedReference(f"complex block {block.name!r} needs basis")
    items = basis_expr.items if isinstance(basis_expr, Items) else (basis_expr,)
    basis = {}
    for item in items:
        if not isinstance(item, Call) or len(item.args) != 2:
            raise UnresolvedReference("basis entries are name(weight, degree)")
        basis.setdefault((int(item.args[0]), int(item.args[1])), []).append(item.ident)
    module = BiGradedModule(basis)

    def linear_map(expr):
        terms = expr.terms if isinstance(expr, Add) else (expr,)
        out = []
        for term in terms:
            sign = Rat(1)
            if isinstance(term, Neg):
                sign = Rat(-1)
                term = term.arg
            coeff = Rat(1)
            name = None
            for f in term.factors if isinstance(term, Mul) else (term,):
                if isinstance(f, Num):
                    coeff *= f.value
                elif isinstance(f, Name):
                    name = f.ident
            if name is None:
                if coeff == 0:
                    continue
                raise UnresolvedReference("complex maps need a target basis label")
            out.append((sign * coeff, name))
        return out

    d_map = {}
    eps_map = {}
    for key, expr in block.entries:
        if key[0] == "d" and len(key) == 2:
            d_map[key[1]] = linear_map(expr)
        elif key[0] == "eps" and len(key) == 2:
            eps_map[key[1]] = linear_map(expr)
    return GradedMixedComplex.from_maps(module, d_map, eps_map)


def complex_to_dsl(cx, name: str) -> str:
    """Serialize a GradedMixedComplex to a complex block (round-trip exact)."""

    def coeff_str(c: Rat, label: str) -> str:
        if c == 1:
            return label
        if c == -1:
            return f"-1*{label}"
        return f"{c}*{label}"

    lines = [f"complex {name} {{"]
    basis_items = []
    for (p, m) in cx.module.support():
        for lab in cx.module.labels(p, m):
            basis_items.append(f"{lab}({p}, {m})")
    lines.append("  basis = " + ", ".join(basis_items) + ";")
    for which, blocks, dw in (("d", cx.d, 0), ("eps", cx.eps, 1)):
        for (p, m) in sorted(blocks):
            mat = blocks[p, m]
            tgt = cx.module.labels(p + dw, m + 1)
            terms = {}
            for (i, j), c in sorted(mat.items()):
                terms.setdefault(j, []).append(coeff_str(c, tgt[i]))
            for j, lab in enumerate(cx.module.labels(p, m)):
                if j in terms:
                    lines.append(f"  {which}({lab}) = " + " + ".join(terms[j]) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
