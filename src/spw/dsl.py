"""Hand-written recursive-descent parser for the workbench DSL.

Grammar:

    manifest :=  block*
    block    :=  kind NAME "{" (stmt)* "}"
    kind     :=  algebra | lie | poisson | form | ideal | complex
    stmt     :=  key "=" expr ";"
    key      :=  NAME | NAME "[" INT "]" "[" INT "]" | NAME "(" NAME ")"
    expr     :=  sum of products of factors; factors are rationals p/q,
                 names, duals @name, powers f^k, calls name(args) and
                 comma lists at top level; line comments start with #.

Every numeric literal is an exact rational.  Parsing is total: either a
Manifest whose every block fits SCHEMA, or a ParseError with line/column
and the expected token set.  The builders read a block only through the
values SCHEMA checked.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat
from functools import partial

from .errors import DuplicateName, ParseError, UnresolvedReference
from .record import FrozenRecord, Record

# a token, a newline, blanks and comments (no group), or any other
# character (bad): the matches tile the source
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*|(?P<number>\d+)|(?P<name>[^\W\d]\w*)"
    r"|(?P<punct>[{}()\[\]=;,*+\-^@/])|(?P<bad>.)"
)
_MAX_DIGITS = 4300  # int() refuses longer decimal strings

EXPONENT_CAP = 64  # largest k in f^k: x^k is a word of k letters


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # 'name', 'number', or a punctuation char, or 'eof'
        self.text = text
        self.line = line
        self.col = col


def tokenize(source: str):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "punct":
            kind = text
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col, expected=("token",))
        elif kind == "number" and len(text) > _MAX_DIGITS:
            raise ParseError("number too long", line, col, expected=(f"at most {_MAX_DIGITS} digits",))
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# -- expression AST ----------------------------------------------------------


class Num(FrozenRecord):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Rat):
        self.value = value

    def show(self):
        return str(self.value)


class Name(FrozenRecord):
    __slots__ = _fields = ("ident",)

    def __init__(self, ident: str):
        self.ident = ident

    def show(self):
        return self.ident


class Dual(FrozenRecord):
    __slots__ = _fields = ("ident",)

    def __init__(self, ident: str):
        self.ident = ident

    def show(self):
        return "@" + self.ident


class Pow(FrozenRecord):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base, exponent: int):
        self.base = base
        self.exponent = exponent

    def show(self):
        return f"{self.base.show()}^{self.exponent}"


class Mul(FrozenRecord):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors

    def show(self):
        return "*".join(f.show() for f in self.factors)


class Neg(FrozenRecord):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def show(self):
        return f"-{self.arg.show()}"


class Add(FrozenRecord):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms

    def show(self):
        out = self.terms[0].show()
        for t in self.terms[1:]:
            if isinstance(t, Neg):
                out += f" - {t.arg.show()}"
            else:
                out += f" + {t.show()}"
        return out


class Call(FrozenRecord):
    __slots__ = _fields = ("ident", "args")

    def __init__(self, ident: str, args: tuple):
        self.ident = ident
        self.args = args  # of Rat

    def show(self):
        return f"{self.ident}({', '.join(str(a) for a in self.args)})"


class Items(FrozenRecord):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    def show(self):
        return ", ".join(x.show() for x in self.items)


class Block(Record):
    __slots__ = ("kind", "name", "entries", "line", "col", "at", "values")
    _fields = ("kind", "name", "entries")  # compared; the repr adds line and col

    def __init__(self, kind: str, name: str, entries: list, line: int = 0, col: int = 0,
                 at: list = None, values: dict = None):
        self.kind = kind
        self.name = name
        self.entries = entries  # of (key tuple, expr AST); key = (base, *qualifiers)
        self.line = line
        self.col = col
        self.at = [] if at is None else at  # (line, col) of each key
        # SCHEMA shape -> checked value, set by parse
        self.values = {} if values is None else values

    def __repr__(self):
        return (f"Block(kind={self.kind!r}, name={self.name!r}, entries={self.entries!r}, "
                f"line={self.line!r}, col={self.col!r})")


class Manifest(Record):
    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: list):
        self.blocks = blocks  # equal manifests have equal kinds, names and entries

    def block(self, name):
        for b in self.blocks:
            if b.name == name:
                return b
        raise UnresolvedReference(f"no block named {name!r}")


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

    def accept(self, kind):
        """The next token, consumed, if it has this kind; else None."""
        return self.advance() if self.peek().kind == kind else None

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
        neg = self.accept("-")
        num = self.expect("number", "number")
        value = Rat(int(num.text))
        if self.accept("/"):
            den = self.expect("number", "denominator")
            if not int(den.text):
                raise ParseError(
                    "zero denominator", den.line, den.col, expected=("nonzero denominator",)
                )
            value = Rat(int(num.text), int(den.text))
        return -value if neg else value

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number" or tok.kind == "-":
            base = Num(self.parse_rational())
        elif self.accept("@"):
            base = Dual(self.expect("name", "generator name").text)
        elif self.accept("name"):
            if self.accept("("):
                args = [self.parse_rational()]
                while self.accept(","):
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
        if self.accept("^"):
            exp = self.expect("number", "exponent")
            if int(exp.text) > EXPONENT_CAP:
                raise ParseError(
                    f"exponent {exp.text} is above the cap {EXPONENT_CAP}",
                    exp.line,
                    exp.col,
                    expected=(f"an exponent <= {EXPONENT_CAP}",),
                )
            base = Pow(base, int(exp.text))
        return base

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.accept("*"):
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
        items = [self.parse_sum()]
        while self.accept(","):
            items.append(self.parse_sum())
        return items[0] if len(items) == 1 else Items(tuple(items))

    # -- statements ----------------------------------------------------------

    def parse_key(self):
        name = self.expect("name", "key")
        key = [name.text]
        if self.peek().kind == "[":
            while self.accept("["):
                key.append(int(self.expect("number", "index").text))
                self.expect("]", "']'")
        elif self.accept("("):
            arg = self.expect("name", "generator name")
            self.expect(")", "')'")
            key.append(arg.text)
        return tuple(key), (name.line, name.col)

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
        block = Block(kind_tok.text, name_tok.text, [], kind_tok.line, kind_tok.col)
        while self.peek().kind != "}":
            key, at = self.parse_key()
            self.expect("=", "'='")
            block.entries.append((key, self.parse_expr()))
            block.at.append(at)
            self.expect(";", "';'")
        self.expect("}", "'}'")
        return block


def parse(source: str) -> Manifest:
    tokens = tokenize(source)
    parser = _Parser(tokens)
    blocks = {}
    while parser.peek().kind != "eof":
        block = parser.parse_block()
        if block.name in blocks:
            raise DuplicateName(f"duplicate block name {block.name!r}")
        blocks[block.name] = block
    for block in blocks.values():
        _check_block(block, blocks)
    return Manifest(list(blocks.values()))


def _key_text(key) -> str:
    """A key as written: gens, p0, d(x), bracket[1][2]."""
    base, *quals = key
    if quals and all(isinstance(q, int) for q in quals):
        return base + "".join(f"[{q}]" for q in quals)
    return f"{base}({quals[0]})" if quals else base


def serialize(manifest: Manifest) -> str:
    out = []
    for block in manifest.blocks:
        out.append(f"{block.kind} {block.name} {{")
        out += [f"  {_key_text(key)} = {expr.show()};" for key, expr in block.entries]
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the manifest schema
# ---------------------------------------------------------------------------

class _Fault(Exception):
    """A value that does not fit its key; parse reports it at the key."""


def _items(expr):
    return expr.items if isinstance(expr, Items) else (expr,)


def _integer(expr, key, values, blocks, least=None):
    value = expr.value if isinstance(expr, Num) else None
    if value is None or value.denominator != 1 or least is not None and value < least:
        what = "an integer" if least is None else "a positive integer"
        raise _Fault(f"needs {_key_text(key)} {what}, got {expr.show()}")
    return int(value)


def _calls(expr, key, values, blocks, arities, form):
    """[(name, *integer arguments)] of a list of calls such as x(0), y(1, 2)."""
    out = []
    for item in _items(expr):
        if not isinstance(item, Call) or len(item.args) not in arities:
            raise _Fault(f"{form}, got {item.show()}")
        if any(a.denominator != 1 for a in item.args):
            raise _Fault(f"{item.show()} needs an integer degree and weight")
        out.append((item.ident, *map(int, item.args)))
    return out


def _cells(expr, key, values, blocks):
    """{(weight, degree): [labels]} of a basis with distinct labels."""
    cells, labels = {}, set()
    form = "basis entries are name(weight, degree)"
    for label, *bidegree in _calls(expr, key, values, blocks, (2,), form):
        if label in labels:
            raise _Fault(f"duplicate basis label {label!r}")
        labels.add(label)
        cells.setdefault(tuple(bidegree), []).append(label)
    return cells


def _base(expr, key, values, blocks):
    gens = {g[0] for g in values["gens"]}
    for item in _items(expr):
        if not (isinstance(item, Name) and item.ident in gens):
            raise _Fault(f"base {item.show()} names no generator")
    return [item.ident for item in _items(expr)]


def _polynomial(expr, key, values, blocks):
    """The expression itself: its names resolve when a builder evaluates it."""
    parts = [expr]
    while parts:
        e = parts.pop()
        if isinstance(e, (Add, Mul)):
            parts += e.terms if isinstance(e, Add) else e.factors
        elif isinstance(e, (Neg, Pow)):
            parts.append(e.arg if isinstance(e, Neg) else e.base)
        elif not isinstance(e, (Num, Name, Dual)):
            raise _Fault(f"needs {_key_text(key)} a polynomial, got {e.show()}")
    return expr


def _polynomials(expr, key, values, blocks):
    return [_polynomial(item, key, values, blocks) for item in _items(expr)]


def _algebra_block(expr, key, values, blocks):
    if not isinstance(expr, Name):
        raise _Fault(f"needs on a block name, got {expr.show()}")
    if expr.ident not in blocks:
        raise UnresolvedReference(f"refers to unknown block {expr.ident!r}")
    target = blocks[expr.ident]
    if target.kind != "algebra":
        raise _Fault(f"on = {target.name} names a {target.kind} block, not an algebra")
    return target


def _on_generator(expr, key, values, blocks):
    if key[1] not in {g[0] for g in values["gens"]}:
        raise _Fault(f"{_key_text(key)} names no generator")
    return _polynomial(expr, key, values, blocks)


def _combination(expr, labels, what):
    """[(coeff, label)] of a sum of rational multiples of labels."""
    out = []
    for term in expr.terms if isinstance(expr, Add) else (expr,):
        coeff, names = Rat(1), []
        if isinstance(term, Neg):
            coeff, term = Rat(-1), term.arg
        for f in term.factors if isinstance(term, Mul) else (term,):
            if isinstance(f, Num):
                coeff *= f.value
            elif isinstance(f, Name) and f.ident in labels:
                names.append(f.ident)
            else:
                raise _Fault(f"{what}, got {expr.show()}")
        if len(names) == 1:
            out.append((coeff, names[0]))
        elif names or coeff:
            raise _Fault(f"{what}, got {expr.show()}")
    return out


def _bracket(expr, key, values, blocks):
    """{k: coeff} of [e_i, e_j] for i < j."""
    dim, (i, j) = values["dim"], key[1:]
    if i == j or not (1 <= i <= dim and 1 <= j <= dim):
        raise _Fault(f"bracket indices must be [i][j] with i != j and 1 <= i, j <= {dim}")
    comps = {}
    labels = {f"e{k + 1}": k for k in range(dim)}
    for coeff, label in _combination(expr, labels, f"bracket values are combinations of e1..e{dim}"):
        k = labels[label]
        comps[k] = comps.get(k, Rat(0)) + (coeff if i < j else -coeff)
    return comps


def _on_cell(expr, key, values, blocks):
    labels = {label for labels in values["basis"].values() for label in labels}
    if key[1] not in labels:
        raise _Fault(f"{_key_text(key)} names no basis label")
    return _combination(expr, labels, f"{key[0]} values are combinations of basis labels")


class Key(FrozenRecord):
    __slots__ = _fields = ("check", "required", "default", "first")

    def __init__(self, check, required: bool = False, default=None, first: int = 0):
        self.check = check  # (expr, key, values of the keys above, blocks) -> what builders read
        self.required = required
        self.default = default  # of a plain key; a pattern key defaults to {}
        self.first = first  # of a p<i> key, written as the run p<first>, p<first+1>, .. with no gap


# block kind -> key shape -> Key.  Shapes: a plain name (gens), a name with
# an index suffix (p<i>: p0, p1, ..; w02 is w2), a name with a name
# argument (d(<x>)), and two indices (bracket[i][j]; bracket[2][1] is
# bracket[1][2]).  Keys are checked in this order, so a check may read the
# values of the keys above it.
SCHEMA = {
    "algebra": {
        "gens": Key(
            partial(_calls, arities=(1, 2), form="generator spec must be name(degree[, weight])"),
            default=(),
        ),
        "base": Key(_base, default=()),
        "d(<x>)": Key(_on_generator),
        "eps(<x>)": Key(_on_generator),
    },
    "lie": {"dim": Key(partial(_integer, least=1), required=True), "bracket[i][j]": Key(_bracket)},
    "poisson": {
        "on": Key(_algebra_block, required=True),
        "shift": Key(_integer, default=0),
        "p<i>": Key(_polynomial, required=True),
    },
    "form": {
        "on": Key(_algebra_block, required=True),
        "degree": Key(_integer, default=0),
        "w<i>": Key(_polynomial, first=2),
    },
    "ideal": {"on": Key(_algebra_block, required=True), "gens": Key(_polynomials, required=True)},
    "complex": {
        "basis": Key(_cells, required=True),
        "d(<x>)": Key(_on_cell),
        "eps(<x>)": Key(_on_cell),
    },
}
BLOCK_KINDS = tuple(SCHEMA)


def _shape(key):
    """(shape, argument) of a key: (gens, None), (p<i>, 1) for p01,
    (d(<x>), x), and (bracket[i][j], (1, 2)) for bracket[2][1]."""
    base, *quals = key
    stem = base.rstrip("0123456789")
    if not quals:
        return (f"{stem}<i>", int(base[len(stem):])) if stem != base else (base, None)
    if len(quals) == 1 and isinstance(quals[0], str):
        return f"{base}(<x>)", quals[0]
    if len(quals) == 2 and all(isinstance(q, int) for q in quals):
        return f"{base}[i][j]", tuple(sorted(quals))
    return _key_text(key), None


def _check_block(block, blocks):
    """Check `block` against SCHEMA and set `block.values`: the value of
    each plain shape, and {argument: value} of each pattern shape."""
    spec = SCHEMA[block.kind]
    found = {shape: {} for shape in spec}  # shape -> {argument: (key, expr, at)}
    faults = []  # unknown and repeated keys, reported after a missing key
    for (key, expr), at in zip(block.entries, block.at):
        shape, arg = _shape(key)
        if shape in spec and arg not in found[shape]:
            found[shape][arg] = (key, expr, at)
        else:
            what = "duplicate" if shape in spec else "unknown"
            message = f"{what} key {_key_text(key)} in {block.kind} block {block.name!r}"
            faults.append(ParseError(message, *at, expected=tuple(spec)))
    for shape, rule in spec.items():
        if rule.required and not found[shape]:
            missing = shape.replace("<i>", str(rule.first))
            message = f"{block.kind} block {block.name!r} needs {missing}"
            raise ParseError(message, block.line, block.col)
    if faults:
        raise faults[0]
    for shape, rule in spec.items():
        args = found[shape]
        checked = {}
        for arg, (key, expr, at) in args.items():
            try:
                # a tower p<first>, p<first+1>, .. has no gap
                if isinstance(arg, int) and (
                    arg < rule.first or arg > rule.first and arg - 1 not in args
                ):
                    earlier = shape.replace("<i>", str(max(arg - 1, rule.first)))
                    raise _Fault(f"{_key_text(key)} needs {earlier} before it")
                checked[arg] = rule.check(expr, key, block.values, blocks)
            except _Fault as exc:
                raise ParseError(str(exc), *at) from None
            except UnresolvedReference as exc:
                raise UnresolvedReference(f"{at[0]}:{at[1]}: block {block.name!r} {exc}") from None
        block.values[shape] = checked.get(None, rule.default) if shape.isidentifier() else checked


# ---------------------------------------------------------------------------
# resolution into workbench objects
# ---------------------------------------------------------------------------


def eval_poly(expr, algebra):
    """Evaluate an expression AST inside a FreeCDGA.

    Names resolve to generators; `dx` style names resolve to the de Rham
    symbol when present; @name resolves to the polyvector dual.
    """
    if isinstance(expr, Num):
        return algebra.scalar(expr.value)
    if isinstance(expr, (Name, Dual)):
        if expr.show() in algebra.index:
            return algebra.gen(expr.show())
        what = "dual generator" if isinstance(expr, Dual) else "generator"
        raise UnresolvedReference(f"unknown {what} {expr.show()!r}")
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

    v = block.values
    gens = [Generator(*g) for g in v["gens"]]
    free = FreeCDGA(gens, base_names=v["base"])  # the maps are written on its generators
    d, eps = ({x: eval_poly(e, free) for x, e in v[key].items()} for key in ("d(<x>)", "eps(<x>)"))
    return FreeCDGA(gens, base_names=v["base"], differential=d, mixed=eps)


def build_lie(block: Block):
    """lie g { dim = 3; bracket[1][2] = 2*e2; } with basis symbols e1..eN."""
    from .lieinfty import LieAlgebra

    brackets = block.values["bracket[i][j]"]
    return LieAlgebra.from_brackets(
        block.values["dim"], {(i - 1, j - 1): comps for (i, j), comps in brackets.items()}
    )


def build_complex(block: Block):
    """complex E { basis = a(0, 0), b(1, 1); d(a) = ...; eps(a) = b; }"""
    from .gradedmixed import BiGradedModule, GradedMixedComplex

    v = block.values
    return GradedMixedComplex.from_maps(BiGradedModule(v["basis"]), v["d(<x>)"], v["eps(<x>)"])


def build_poisson(block: Block):
    """poisson P { on = B; shift = n; p0 = ..; p1 = ..; }: the Maurer-Cartan
    tower in Pol(B, n+1), whose `pol.base` is B."""
    from .polyvec import MaurerCartanTower, PolyvectorAlgebra

    v = block.values
    pol = PolyvectorAlgebra(build_algebra(v["on"]), v["shift"] + 1)
    tower = [eval_poly(e, pol.algebra) for _, e in sorted(v["p<i>"].items())]
    return MaurerCartanTower(pol, v["shift"], tower)


def build_form(block: Block):
    """form F { on = B; degree = n; w2 = ..; }: the closed 2-form tower in
    DR(B), whose `de_rham.base` is B."""
    from .freecdga import ClosedFormTower, de_rham

    v = block.values
    dr = de_rham(build_algebra(v["on"]))
    comps = {w: eval_poly(e, dr.algebra) for w, e in v["w<i>"].items()}
    return ClosedFormTower(dr, 2, v["degree"], comps)


def build_ideal(block: Block):
    """(algebra B, generators) of ideal I { on = B; gens = f1, f2; }"""
    alg = build_algebra(block.values["on"])
    return alg, [eval_poly(e, alg) for e in block.values["gens"]]

