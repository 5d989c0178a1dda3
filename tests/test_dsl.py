import glob
import os
import random
from fractions import Fraction

import pytest

from helpers import block_entry, oracle_tokenize
from spw.dsl import (
    _MAX_DIGITS,
    Items,
    build_algebra,
    build_complex,
    build_lie,
    eval_poly,
    parse,
    serialize,
    tokenize,
)
from spw.errors import DuplicateName, ParseError, UnresolvedReference

CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples_dsl", "*.spw"))
)


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS)
def test_parse_serialize_round_trip(path):
    with open(path) as fh:
        source = fh.read()
    m1 = parse(source)
    text = serialize(m1)
    m2 = parse(text)
    assert m1 == m2
    assert serialize(m2) == text  # serialization is a fixed point


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("algebra B { d(x = 1; }")
    assert err.value.line == 1
    assert err.value.col == 17


def test_unknown_block_kind_rejected():
    with pytest.raises(ParseError):
        parse("frobnicate B { }")


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        parse("algebra B { gens = x(0); } algebra B { gens = y(0); }")


def test_unresolved_reference_rejected():
    with pytest.raises(UnresolvedReference):
        parse("poisson P { on = Nowhere; shift = 0; p0 = 0; }")


def test_cross_reference_resolves():
    m = parse(
        "algebra B { gens = x(0), y(0); }\n"
        "poisson P { on = B; shift = 0; p0 = @x*@y; }\n"
    )
    assert block_entry(m.block("P"), ("on",)).ident == "B"


def test_build_algebra_with_differential():
    m = parse("algebra B { gens = x(0), xi(-1); d(xi) = x^2; }")
    alg = build_algebra(m.block("B"))
    assert alg.d(alg.gen("xi")) == alg.gen("x") ** 2


def test_eval_poly_rationals_and_duals():
    m = parse("algebra B { gens = x(0), y(0); }")
    alg = build_algebra(m.block("B"))
    from spw.polyvec import PolyvectorAlgebra

    pol = PolyvectorAlgebra(alg, 1)
    m2 = parse(
        "algebra B { gens = x(0), y(0); }\n"
        "poisson P { on = B; shift = 0; p0 = 1/2*x*@x*@y - 3*@y*@x; }\n"
    )
    e = eval_poly(block_entry(m2.block("P"), ("p0",)), pol.algebra)
    x = pol.include(alg.gen("x"))
    expected = (x * pol.theta("x") * pol.theta("y")).scale(__import__("fractions").Fraction(1, 2)) - (
        pol.theta("y") * pol.theta("x")
    ).scale(3)
    assert e == expected


def test_build_lie_from_block():
    m = parse(
        "lie sl2 { dim = 3; bracket[1][2] = 2*e2; bracket[1][3] = -2*e3; bracket[2][3] = e1; }"
    )
    g = build_lie(m.block("sl2"))
    from spw.lieinfty import LieAlgebra, validate_lie

    assert validate_lie(g).valid
    assert g.c == LieAlgebra.sl2().c


def test_build_complex_cell_model():
    with open(os.path.join(os.path.dirname(__file__), "..", "examples_dsl", "cell.spw")) as fh:
        m = parse(fh.read())
    cx = build_complex(m.block("Cell"))
    from spw.gradedmixed import cell_model, validate_mixed

    assert validate_mixed(cx).valid
    ref = cell_model(1)
    assert {k: len(v) for k, v in cx.module.basis.items()} == {
        k: len(v) for k, v in ref.module.basis.items()
    }


def test_items_lists_parse():
    m = parse("algebra B { gens = x(0); } ideal I { on = B; gens = x, x^2, 2*x; }")
    expr = block_entry(m.block("I"), ("gens",))
    assert isinstance(expr, Items) and len(expr.items) == 3


def test_numeric_literals_are_exact():
    m = parse("algebra B { gens = x(0); } poisson P { on = B; p0 = 1/3; }")
    from spw.dsl import Num
    from fractions import Fraction

    assert block_entry(m.block("P"), ("p0",)) == Num(Fraction(1, 3))


def test_rational_literals_are_exact_fractions():
    # a quotient of integer literals is a Fraction division, never a float
    for value, want, kind in (("4/2*z", 2, int), ("4/2*z + 1/3*z", Fraction(7, 3), Fraction)):
        alg = build_algebra(parse(f"algebra C {{ gens = y(0), z(1); d(y) = {value}; }}").block("C"))
        (coeff,) = alg.d(alg.gen("y")).terms.values()
        assert coeff == want and type(coeff) is kind


# -- the tokenizer against the match-at-each-position oracle -------------------


def token_tuples(source):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]


def tokens_or_error(scan, source):
    """scan(source), a (kind, text, line, col) list, or the ParseError's
    message, position and expected set."""
    try:
        return scan(source)
    except ParseError as exc:
        return str(exc), exc.line, exc.col, exc.expected


TOKENIZER_CASES = {
    "bad character": "algebra A { gens = x(0) ! y(0); }\n",
    "bad character after a newline": "algebra A {\n\n   $ }",
    "number over the digit cap": "lie g { dim = " + "7" * (_MAX_DIGITS + 1) + "; }\n",
    "number at the digit cap": "lie g { dim = " + "7" * _MAX_DIGITS + "; }\n",
    "tabs and carriage returns": "algebra A {\r\n\tgens = x(0),\ty(1);\r\n\td(x) = 0 ;\r}\r\n",
    "comment at end of file": "algebra A { gens = x(0); }\n# the end",
    "no final newline": "algebra A { gens = x(0); }",
    "empty source": "",
    "only blanks": " \t\r\n\n",
    "vertical tab and form feed": "a\x0bb\x0cc",
    "non-ASCII names and digits": "\u03b1 = \u03b2\u00b2 + \u0663;",
}


@pytest.mark.parametrize("source", TOKENIZER_CASES.values(), ids=TOKENIZER_CASES)
def test_tokenize_equals_the_oracle_on_edge_cases(source):
    assert tokens_or_error(token_tuples, source) == tokens_or_error(oracle_tokenize, source)


def test_tokenize_equals_the_oracle_on_manifests_mutants_and_random_sources():
    from test_manifest_fuzz import mutants

    sources = []
    for path in CORPUS:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    sources += [source for *_, source in mutants()]
    rng = random.Random(2021)
    alphabet = "ab_0123456789 \t\r\n\n#{}()[]=;,*+-^@/!$%~\x0b\x0c\u00e9\u00b2\u0663"
    sources += ["".join(rng.choices(alphabet, k=rng.randrange(40))) for _ in range(400)]
    errors = 0
    for source in sources:
        want = tokens_or_error(oracle_tokenize, source)
        assert tokens_or_error(token_tuples, source) == want, source
        errors += isinstance(want, tuple)
    assert len(sources) == len(CORPUS) + 720 + 400 and 100 < errors < len(sources) - 100
