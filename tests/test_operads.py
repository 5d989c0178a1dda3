import random
from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from helpers import (
    OracleBD1,
    OraclePn,
    OracleWeylMap,
    _oracle_oriented_sort,
    arnold_mul,
    oracle_pn_compose,
    oracle_rank_certificate,
    oracle_relation_row,
    oracle_reduce_word,
)
from spw.errors import ArityTooLarge
from spw.exactlin import QPoly, SparseMatrix
from spw import operads
from spw.freecdga import Elem, FreeCDGA, Generator
from spw.operads import (
    BD1Space,
    LieWords,
    PnSpace,
    WeylMap,
    arnold_algebra,
    as_compose,
    bd0_check,
    expand_to_words,
    multilinear_basis,
    pn_compose,
    rees_bd1,
    weyl_structure_map,
)


# -- multilinear bases ---------------------------------------------------------


def test_as_dimensions():
    assert multilinear_basis("As", (1, 2)).dimension == 2
    assert multilinear_basis("As", (1, 2, 3)).dimension == 6
    assert multilinear_basis("As", (1, 2, 3, 4)).dimension == 24


def test_lie_dimensions():
    for k in (2, 3, 4):
        assert multilinear_basis("Lie", tuple(range(1, k + 1))).dimension == factorial(k - 1)


def test_pn_dimension_and_weight_distribution():
    space = multilinear_basis("Pn", (1, 2, 3), n=1)
    assert space.dimension == 6
    assert space.weight_distribution() == {0: 1, -1: 3, -2: 2}
    # PBW: total equals As(3)
    assert space.dimension == multilinear_basis("As", (1, 2, 3)).dimension


def test_pn_dimensions_arity_four():
    space = multilinear_basis("Pn", (1, 2, 3, 4), n=2)
    assert space.dimension == 24
    dist = space.weight_distribution()
    assert dist == {0: 1, -1: 6, -2: 11, -3: 6}


def test_arity_cap():
    with pytest.raises(ArityTooLarge):
        multilinear_basis("As", (1, 2, 3, 4, 5))


def test_lie_jacobi_consistency_of_normalizer():
    # [1,[2,3]] - [[1,2],3] - (-1)^{1-n} [2,[1,3]] must normalise to zero
    for n in (0, 1, 2):
        lw = LieWords(1 - n)

        def add(acc, d, scale):
            for k, v in d.items():
                val = acc.get(k, F(0)) + scale * v
                if val:
                    acc[k] = val
                else:
                    acc.pop(k, None)
            return acc

        acc = {}
        inner = lw.bracket_seqs((2,), (3,))
        for seq, c in inner.items():
            add(acc, lw.bracket_seqs((1,), seq), c)
        for seq, c in lw.bracket_seqs((1,), (2,)).items():
            add(acc, lw.bracket_seqs(seq, (3,)), -c)
        sign = -1 if (1 - n) % 2 else 1
        for seq, c in lw.bracket_seqs((1,), (3,)).items():
            add(acc, lw.bracket_seqs((2,), seq), -sign * c)
        assert not acc


def test_pn_relation_words_die_in_the_normal_form():
    # Leibniz and Jacobi words reduce to zero for every parity of the bracket
    for n in (0, 1, 2, 3):
        space = PnSpace(n, (1, 2, 3))

        def mono(label):
            return {((label,),): F(1)}

        def add(acc, d, scale=F(1)):
            for k, v in d.items():
                val = acc.get(k, F(0)) + scale * v
                if val:
                    acc[k] = val
                else:
                    acc.pop(k, None)
            return acc

        # [1, 2*3] - [1,2]*3 - 2*[1,3]
        acc = {}
        add(acc, space.bracket(mono(1), space.product(mono(2), mono(3))))
        add(acc, space.product(space.bracket(mono(1), mono(2)), mono(3)), F(-1))
        add(acc, space.product(mono(2), space.bracket(mono(1), mono(3))), F(-1))
        assert not acc
        # [1,[2,3]] - [[1,2],3] - (-1)^{1-n}[2,[1,3]]
        sign = F(-1) if (1 - n) % 2 else F(1)
        acc = {}
        add(acc, space.bracket(mono(1), space.bracket(mono(2), mono(3))))
        add(acc, space.bracket(space.bracket(mono(1), mono(2)), mono(3)), F(-1))
        add(acc, space.bracket(mono(2), space.bracket(mono(1), mono(3))), -sign)
        assert not acc


# -- the linear-combination layer against the separate oracles -----------------


def _pn_case(n):
    oracle = OraclePn(n)
    return pytest.param(
        lambda labels: PnSpace(n, labels),
        oracle.product,
        oracle.bracket,
        lambda e1, label, e2: oracle_pn_compose(n, e1, label, e2),
        F(1),
        id=f"P{n}",
    )


_BD1 = OracleBD1()
# (space on labels, oracle product, bracket and compose, unit coefficient)
CASES = [_pn_case(n) for n in range(4)] + [
    pytest.param(
        BD1Space, _BD1.mul, _BD1.hbar_bracket, _BD1.compose, QPoly.const(1), id="BD1"
    )
]


def _seeded_labels(rng, k):
    """k distinct labels drawn from 1..9, so label order varies by seed."""
    return tuple(sorted(rng.sample(range(1, 10), k)))


@pytest.mark.parametrize("make, product, bracket, compose, one", CASES)
def test_product_and_bracket_match_the_oracle(make, product, bracket, compose, one):
    # every pair of basis monomials on disjoint label sets, arity <= 4
    rng = random.Random(7)
    for k in (2, 3, 4):
        labels = _seeded_labels(rng, k)
        space = make(labels)
        for r in range(1, k):
            for left in combinations(labels, r):
                right = tuple(x for x in labels if x not in left)
                for m1 in make(left).basis():
                    for m2 in make(right).basis():
                        e1, e2 = {m1: one}, {m2: one}
                        assert space.product(e1, e2) == product(e1, e2)
                        assert space.bracket(e1, e2) == bracket(e1, e2)


@pytest.mark.parametrize("make, product, bracket, compose, one", CASES)
def test_compose_matches_the_oracle_in_every_slot(make, product, bracket, compose, one):
    # e1 on labels L1 and e2 on {slot} + F with F fresh, for every slot of e1
    rng = random.Random(8)
    for k in (2, 3, 4):
        labels = _seeded_labels(rng, k)
        space = make(labels)
        for k1 in range(1, k):
            for outer in combinations(labels, k1):
                fresh = tuple(x for x in labels if x not in outer)
                for slot in outer:
                    for m1 in make(outer).basis():
                        for m2 in make((slot,) + fresh).basis():
                            e1, e2 = {m1: one}, {m2: one}
                            assert space.compose(e1, slot, e2) == compose(e1, slot, e2)


def test_compose_of_a_missing_label_is_a_value_error():
    with pytest.raises(ValueError, match="label not in monomial"):
        pn_compose(2, {((1,), (2,)): F(1)}, 3, {((3,),): F(1)}, (1, 2, 3))
    with pytest.raises(ValueError, match="label not in monomial"):
        BD1Space((1, 2, 3)).compose({((1, 2),): QPoly.const(1)}, 3, {((3,),): QPoly.const(1)})


def test_a_product_of_factors_sharing_a_label_is_a_value_error():
    # as the bracket: a shared label, also one that is not the minimum of
    # both blocks, makes no multilinear monomial
    spaces = [PnSpace(n, (1, 2, 3)) for n in range(4)] + [BD1Space((1, 2, 3))]
    for space in spaces:
        one = space.one
        for m1, m2 in ((((1,),), ((1,),)), (((2, 3),), ((1, 3),)), (((1,), (2,)), ((2, 3),))):
            with pytest.raises(ValueError, match="labels must be disjoint"):
                space.product({m1: one}, {m2: one})
            with pytest.raises(ValueError, match="labels must be disjoint"):
                space.bracket({m1: one}, {m2: one})


def test_arnold_normal_form_and_certificate_match_the_oracle():
    rng = random.Random(3)
    for n in range(4):
        alg = arnold_algebra(n, (1, 2, 3, 4))
        for _ in range(200):
            letters = [tuple(rng.sample(alg.labels, 2)) for _ in range(rng.randrange(5))]
            assert alg.reduce_word(letters) == oracle_reduce_word(alg, letters)
        for labels in ((1, 2, 3), (1, 2, 3, 4)):
            alg = arnold_algebra(n, labels)
            for length in range(2, len(labels)):
                assert alg.rank_certificate(length) == oracle_rank_certificate(alg, length)


def test_arnold_sorted_word_matches_the_bubble_sort():
    rng = random.Random(5)
    outcomes = set()
    for n in range(4):
        alg = arnold_algebra(n, (1, 2, 3, 4))
        for _ in range(300):
            letters = [tuple(rng.sample(alg.labels, 2)) for _ in range(rng.randrange(5))]
            if letters and rng.random() < 0.3:
                # repeat a letter, as given or reversed
                x = rng.choice(letters)
                letters.insert(rng.randrange(len(letters) + 1), rng.choice([x, x[::-1]]))
            sign, oriented = _oracle_oriented_sort(alg, letters, 1)
            expected = None if len(set(oriented)) < len(oriented) else (sign, tuple(oriented))
            assert alg._sorted_word(letters) == expected
            outcomes.add(expected if expected is None else expected[0])
        with pytest.raises(ValueError, match="a_ii is not a class"):
            alg._sorted_word([(1, 2), (3, 3)])
    assert outcomes == {None, 1, -1}


def test_arnold_reduce_word_rejects_a_label_outside_the_algebra():
    for n in range(4):
        alg = arnold_algebra(n, (1, 2, 3))
        for letters in ([(1, 5)], [(5, 1)], [(1, 2), (4, 3)], [(2, 3), (0, 1)]):
            bad = next(f"a_{i}{j}" for i, j in letters if not {i, j} <= set(alg.labels))
            with pytest.raises(ValueError, match=f"^{bad} is not a class of the algebra on"):
                alg.reduce_word(letters)
        assert alg.reduce_word([(1, 3)]) == {((1, 3),): 1}


def test_arnold_certificate_builds_one_row_per_3_subset(monkeypatch):
    # the six orderings of a triple give one row up to a common sign, so
    # the certificate keeps one row per 3-subset and multiplier
    def up_to_sign(row):
        s = row[min(row)]
        return sorted((c, v * s) for c, v in row.items())

    built = []

    def recording(rows, cols, entries):
        built.append(entries)
        return SparseMatrix(rows, cols, entries)

    monkeypatch.setattr(operads, "SparseMatrix", recording)
    for n in range(4):
        alg = arnold_algebra(n, (1, 2, 3, 4))
        for length in (2, 3):
            ambient = [alg.canonical_word(c) for c in combinations(alg.pairs, length)]
            index = {w: c for c, w in enumerate(ambient)}
            expected = []
            for triple in combinations(alg.labels, 3):
                for mult in combinations(alg.pairs, length - 2):
                    rows = [oracle_relation_row(alg, t, mult, index) for t in permutations(triple)]
                    negated = {c: -v for c, v in rows[0].items()}
                    assert rows[0] and all(row in (rows[0], negated) for row in rows)
                    expected.append(up_to_sign(rows[0]))
            built.clear()
            alg.rank_certificate(length)
            got = {}
            for r, c, v in built[0]:
                got.setdefault(r, {})[c] = v
            assert len(got) == comb(4, 3) * comb(6, length - 2)
            assert sorted(up_to_sign(row) for row in got.values()) == sorted(expected)


# -- BD_1 ------------------------------------------------------------------------


def test_bd1_arity2_specializations():
    op = rees_bd1((1, 2))
    assert op.dimension() == 2
    space = op.space
    # product of the two singleton blocks both ways
    prod12 = space.mul({(((1,),)): QPoly.const(1)}, {(((2,),)): QPoly.const(1)})
    prod21 = space.mul({(((2,),)): QPoly.const(1)}, {(((1,),)): QPoly.const(1)})
    # x1 x2 is canonical; x2 x1 = x1 x2 - hbar {x1, x2}
    assert prod12 == {(((1,), (2,))): QPoly.const(1)}
    assert prod21[((1,), (2,))] == QPoly.const(1)
    assert prod21[((1, 2),)] == QPoly((0, -1))
    # at hbar = 0 both products agree: commutative P_1
    assert space.specialize(prod21, 0) == space.specialize(prod12, 0)
    # at hbar = 1 they match the associative expansions
    w21 = expand_to_words(((2,), (1,)), space.lie)
    back = {}
    for mono, poly in prod21.items():
        for w, c in expand_to_words(mono, space.lie).items():
            back[w] = back.get(w, F(0)) + poly.evaluate(1) * c
    assert {k: v for k, v in back.items() if v} == w21


def test_bd1_arity3_dimensions_and_specializations():
    op = rees_bd1((1, 2, 3))
    assert op.dimension() == 6
    space = op.space
    p1 = PnSpace(1, (1, 2, 3))
    # composition: substitute x1 -> x1 x4? stay within arity 3: compose
    # the product word (x1)(x2) into slot 1 of {x1, x2} relabelled:
    # gamma({a, b}; a <- x1 x3) on labels {1,3} + {2}: use compose directly
    bd2 = rees_bd1((1, 2))
    elem = {((1, 2),): QPoly.const(1)}  # the bracket {x1, x2}
    inner = {(((1,), (3,))): QPoly.const(1)}  # x1 x3 on labels {1, 3}
    full = BD1Space((1, 2, 3))
    got = full.compose(elem, 1, inner)
    # {x1 x3, x2} = x1 {x3, x2} + {x1, x2} x3: check hbar = 0 against P_1
    p1_got = pn_compose(1, {((1, 2),): F(1)}, 1, {((1,), (3,)): F(1)}, (1, 2, 3))
    assert full.specialize(got, 0) == p1_got
    # hbar = 1 against associative commutator expansion composition
    as_got = {}
    for mono, poly in got.items():
        for w, c in expand_to_words(mono, full.lie).items():
            as_got[w] = as_got.get(w, F(0)) + poly.evaluate(1) * c
    as_expected = {}
    for w1, c1 in expand_to_words(((1, 2),), full.lie).items():
        for w2, c2 in expand_to_words(((1,), (3,)), full.lie).items():
            w = as_compose(w1, 1, w2)
            as_expected[w] = as_expected.get(w, F(0)) + c1 * c2
    assert {k: v for k, v in as_got.items() if v} == {
        k: v for k, v in as_expected.items() if v
    }


def _bd1_elems(space, labels):
    return [{m: QPoly.const(1)} for m in PnSpace(1, labels).basis()]


def test_bd1_all_basis_specializations_match_both_sides():
    # every arity-3 basis element: compose a 2-ary basis into a 2-ary basis
    # and compare both specializations against the independent models
    full = BD1Space((1, 2, 3))
    outer_basis = PnSpace(1, (1, 2)).basis()
    inner_basis = PnSpace(1, (1, 3)).basis()
    for om in outer_basis:
        for im in inner_basis:
            got = full.compose({om: QPoly.const(1)}, 1, {im: QPoly.const(1)})
            p1_got = pn_compose(1, {om: F(1)}, 1, {im: F(1)}, (1, 2, 3))
            assert full.specialize(got, 0) == p1_got
            as_got = {}
            for mono, poly in got.items():
                for w, c in expand_to_words(mono, full.lie).items():
                    as_got[w] = as_got.get(w, F(0)) + poly.evaluate(1) * c
            as_expected = {}
            for w1, c1 in expand_to_words(om, full.lie).items():
                for w2, c2 in expand_to_words(im, full.lie).items():
                    w = as_compose(w1, 1, w2)
                    as_expected[w] = as_expected.get(w, F(0)) + c1 * c2
            assert {k: v for k, v in as_got.items() if v} == {
                k: v for k, v in as_expected.items() if v
            }


def test_rees_composition_associativity():
    # sequential axiom: gamma(gamma(a; 1 <- b); J-relabelled slot <- c)
    # equals gamma(a; 1 <- gamma(b; slot <- c)) for all 2-ary basis triples
    outer = PnSpace(1, (1, 2)).basis()
    mid = PnSpace(1, (1, 3)).basis()  # plugged into slot 1
    inner = PnSpace(1, (3, 4)).basis()  # plugged into slot 3
    for a in outer:
        for b in mid:
            for c in inner:
                s_abc = BD1Space((1, 2, 3, 4))
                ab = BD1Space((1, 2, 3)).compose({a: QPoly.const(1)}, 1, {b: QPoly.const(1)})
                left = s_abc.compose(ab, 3, {c: QPoly.const(1)})
                bc = BD1Space((1, 3, 4)).compose({b: QPoly.const(1)}, 3, {c: QPoly.const(1)})
                right = s_abc.compose({a: QPoly.const(1)}, 1, bc)
                assert left == right
    # parallel axiom: plug b into slot 1 and c into slot 2 in either order
    for a in outer:
        for b in PnSpace(1, (1, 3)).basis():
            for c in PnSpace(1, (2, 4)).basis():
                s_all = BD1Space((1, 2, 3, 4))
                ab = BD1Space((1, 2, 3)).compose({a: QPoly.const(1)}, 1, {b: QPoly.const(1)})
                left = s_all.compose(ab, 2, {c: QPoly.const(1)})
                ac = BD1Space((1, 2, 4)).compose({a: QPoly.const(1)}, 2, {c: QPoly.const(1)})
                right = s_all.compose(ac, 1, {b: QPoly.const(1)})
                assert left == right


# -- BD_0 ------------------------------------------------------------------------


def test_bd0_report():
    rep = bd0_check()
    assert rep.d_bracket_zero
    assert rep.d_product_is_hbar_bracket
    assert rep.d_squared_zero_on_words
    assert rep.derivation_respects_relations
    assert rep.valid


# -- Arnold -----------------------------------------------------------------------


def test_arnold_arity2():
    for n in (1, 2):
        alg = arnold_algebra(n, (1, 2))
        assert alg.hilbert_series() == {0: 1, n: 1}
        sq = arnold_mul(alg, {((1, 2),): F(1)}, {((1, 2),): F(1)})
        assert sq == {}


def test_arnold_arity3_hilbert_series():
    for n in (1, 2, 3):
        alg = arnold_algebra(n, (1, 2, 3))
        assert alg.hilbert_series() == {0: 1, n: 3, 2 * n: 2}


def test_arnold_arity4_dimensions():
    alg = arnold_algebra(2, (1, 2, 3, 4))
    series = alg.hilbert_series()
    assert series == {0: 1, 2: 6, 4: 11, 6: 6}


def test_arnold_relation_reduces_to_zero():
    for n in (1, 2):
        alg = arnold_algebra(n, (1, 2, 3))
        total = {}
        for term in ([(1, 2), (2, 3)], [(2, 3), (3, 1)], [(3, 1), (1, 2)]):
            for w, c in alg.reduce_word(term).items():
                v = total.get(w, F(0)) + c
                if v:
                    total[w] = v
                else:
                    total.pop(w, None)
        assert not total


def test_arnold_rank_certificates():
    # both sides at every length 0..k-1 are the coefficients of the
    # Arnold series prod_{j<k} (1 + j t)
    for k in range(1, 5):
        series = [1]
        for j in range(k):
            series = [a + j * b for a, b in zip(series + [0], [0] + series)]
        for n in range(4):
            alg = arnold_algebra(n, tuple(range(1, k + 1)))
            for length in range(k):
                assert alg.rank_certificate(length) == (series[length], series[length])


def test_arnold_orientation():
    alg = arnold_algebra(2, (1, 2))  # n even: a_21 = -a_12
    s, pair = alg.orient(2, 1)
    assert pair == (1, 2) and s == -1
    alg1 = arnold_algebra(1, (1, 2))  # n odd: a_21 = +a_12
    s1, _ = alg1.orient(2, 1)
    assert s1 == 1


# -- Weyl maps ---------------------------------------------------------------------


def sym_v_dual(dim):
    """B = Sym(V_dual[-1]): odd generators xi_i of degree 1."""
    return FreeCDGA([Generator(f"xi{i+1}", 1) for i in range(dim)])


def test_weyl_zero_pairing_is_multiplication():
    b = sym_v_dual(2)
    wm = weyl_structure_map(b, {}, (1, 2), n=2)
    x, y = b.gen("xi1"), b.gen("xi2")
    out = wm.structure_map([x, y])
    assert set(out) == {()}
    assert out[()] == x * y


def test_weyl_structure_map_takes_one_input_per_label():
    b = sym_v_dual(2)
    wm = weyl_structure_map(b, {(0, 1): F(1), (1, 0): F(1)}, (1, 2), n=0)
    for inputs in ([b.gen("xi1")], [b.gen("xi1"), b.gen("xi2"), b.gen("xi1")]):
        with pytest.raises(ValueError, match="one input per label"):
            wm.structure_map(inputs)


def test_weyl_arity2_bracket_coefficient():
    # t = identity pairing on a 2-dim V: the a_12 coefficient of the image
    # of xi1 (x) xi2 is t(xi1, xi2) * 1
    b = sym_v_dual(2)
    t = {(0, 1): F(1), (1, 0): F(1), (0, 0): F(0), (1, 1): F(0)}
    t = {k: v for k, v in t.items() if v}
    wm = weyl_structure_map(b, t, (1, 2), n=2)
    out = wm.structure_map([b.gen("xi1"), b.gen("xi2")])
    assert out[()] == b.gen("xi1") * b.gen("xi2")
    a12 = out.get(((1, 2),), b.zero())
    assert a12.degree() == 0 and not a12.is_zero()
    assert a12.constant_term() != 0


def test_weyl_bracket_matches_polyvec_table():
    # the a_12 coefficient reproduces {x, y} = sum t^{kl} d_k x d_l y,
    # which for the constant bivector agrees with the polyvec bracket table
    from spw.polyvec import PolyvectorAlgebra, check_strict_poisson

    b = sym_v_dual(2)
    tmat = {(0, 1): F(2), (1, 0): F(2), (0, 0): F(3), (1, 1): F(-1)}
    wm = weyl_structure_map(b, tmat, (1, 2), n=2)
    pol = PolyvectorAlgebra(b, 3)
    pi = pol.algebra.zero()
    # pi = 1/2 sum t^{kl} @k @l (duals are even of degree 2 here)
    names = ["xi1", "xi2"]
    for (k, l), v in tmat.items():
        pi = pi + (pol.theta(names[k]) * pol.theta(names[l])).scale(F(v, 2))
    rep = check_strict_poisson(pol, pi)
    assert rep.valid
    for f in names:
        for g in names:
            out = wm.structure_map([b.gen(f), b.gen(g)])
            a12 = out.get(((1, 2),), b.zero())
            table = rep.bracket_table[f, g]
            assert pol.include(a12) == table


def test_weyl_transposition_equivariance():
    # swapping the inputs matches a_12 -> (-1)^{n+1} a_21 with the Koszul
    # sign of the inputs
    b = sym_v_dual(2)
    for n in range(4):
        # a degree -n bracket on degree-1 generators has t_10 = (-1)^n t_01
        t = {(0, 1): F(1), (1, 0): F((-1) ** n)}
        wm = weyl_structure_map(b, t, (1, 2), n=n)
        x, y = b.gen("xi1"), b.gen("xi2")
        out_xy = wm.structure_map([x, y])
        out_yx = wm.structure_map([y, x])
        koszul = -1 if (x.degree() * y.degree()) % 2 else 1
        # degree-0 parts: multiplication is graded commutative
        assert out_yx[()] == out_xy[()].scale(koszul)
        # a_12 coefficient: swap relabels 1 <-> 2, i.e. a_12 -> a_21
        a_xy = out_xy.get(((1, 2),), b.zero())
        a_yx = out_yx.get(((1, 2),), b.zero())
        assert a_xy.constant_term() == 1
        orient_sign = 1 if (n + 1) % 2 == 0 else -1
        assert a_yx == a_xy.scale(koszul * orient_sign)


def test_weyl_arity3_smoke():
    b = sym_v_dual(3)
    t = {(0, 1): F(1), (1, 0): F(1), (2, 2): F(1)}
    wm = weyl_structure_map(b, t, (1, 2, 3), n=2)
    ins = [b.gen("xi1"), b.gen("xi2"), b.gen("xi3")]
    out = wm.structure_map(ins)
    assert out[()] == ins[0] * ins[1] * ins[2]
    # some first-order term exists
    assert any(len(w) == 1 for w in out)


def test_weyl_structure_map_with_an_integer_pairing_is_exact():
    # exp(a) divides the k-th power of a by k!: a Fraction division even
    # when the pairing and the inputs carry int coefficients
    b = sym_v_dual(3)
    x = [b.gen(f"xi{i + 1}") for i in range(3)]
    ins = [x[0] * x[1], x[1] * x[2], x[0] * x[2]]
    t_int = {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1, (0, 2): 2, (2, 0): 2}
    out = weyl_structure_map(b, t_int, (1, 2, 3), n=2).structure_map(ins)
    want = weyl_structure_map(b, {k: F(v) for k, v in t_int.items()}, (1, 2, 3), n=2).structure_map(ins)
    assert out == want
    assert any(len(w) == 2 for w in out)  # a second power of a, divided by 2
    assert all(type(c) in (int, F) for e in out.values() for c in e.terms.values())


def _random_weyl_case(rng, arity):
    """(B, t, inputs): B with an even and an odd generator among two or
    three of degree 0..2, a random rational t and one polynomial per slot."""
    degrees = [0, 1] + [rng.randrange(3) for _ in range(rng.randrange(2))]
    rng.shuffle(degrees)
    b = FreeCDGA([Generator(f"g{i}", d) for i, d in enumerate(degrees)])
    m = len(degrees)
    t = {}
    while not t:
        t = {(k, l): F(rng.randint(-3, 3), rng.randint(1, 3)) for k in range(m) for l in range(m)
             if rng.random() < 0.5}
        t = {key: v for key, v in t.items() if v}
    inputs = []
    for _ in range(arity):
        e = b.zero()
        for _ in range(rng.randint(1, 2)):
            term = b.scalar(F(rng.randint(-2, 2) or 1, rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * b.gen(f"g{rng.randrange(m)}")
            e = e + term
        inputs.append(e if not e.is_zero() else b.one())
    return b, t, inputs


def test_weyl_structure_map_matches_the_oracle():
    # seeded bases, pairings and polynomial inputs at arities 2-4, n = 0..3
    rng = random.Random(27)
    lengths = []
    for arity in (2, 3, 4):
        labels = tuple(range(1, arity + 1))
        for n in range(4):
            for _ in range(3):
                b, t, inputs = _random_weyl_case(rng, arity)
                got = WeylMap(b, t, labels, n).structure_map(inputs)
                assert got == OracleWeylMap(b, t, labels, n).structure_map(inputs)
                assert all(isinstance(e, Elem) and not e.is_zero() for e in got.values())
                lengths.append(max(map(len, got), default=0))
    # most cases reach an Arnold word, and some a power of a
    assert sum(k >= 1 for k in lengths) >= 20 and sum(k >= 2 for k in lengths) >= 5
