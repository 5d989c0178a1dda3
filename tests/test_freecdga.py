import random
from fractions import Fraction as F

import pytest

from helpers import (
    oracle_apply_derivation,
    oracle_de_rham,
    oracle_graded_mixed_window,
    oracle_kaehler,
    oracle_weight_window_total_complex,
    random_valid_cdga,
)
from spw.errors import BidegreeMismatch, NotRegular
from spw.freecdga import (
    Elem,
    FreeCDGA,
    Window,
    apply_derivation,
    closed_form_classes,
    d_functor,
    de_rham,
    enumerate_monomials,
    graded_mixed_window,
    kaehler,
    koszul,
    koszul_tower_cotangent,
    validate_cdga,
    window_basis,
)
from spw.gradedmixed import validate_mixed, weight_window_total_complex


def poly_line():
    return FreeCDGA([("x", 0)])


def poly_plane():
    return FreeCDGA([("x", 0), ("y", 0)])


def test_elem_arithmetic_and_odd_squares():
    alg = FreeCDGA([("x", 0), ("a", 1), ("b", 1)])
    x, a, b = alg.gen("x"), alg.gen("a"), alg.gen("b")
    assert (a * a).is_zero()
    assert a * b == -(b * a)
    assert (x * a) * b == x * (a * b)
    assert (x + a) * (x - a) == x * x  # a*x*... cross terms cancel with a^2 = 0
    assert (x * x).coefficient((0, 0)) == 1


def test_validate_polynomial_ring():
    assert validate_cdga(poly_line()).valid


def test_validate_koszul_style_differential():
    alg = FreeCDGA([("x", 0), ("xi", -1)])
    alg.set_differential({"xi": alg.gen("x") ** 2})
    assert validate_cdga(alg).valid


def test_validate_rejects_inconsistent_differential():
    # d(xi) = xi * x has d^2(xi) = x * d(xi) pattern: not square zero
    alg = FreeCDGA([("x", 0), ("xi", -1)])
    alg.set_differential({"xi": alg.gen("xi") * alg.gen("x")})
    rep = validate_cdga(alg)
    assert not rep.valid
    assert any(v[0] in ("d^2", "d degree") for v in rep.violations)


def test_kaehler_of_line():
    km = kaehler(poly_line())
    assert km.rank() == 1
    assert km.d_symbol("dx").is_zero()


def test_kaehler_of_koszul_leibniz():
    # K(Q[x], x^2): d(dX) = dR(x^2) = 2x dx
    alg = FreeCDGA([("x", 0), ("X", -1)])
    alg.set_differential({"X": alg.gen("x") ** 2})
    km = kaehler(alg)
    assert set(km.symbols) == {"dx", "dX"}
    expected = (km.ambient.gen("x") * km.ambient.gen("dx")).scale(2)
    assert km.d_symbol("dX") == expected


def test_kaehler_relative_kills_base_forms():
    b = FreeCDGA([("x", 0), ("y", 0)], base_names=["x"])
    km = kaehler(b)
    assert km.symbols == ("dy",)


def test_de_rham_line_weights():
    dr = de_rham(poly_line())
    dims = dr.weight_dim_window(0, 4), dr.weight_dim_window(1, 4), dr.weight_dim_window(2, 4)
    assert dims[0] == {0: 4 + 1 - 1 + 1} or dims[0][0] >= 4  # 1, x, .., x^3 within length 4
    assert set(dims[1]) == {1}  # dx is odd: weight-1 part is B*dx in degree 1
    assert dims[2] == {}  # dx^2 = 0: no weight-2 part on a line
    assert dr.algebra.eps(dr.algebra.gen("x")) == dr.algebra.gen("dx")


def test_de_rham_plane_weight_two():
    dr = de_rham(poly_plane())
    alg = dr.algebra
    dims = dr.weight_dim_window(2, 2)
    assert dims == {2: 1}  # dx*dy only
    x, dy = alg.gen("x"), alg.gen("dy")
    assert alg.eps(x * dy) == alg.gen("dx") * dy


def test_de_rham_of_random_cdgas_is_valid_mixed():
    rng = random.Random(41)
    for _ in range(20):
        b = random_valid_cdga(rng, max_gens=4)
        dr = de_rham(b)
        assert validate_cdga(dr.algebra).valid
        cx, _ = graded_mixed_window(dr.algebra, Window(0, 3, -6, 6, 3))
        assert validate_mixed(cx).valid


def test_de_rham_eps_is_derivation_on_quadratic_monomials():
    rng = random.Random(43)
    b = random_valid_cdga(rng, max_gens=4)
    alg = de_rham(b).algebra
    for g in alg.generators:
        for h in alg.generators:
            x, y = alg.gen(g.name), alg.gen(h.name)
            lhs = alg.eps(x * y)
            rhs = alg.eps(x) * y + (x * alg.eps(y)).scale(-1 if g.degree % 2 else 1)
            assert lhs == rhs


def test_closed_forms_no_two_forms_on_line():
    rep = closed_form_classes(poly_line(), p=2, n=0, wmax=3, max_len=4)
    assert rep.dimension == 0


def brute_plane_two_form_classes(max_poly_deg):
    """Independent count: closed 2-forms f dx dy of degree 0 on Q[x,y]
    modulo eps-exact ones, on monomial coefficients of degree <= max_poly_deg.

    eps(g dx) = dg/dy * dy dx ... computed directly: the image of
    {g dx + h dy : deg g, h <= max_poly_deg + 1} under the de Rham map is
    spanned by (dg/dx' terms); cocycles are everything (top forms).
    """
    from spw.exactlin import SparseMatrix

    # coefficient monomials x^a y^b
    def monos(cap):
        return [(a, bb) for a in range(cap + 1) for bb in range(cap + 1 - a)]

    two_basis = {m: i for i, m in enumerate(monos(max_poly_deg))}
    one_basis = []  # (which, a, b): which in {dx, dy}
    for which in ("dx", "dy"):
        for (a, bb) in monos(max_poly_deg + 1):
            one_basis.append((which, a, bb))
    ent = {}
    for j, (which, a, bb) in enumerate(one_basis):
        # eps(x^a y^b dx) = b x^a y^{b-1} dy dx = -b x^a y^{b-1} dx dy
        if which == "dx" and bb > 0 and (a, bb - 1) in two_basis:
            ent[two_basis[a, bb - 1], j] = -bb
        if which == "dy" and a > 0 and (a - 1, bb) in two_basis:
            ent[two_basis[a - 1, bb], j] = a
    m = SparseMatrix(len(two_basis), len(one_basis), ent)
    return len(two_basis) - m.rank()


def test_closed_forms_plane_match_brute_force():
    rep = closed_form_classes(poly_plane(), p=2, n=0, wmax=4, max_len=5, modulo_exact=True)
    # Hodge-truncated classes: every f dx dy is its own class (no degree-1
    # elements of weight >= 2 on the plane); count = coefficient monomials
    # of degree <= 3 inside the word window 5
    assert rep.dimension == 10
    # modulo de Rham exactness everything dies (Poincare lemma), matching
    # the independent brute-force cocycle/coboundary count
    assert rep.modulo_exact_dimension == brute_plane_two_form_classes(3) == 0
    for tower in rep.representatives:
        assert tower.check_cocycle(4)
        uf = tower.underlying_form()
        assert uf.weight() in (2, 0)  # weight-2 component (or zero)


def test_underlying_form_of_strict_tower():
    dr = de_rham(poly_plane())
    alg = dr.algebra
    from spw.freecdga import ClosedFormTower

    omega = alg.gen("dx") * alg.gen("dy")
    tower = ClosedFormTower(dr, 2, 0, {2: omega})
    assert tower.underlying_form() == omega
    assert tower.is_strict()
    zero_tower = ClosedFormTower(dr, 2, 0, {})
    assert zero_tower.underlying_form().is_zero()


def test_koszul_regular_single_generator():
    b = poly_line()
    k = koszul(b, [b.gen("x")])
    dims = k.homotopy_dims(max_len=5, min_degree=-3)
    assert dims[0] == 1  # pi_0 = Q
    assert dims[1] == 0 and dims[2] == 0


def test_koszul_square_relation():
    b = poly_line()
    k = koszul(b, [b.gen("x")], powers=[2])
    dims = k.homotopy_dims(max_len=5, min_degree=-3)
    assert dims[0] == 2  # Q[x]/(x^2)
    assert dims[1] == 0


def test_koszul_non_regular_sequence():
    b = poly_line()
    k = koszul(b, [b.gen("x"), b.gen("x")])
    dims = k.homotopy_dims(max_len=5, min_degree=-3)
    assert dims[1] != 0


def test_koszul_tower_transitions():
    b = poly_line()
    rep = koszul_tower_cotangent(b, [b.gen("x")], stages=3)
    assert rep.raw_nonzero
    assert rep.zero_after_base_change
    b2 = poly_plane()
    rep2 = koszul_tower_cotangent(b2, [b2.gen("x"), b2.gen("y")], stages=2)
    assert rep2.zero_after_base_change
    assert len(rep2.transition_matrices[0]) == 2


def test_d_functor_point():
    b = FreeCDGA([])
    res = d_functor(b, [], wmax=2, max_len=3)
    assert res.realization_h0_dims[0] == 1


def test_d_functor_line_origin():
    # Frozen from the brute-force oracle: H^0 of the weight-<=W total
    # complex of DR(K(Q[x],x)/Q[x]) in word window 5 is Q[x]/(x^{W+1}),
    # i.e. dimension W+1, until the word window cuts it at 5+1.
    b = poly_line()
    res = d_functor(b, [b.gen("x")], wmax=4, max_len=5)
    assert res.weight0_h0_dims[0] == 1  # H^0(K) = Q/(x) has dim 1... B/I
    assert [res.realization_h0_dims[w] for w in range(0, 5)] == [1, 2, 3, 4, 5]
    # weight-1 part is free of rank one on dX, sitting in degree 0
    dr_alg = res.de_rham.algebra
    i = dr_alg.index["dX1"]
    assert dr_alg.generators[i].degree == 0 and dr_alg.generators[i].weight == 1


def test_d_functor_rejects_non_regular():
    b = poly_line()
    with pytest.raises(NotRegular):
        d_functor(b, [b.gen("x"), b.gen("x")], wmax=2, max_len=4)


def test_degree_one_differential_on_generators_is_valid():
    alg = FreeCDGA([("x", 0), ("xi", 1)])
    alg.set_differential({"x": alg.gen("xi")})
    assert validate_cdga(alg).valid


def test_weight_j_part_is_wedge_of_kaehler_module():
    # Prop-p1 shape at strict level: the weight-j slice of the de Rham
    # algebra is Sym^j of the shifted symbols over B, verified against an
    # independent count with exterior/symmetric bookkeeping per parity
    from itertools import combinations, combinations_with_replacement

    from spw.freecdga import enumerate_monomials

    rng = random.Random(53)
    for _ in range(8):
        b = random_valid_cdga(rng, max_gens=3)
        dr = de_rham(b)
        max_len = 4
        sym_degs = {
            s: dr.algebra.gen_degree(dr.algebra.index[s]) for s in dr.symbols
        }
        for j in (1, 2):
            got = dr.weight_dim_window(j, max_len)
            expected = {}
            odd = [s for s in dr.symbols if sym_degs[s] % 2]
            even = [s for s in dr.symbols if sym_degs[s] % 2 == 0]
            word_choices = []
            for k_odd in range(0, min(j, len(odd)) + 1):
                for odd_pick in combinations(odd, k_odd):
                    for even_pick in combinations_with_replacement(even, j - k_odd):
                        word_choices.append(tuple(odd_pick) + even_pick)
            for mono in enumerate_monomials(b, max_len - j):
                base_deg = sum(b.gen_degree(i) for i in mono)
                for word in word_choices:
                    d = base_deg + sum(sym_degs[s] for s in word)
                    expected[d] = expected.get(d, 0) + 1
            assert got == expected


def _de_rham_windows():
    rng = random.Random(73)
    algs = [poly_line(), poly_plane(), FreeCDGA([("x", 0), ("y", 0), ("a", 1)])]
    algs += [random_valid_cdga(rng, max_gens=4) for _ in range(8)]
    for b in algs:
        for window in (Window(0, 3, -6, 6, 3), Window(1, 4, -2, 3, 4), Window(0, 2, -4, 1, 5)):
            yield de_rham(b).algebra, window


def test_graded_mixed_window_matches_per_label_oracle():
    for alg, window in _de_rham_windows():
        cx, mono_of = graded_mixed_window(alg, window)
        want, want_mono_of = oracle_graded_mixed_window(alg, window)
        assert mono_of == want_mono_of
        assert cx.module.basis == want.module.basis
        assert cx.d == want.d and cx.eps == want.eps
        for wmin, wmax in ((window.wmin, window.wmax), (window.wmin + 1, window.wmax - 1)):
            got = weight_window_total_complex(cx, wmin, wmax)
            oracle = oracle_weight_window_total_complex(want, wmin, wmax)
            assert got.basis == oracle.basis and got.diff == oracle.diff


def test_graded_mixed_window_images_each_monomial_once(monkeypatch):
    for alg, window in _de_rham_windows():
        calls = {"d": [], "eps": []}
        for name, seen in calls.items():

            def counted(x, op=getattr(alg, name), seen=seen):
                seen.append(x)
                return op(x)

            monkeypatch.setattr(alg, name, counted)
        cx, mono_of = graded_mixed_window(alg, window)
        monos = sorted(mono_of.values())
        for seen in calls.values():
            assert sorted(m for x in seen for m in x.terms) == monos
            assert all(len(x.terms) == 1 for x in seen)
        monkeypatch.undo()
        assert set(monos) == set(window_basis(alg, window))


def _random_elem(rng, alg, max_len=4, terms=12):
    monos = list(enumerate_monomials(alg, max_len))
    picked = rng.sample(monos, min(terms, len(monos)))
    # many terms with unit coefficients, so images cancel and reappear
    return Elem(alg, {m: F(rng.choice([-1, 1])) for m in picked})


def test_apply_derivation_matches_elem_product_oracle_in_order():
    rng = random.Random(89)
    for _ in range(25):
        b = random_valid_cdga(rng, max_gens=4)
        dr = de_rham(b).algebra
        amb = kaehler(b).ambient
        universal = {amb.index[g.name]: amb.gen("d" + g.name) for g in b.generators}
        cases = [(b, b.differential, 1), (dr, dr.differential, 1), (dr, dr.mixed, 1), (amb, universal, 0)]
        for alg, values, parity in cases:
            for _ in range(3):
                e = _random_elem(rng, alg)
                got = apply_derivation(alg, e, values, parity)
                want = oracle_apply_derivation(alg, e, values, parity)
                assert list(got.terms.items()) == list(want.terms.items())
        for alg in (b, dr):
            i = rng.randrange(len(alg.generators))
            e = _random_elem(rng, alg)
            want = oracle_apply_derivation(alg, e, {i: alg.one()}, alg.gen_degree(i) % 2)
            assert list(alg.partial(alg.generators[i].name, e).terms.items()) == list(want.terms.items())


def _relative(b, rng):
    rel = FreeCDGA(b.generators, base_names=[g.name for g in b.generators if rng.random() < 0.4])
    rel.differential = {i: Elem(rel, v.terms) for i, v in b.differential.items()}
    return rel


def _in_order(structure):
    return [(i, list(e.terms.items())) for i, e in structure.items()]


def test_de_rham_and_kaehler_match_the_separate_builders():
    rng = random.Random(97)
    for _ in range(20):
        b = random_valid_cdga(rng, max_gens=4)
        for base in (b, _relative(b, rng)):
            dr, km = de_rham(base), kaehler(base)
            symbols = tuple("d" + g.name for g in base.generators if g.name not in base.base_names)
            assert dr.symbols == km.symbols == symbols
            for got, want in ((dr.algebra, oracle_de_rham(base)), (km.ambient, oracle_kaehler(base))):
                assert got.generators == want.generators
                assert got.base_names == want.base_names
                assert _in_order(got.differential) == _in_order(want.differential)
                assert _in_order(got.mixed) == _in_order(want.mixed)


def test_image_inside_the_window_at_another_bidegree_is_refused():
    # d(x) = x is of degree 0, not 1; d(x) = x + y is inhomogeneous
    line = FreeCDGA([("x", 0)])
    line.set_differential({"x": line.gen("x")})
    mixed = FreeCDGA([("x", 0), ("y", 1)])
    mixed.set_differential({"x": mixed.gen("x") + mixed.gen("y")})
    for alg in (line, mixed):
        with pytest.raises(BidegreeMismatch, match="image of x has the term x"):
            graded_mixed_window(alg, Window(0, 2, -2, 2, 3))
        with pytest.raises(BidegreeMismatch, match=r"d\(x\) has the term x outside bidegree \(0, 1\)"):
            de_rham(alg)
