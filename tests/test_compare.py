import os
import random
from fractions import Fraction as F

import pytest

import helpers
from helpers import oracle_closure, oracle_nondegeneracy
from spw import compare, dsl, freecdga, polyvec
from spw.compare import (
    SymplecticForm,
    darboux_leading_term,
    phi_pi,
    poisson_to_form,
    strictify_closed_two_form,
    symplectic_to_poisson,
)
from spw.errors import Degenerate, IdentityViolated, NotMinimal
from spw.exactlin import SparseMatrix
from spw.freecdga import ClosedFormTower, Elem, FreeCDGA, Window, de_rham
from spw.polyvec import MaurerCartanTower, PolyvectorAlgebra, mc_check, pairing_matrix, strict_tower


def cotangent_pair(n):
    """Generators x (deg 0), xi (deg n) with pi = @x @xi."""
    b = FreeCDGA([("x", 0), ("xi", n)])
    pol = PolyvectorAlgebra(b, n + 1)
    return b, pol, pol.theta("x") * pol.theta("xi")


def random_constant_nondeg(rng, n, pairs=2):
    """Constant non-degenerate pi on `pairs` dual pairs (a_i deg 0, b_i deg n)."""
    gens = []
    for i in range(pairs):
        gens.append((f"a{i+1}", 0))
        gens.append((f"b{i+1}", n))
    b = FreeCDGA(gens)
    pol = PolyvectorAlgebra(b, n + 1)
    pi = pol.algebra.zero()
    coeffs = []
    for i in range(pairs):
        c = F(rng.choice([1, 2, 3, -1, -2]))
        coeffs.append(c)
        pi = pi + (pol.theta(f"a{i+1}") * pol.theta(f"b{i+1}")).scale(c)
    # off-diagonal mixing between distinct pairs keeps it invertible
    if pairs >= 2 and rng.random() < 0.5:
        pi = pi + (pol.theta("a1") * pol.theta("b2")).scale(F(rng.choice([1, -1])))
    return b, pol, pi


def test_phi_pi_cotangent_chain_map_and_iso():
    for n in (0, 1, 2):
        b, pol, pi = cotangent_pair(n)
        res = phi_pi(b, pi, n, Window(0, 2, -8, 8, 3))
        assert res.chain_map_ok
        assert res.bidegree_iso
        # phi(dx) = [pi, x]: a +-1 multiple of @xi
        img = res.images["dx"]
        assert len(img.terms) == 1
        ((mono, coeff),) = img.terms.items()
        assert abs(coeff) == 1
        assert mono == (pol.algebra.index["@xi"],)


def test_phi_pi_block_dualization_on_four_generators():
    rng = random.Random(3)
    b, pol, pi = random_constant_nondeg(rng, 1, pairs=2)
    res = phi_pi(b, pi, 1, Window(0, 2, -8, 8, 2))
    assert res.chain_map_ok and res.bidegree_iso


# iso_blocks as computed by the per-label window assembly this replaced
RECORDED_ISO_BLOCKS = {
    0: [((0, 0), (10, 10)), ((1, 1), (12, 12)), ((2, 2), (3, 3))],
    1: [
        ((0, 0), (4, 4)), ((0, 1), (3, 3)), ((1, 1), (3, 3)), ((1, 2), (5, 5)),
        ((1, 3), (2, 2)), ((2, 3), (2, 2)), ((2, 4), (3, 3)), ((2, 5), (1, 1)),
    ],
    2: [
        ((0, 0), (4, 4)), ((0, 2), (3, 3)), ((0, 4), (2, 2)), ((0, 6), (1, 1)), ((1, 1), (3, 3)),
        ((1, 3), (5, 5)), ((1, 5), (3, 3)), ((1, 7), (1, 1)), ((2, 4), (2, 2)), ((2, 6), (1, 1)),
    ],
    "four generators": [
        ((0, 0), (6, 6)), ((0, 1), (6, 6)), ((0, 2), (1, 1)), ((1, 1), (6, 6)), ((1, 2), (10, 10)),
        ((1, 3), (4, 4)), ((2, 2), (1, 1)), ((2, 3), (4, 4)), ((2, 4), (3, 3)),
    ],
}


def test_phi_pi_iso_blocks_match_recorded_values():
    for n in (0, 1, 2):
        b, _, pi = cotangent_pair(n)
        res = phi_pi(b, pi, n, Window(0, 2, -8, 8, 3))
        assert list(res.iso_blocks.items()) == RECORDED_ISO_BLOCKS[n]
    b, _, pi = random_constant_nondeg(random.Random(3), 1, pairs=2)
    res = phi_pi(b, pi, 1, Window(0, 2, -8, 8, 2))
    assert list(res.iso_blocks.items()) == RECORDED_ISO_BLOCKS["four generators"]


def test_phi_pi_images_the_top_degree_words_itself(monkeypatch):
    # the closure stores no images of the words of degree dmax; phi_pi
    # images every window word from its prefixes, and reads as the oracle
    # does on the oracle's closure, which images every word
    checked = 0
    cases = [(*cotangent_pair(n), n) for n in (0, 1, 2)]
    cases.append((*random_constant_nondeg(random.Random(3), 1, pairs=2), 1))
    monkeypatch.setattr(helpers, "_closure", oracle_closure)
    for b, _, pi, n in cases:
        alg = de_rham(b).algebra
        for window in (Window(0, 2, -2, 2, 3), Window(0, 3, 0, 1, 4)):
            inside, images = freecdga._closure(alg, window)
            assert any(m not in images for m in inside)
            got = phi_pi(b, pi, n, window)
            want = helpers.oracle_phi_pi(b, pi, n, window)
            assert got.chain_map_ok and got.bidegree_iso
            assert (got.chain_map_ok, got.iso_blocks, got.bidegree_iso) == (
                want.chain_map_ok, want.iso_blocks, want.bidegree_iso
            )
            checked += 1
    assert checked == 8


def nonconstant_strict_pi():
    """pi = (1 + x) @x @y on two degree-0 generators: strict Poisson,
    non-degenerate at the augmentation, and not constant."""
    b = FreeCDGA([("x", 0), ("y", 0)])
    pol = PolyvectorAlgebra(b, 1)
    return b, pol, ((pol.algebra.one() + pol.include(b.gen("x"))) * pol.theta("x") * pol.theta("y"))


def phi_pi_cases():
    """(base, pi, n, window): constant non-degenerate pi at shifts 0-2, and
    the non-constant strict pi, each in two windows."""
    rng = random.Random(26)
    cases = []
    for n in (0, 1, 2):
        b, _, pi = random_constant_nondeg(rng, n)
        cases += [(b, pi, n, Window(0, 2, -8, 8, 3)), (b, pi, n, Window(0, 3, -2, 2, 3))]
    b, _, pi = nonconstant_strict_pi()
    cases += [(b, pi, 0, Window(0, 2, -8, 8, 3)), (b, pi, 0, Window(0, 3, -2, 2, 4))]
    return cases


def phi_pi_outcome(res):
    return res.chain_map_ok, res.iso_blocks, res.bidegree_iso, res.images


def test_phi_pi_equals_the_per_monomial_oracle():
    for b, pi, n, window in phi_pi_cases():
        got = phi_pi(b, pi, n, window)
        assert got.chain_map_ok and got.bidegree_iso
        assert phi_pi_outcome(got) == phi_pi_outcome(helpers.oracle_phi_pi(b, pi, n, window))


def test_phi_pi_and_the_oracle_reject_a_doubled_symbol_image(monkeypatch):
    # the first [pi, x] a run takes is phi(dx): doubled, it breaks
    # phi eps = [pi, phi -] on x, which both must see
    bracket = PolyvectorAlgebra.bracket
    for b, pi, n, window in phi_pi_cases():
        x = b.generators[0].name
        runs = []
        for run in (phi_pi, helpers.oracle_phi_pi):
            doubled = []

            def doubling(pol, p, q):
                out = bracket(pol, p, q)
                if not doubled and q == pol.include(b.gen(x)):
                    doubled.append(q)
                    return out.scale(2)
                return out

            monkeypatch.setattr(PolyvectorAlgebra, "bracket", doubling)
            res = run(b, pi, n, window)
            monkeypatch.undo()
            assert doubled and not res.chain_map_ok
            assert res.images["d" + x] == bracket(res.pol, pi, res.pol.include(b.gen(x))).scale(2)
            runs.append(phi_pi_outcome(res))
        assert runs[0] == runs[1]


def test_phi_pi_rejects_zero_pi():
    b = FreeCDGA([("x", 0), ("xi", 1)])
    pol = PolyvectorAlgebra(b, 2)
    with pytest.raises(Degenerate):
        phi_pi(b, pol.algebra.zero(), 1)


def test_poisson_to_form_cotangent():
    for n in (0, 1, 2):
        b, pol, pi = cotangent_pair(n)
        form = poisson_to_form(b, pi, n)
        assert form.omega.weight() == 2 and form.omega.degree() == n + 2
        # dx*dxi up to the fixed sign: single monomial, unit coefficient
        assert len(form.omega.terms) == 1
        ((_, coeff),) = form.omega.terms.items()
        assert abs(coeff) == 1


def test_poisson_to_form_diagonal_coefficients_invert():
    b = FreeCDGA([("a1", 0), ("b1", 1), ("a2", 0), ("b2", 1)])
    pol = PolyvectorAlgebra(b, 2)
    pi = (pol.theta("a1") * pol.theta("b1")).scale(1) + (
        pol.theta("a2") * pol.theta("b2")
    ).scale(2)
    form = poisson_to_form(b, pi, 1)
    coeffs = sorted(abs(c) for c in form.omega.terms.values())
    assert coeffs == [F(1, 2), F(1)]


def test_round_trips_are_exact_identities():
    rng = random.Random(9)
    for n in (0, 1, 2):
        b, pol, pi = cotangent_pair(n)
        assert symplectic_to_poisson(poisson_to_form(b, pi, n)) == pi
    for _ in range(10):
        n = rng.choice([0, 1, 2])
        b, pol, pi = random_constant_nondeg(rng, n, pairs=2)
        form = poisson_to_form(b, pi, n)
        assert symplectic_to_poisson(form) == pi
        form2 = poisson_to_form(b, symplectic_to_poisson(form), n)
        assert form2.omega == form.omega


def test_symplectic_rejects_degenerate_at_augmentation():
    b = FreeCDGA([("x", 0), ("y", 0)])
    dr = de_rham(b)
    alg = dr.algebra
    omega = alg.gen("x") * alg.gen("dx") * alg.gen("dy")
    with pytest.raises(Degenerate):
        SymplecticForm.build(dr, 0, omega, pairing_matrix(alg, dr.symbols, omega))


def test_symplectic_build_validates_closedness():
    b = FreeCDGA([("x", 0), ("y", 0)])
    dr = de_rham(b)
    alg = dr.algebra
    omega = alg.gen("dx") * alg.gen("dy")
    form = SymplecticForm.build(dr, 0, omega, pairing_matrix(alg, dr.symbols, omega))
    assert form.theta.rank() == 2
    pi = symplectic_to_poisson(form)
    assert poisson_to_form(b, pi, 0).omega == omega


def test_pairing_reader_agrees_with_the_bracket_coefficient_oracle():
    rng = random.Random(23)
    cases = []
    for n in (0, 1, 2):
        for _ in range(4):
            b, pol, pi = random_constant_nondeg(rng, n, pairs=2)
            a1 = pol.include(b.gen("a1"))
            cases += [(pol, pi), (pol, pi + a1 * pi), (pol, pol.theta("a1") * pol.theta("b1"))]
        b, pol, pi = cotangent_pair(n)
        x = pol.include(b.gen("x"))
        cases += [(pol, pi), (pol, x * pi), (pol, pol.algebra.zero())]
        pol = PolyvectorAlgebra(FreeCDGA([("x", 0), ("y", 0), ("xi", n)]), n + 1)
        cases.append((pol, pol.theta("x") * pol.theta("xi")))
    verdicts = set()
    for pol, p0 in cases:
        new, old = polyvec.nondegeneracy(pol, p0), oracle_nondegeneracy(pol, p0)
        assert (new.blocks, new.nondegenerate) == (old.blocks, old.nondegenerate)
        for i in range(old.theta.rows):
            row_new, row_old = ([t.entry(i, j) for j in range(t.cols)] for t in (new.theta, old.theta))
            assert row_new in (row_old, [-v for v in row_old])
        verdicts.add(old.nondegenerate)
        if old.nondegenerate:
            assert polyvec.require_nondegenerate(pol, p0) == new
        else:
            with pytest.raises(Degenerate) as exc:
                polyvec.require_nondegenerate(pol, p0)
            assert str(exc.value) == f"pairing not invertible at the augmentation: {old.blocks}"
    assert verdicts == {True, False}


@pytest.mark.parametrize("example", ["cotangent", "plane_poisson"])
def test_dualization_reads_pi_without_building_a_bracket_table(monkeypatch, example):
    path = os.path.join(os.path.dirname(__file__), "..", "examples_dsl", example + ".spw")
    with open(path, encoding="utf-8") as fh:
        block = next(b for b in dsl.parse(fh.read()).blocks if b.kind == "poisson")
    tower = dsl.build_poisson(block)
    calls = []
    induced = polyvec.induced_bracket

    def counted(*args):
        calls.append(args)
        return induced(*args)

    monkeypatch.setattr(polyvec, "induced_bracket", counted)
    form = poisson_to_form(tower.pol.base, tower.component(0), tower.n)
    assert symplectic_to_poisson(form) == tower.component(0)
    assert calls == []


# -- strictification -----------------------------------------------------------


def minimal_sym_l(n):
    """Sym(L) for L = (x deg 0, xi deg n), zero differential: minimal."""
    return FreeCDGA([("x", 0), ("xi", n)])


def test_strictify_already_strict_input():
    b = minimal_sym_l(1)
    dr = de_rham(b)
    alg = dr.algebra
    omega = alg.gen("dx") * alg.gen("dxi")
    tower = ClosedFormTower(dr, 2, 1, {2: omega})
    res = strictify_closed_two_form(b, tower, Window(1, 4, 1, 5, 4))
    assert res.strict_form == omega or (res.strict_form - omega).is_zero()
    assert alg.eps(res.eta) == res.strict_form


def test_strictify_gauge_round_trip_exact():
    rng = random.Random(21)
    for trial in range(5):
        n = rng.choice([1, 2])
        b = minimal_sym_l(n)
        dr = de_rham(b)
        alg = dr.algebra
        deg = n + 2
        window = Window(1, 5, deg - 2, deg + 2, 5)
        # strict seed: eps of a random weight-1 potential (guarantees both
        # closedness conditions on a zero-differential base)
        from spw.freecdga import window_basis

        basis = window_basis(alg, window)
        eta_monos = [m for m, (w, d) in basis.items() if w == 1 and d == n + 1]
        eta0 = Elem(
            alg,
            {
                m: F(rng.choice([-2, -1, 1, 2]))
                for m in rng.sample(eta_monos, k=min(2, len(eta_monos)))
            },
        )
        sigma0 = alg.eps(eta0)
        if sigma0.is_zero():
            continue
        h_monos = [m for m, (w, d) in basis.items() if w >= 2 and d == n + 1]
        h0 = Elem(
            alg,
            {
                m: F(rng.choice([-1, 1, 2]))
                for m in rng.sample(h_monos, k=min(2, len(h_monos)))
            },
        )

        def drop(e):
            return Elem(
                alg,
                {
                    m: c
                    for m, c in e.terms.items()
                    if sum(alg.gen_weight(i) for i in m) <= window.wmax
                },
            )

        pushed = sigma0 + drop(alg.d(h0) + alg.eps(h0))
        comps = {}
        for m, c in pushed.terms.items():
            w = sum(alg.gen_weight(i) for i in m)
            comps.setdefault(w, alg.zero())
            comps[w] = comps[w] + Elem(alg, {m: c})
        tower = ClosedFormTower(dr, 2, n, comps)
        assert tower.check_cocycle(window.wmax)
        res = strictify_closed_two_form(b, tower, window)
        # with d = 0 on the base the weight-2 gauge component is pure eps,
        # so the recovered strict form equals the seed exactly
        assert res.strict_form == sigma0


def test_strictify_rejects_nonminimal_base():
    gens = [("x", 0), ("xi", -1)]
    b = FreeCDGA(gens, differential={"xi": FreeCDGA(gens).gen("x")})
    dr = de_rham(b)
    tower = ClosedFormTower(dr, 2, 0, {})
    with pytest.raises(NotMinimal):
        strictify_closed_two_form(b, tower)


# -- Darboux -------------------------------------------------------------------


def test_darboux_strict_constant_tower():
    b, pol, pi = cotangent_pair(1)
    rep = darboux_leading_term(strict_tower(pol, 1, pi))
    assert rep.valid
    assert rep.q == pi
    assert all(c.is_zero() for c in rep.residual)


def test_darboux_with_nonconstant_correction():
    # q + x @x @xi on (x deg 0, xi deg 1), n = 1: the rewritten MC equation
    # holds exactly since the full p_0 is itself Poisson
    b = FreeCDGA([("x", 0), ("xi", 1)])
    pol = PolyvectorAlgebra(b, 2)
    q = pol.theta("x") * pol.theta("xi")
    corr = pol.include(b.gen("x")) * pol.theta("x") * pol.theta("xi")
    p0 = q + corr
    assert pol.bracket(p0, p0).is_zero()
    tower = strict_tower(pol, 1, p0)
    assert mc_check(tower).valid
    rep = darboux_leading_term(tower)
    assert rep.valid
    assert rep.q == q
    assert rep.residual[0] == corr


def test_darboux_requires_nondegenerate_leading_term():
    b = FreeCDGA([("x", 0), ("xi", 1)])
    pol = PolyvectorAlgebra(b, 2)
    p0 = pol.include(b.gen("x")) * pol.theta("x") * pol.theta("xi")
    tower = strict_tower(pol, 1, p0)
    assert mc_check(tower).valid
    with pytest.raises(Degenerate):
        darboux_leading_term(tower)


def test_obstructed_leading_term_cannot_pass_mc():
    # a linear pi on degree-n generators whose coefficient table fails
    # Jacobi: [pi, pi] != 0, and with d = 0 no p_1 can repair the i = 0
    # equation, so mc_check fails for every tower extending it
    n = 2
    b = FreeCDGA([("x", n), ("y", n), ("z", n)])
    pol = PolyvectorAlgebra(b, n + 1)
    x, y, z = (pol.include(b.gen(c)) for c in "xyz")
    tx, ty, tz = (pol.theta(c) for c in "xyz")
    pi = x * tx * ty + y * ty * tz + y * tz * tx
    if pol.bracket(pi, pi).is_zero():
        pi = x * tx * ty + y * ty * tz + x * tz * tx
    assert pi.degree() == n + 2 and pi.weight() == 2
    assert not pol.bracket(pi, pi).is_zero()
    tower = MaurerCartanTower(pol, n, [pi])
    rep = mc_check(tower)
    assert not rep.valid and rep.first_failure == 0
    # any candidate p_1 has d p_1 = 0, so the i = 0 equation stays violated
    for m in pol.basis(3, n + 2, 3):
        p1 = Elem(pol.algebra, {m: F(1)})
        assert pol.d(p1).is_zero()


def test_strictify_raises_when_a_solution_breaks_its_identities(monkeypatch):
    # minimal base with d(xi) = x y, so eps(x dxi)-type forms need not be d-closed
    gens = [("x", 0), ("y", 0), ("xi", -1)]
    free = FreeCDGA(gens)
    b = FreeCDGA(gens, differential={"xi": free.gen("x") * free.gen("y")})
    dr = de_rham(b)
    tower = ClosedFormTower(dr, 2, -1, {2: dr.algebra.gen("dx") * dr.algebra.gen("dy")})
    window = Window(1, 4, -1, 3, 4)

    def unit_at_last_row(mat, rhs):
        # an eta unknown whose eps is not d-closed: it has an entry in the
        # last rows, which hold the d(eps(eta)) = 0 equations
        _, j = max(k for k, _ in mat.items())
        return SparseMatrix(mat.cols, 1, [(j, 0, 1)])

    def zero_solution(mat, rhs):
        return SparseMatrix.zero(mat.cols, 1)

    monkeypatch.setattr(compare, "solve_linear", unit_at_last_row)
    with pytest.raises(IdentityViolated, match="not d- and eps-closed"):
        strictify_closed_two_form(b, tower, window)
    monkeypatch.setattr(compare, "solve_linear", zero_solution)
    with pytest.raises(IdentityViolated, match="in the window"):
        strictify_closed_two_form(b, tower, window)


def _record_monomial_images(monkeypatch, alg):
    """Record (map, monomial) for every image of one monomial of alg: each
    closure `_image` call (one given `inside`) on alg's d or eps term
    table, and each d/eps call on one monomial."""
    seen = []
    tables = {name: freecdga._term_table(alg, values, 1) for name, values in (("d", alg.differential), ("eps", alg.mixed))}
    assert tables["d"] != tables["eps"]
    image = freecdga._image

    def counted_image(table, mono, inside=None, *args, **kwargs):
        if inside is not None:
            seen.extend((name, mono) for name, t in tables.items() if t == table)
        return image(table, mono, inside, *args, **kwargs)

    monkeypatch.setattr(freecdga, "_image", counted_image)
    for name in ("d", "eps"):

        def counted(x, op=getattr(alg, name), name=name):
            if len(x.terms) == 1:
                seen.append((name, next(iter(x.terms))))
            return op(x)

        monkeypatch.setattr(alg, name, counted)
    return seen


def test_phi_pi_and_strictify_image_each_monomial_once(monkeypatch):
    recorded = []

    def recording_de_rham(base):
        dr = de_rham(base)
        recorded.append(_record_monomial_images(monkeypatch, dr.algebra))
        return dr

    monkeypatch.setattr(compare, "de_rham", recording_de_rham)
    b, _, pi = cotangent_pair(1)
    phi_pi(b, pi, 1, Window(0, 2, -8, 8, 3))
    monkeypatch.undo()  # record the next run alone
    b = minimal_sym_l(1)
    dr = de_rham(b)
    recorded.append(_record_monomial_images(monkeypatch, dr.algebra))
    tower = ClosedFormTower(dr, 2, 1, {2: dr.algebra.gen("dx") * dr.algebra.gen("dxi")})
    strictify_closed_two_form(b, tower, Window(1, 4, 1, 5, 4))
    for seen in recorded:
        assert seen and len(seen) == len(set(seen))


def test_reconstruct_two_tensor_from_an_integer_matrix_is_exact():
    # the second partials of x^2 are 2, so the coefficient 3 of the
    # (x, x) slot needs 3 / 2: a Fraction division of ints
    alg = FreeCDGA([("x", 0), ("y", 0), ("t", 1), ("u", 1)])
    symbols = ("x", "y", "t", "u")
    mat = SparseMatrix(4, 4, {(0, 0): 3, (0, 1): 5, (1, 0): 5, (2, 3): 1, (3, 2): -1})
    out = compare._reconstruct_two_tensor(alg, symbols, mat)
    assert out.terms[alg.index["x"], alg.index["x"]] == F(3, 2)
    assert all(type(c) in (int, F) for c in out.terms.values())
    assert polyvec.pairing_matrix(alg, symbols, out) == mat


def test_reconstruct_two_tensor_calibrates_each_nonzero_slot_once(monkeypatch):
    alg = FreeCDGA([("x", 0), ("y", 0), ("t", 1), ("u", 1)])
    symbols = ("x", "y", "t", "u")
    # the first vanishing slot in (i, j) order is the witness, whichever
    # side of the diagonal holds the entry
    for ent, witness in (({(3, 3): 1, (2, 2): 1}, r"t\*t"), ({(3, 3): 1, (3, 2): 1}, r"u\*u")):
        with pytest.raises(Degenerate, match=f"vanishing slot {witness}$"):
            compare._reconstruct_two_tensor(alg, symbols, SparseMatrix(4, 4, ent))
    with pytest.raises(Degenerate, match="not graded-symmetric"):
        compare._reconstruct_two_tensor(alg, symbols, SparseMatrix(4, 4, {(1, 0): 1}))
    # two partials per folded nonzero slot, then a check of m first partials
    # and m second partials for each first partial that is not zero
    calls = []
    partial = FreeCDGA.partial

    def counted(self, name, elem):
        calls.append(name)
        return partial(self, name, elem)

    monkeypatch.setattr(FreeCDGA, "partial", counted)
    mat = SparseMatrix(4, 4, {(0, 0): 3, (0, 1): 5, (1, 0): 5, (2, 3): 1, (3, 2): -1})
    compare._reconstruct_two_tensor(alg, symbols, mat)
    assert len(calls) == 2 * 3 + 4 + 4 * 4
    # rows y, t, u are zero: only x's first partial is differentiated again
    calls.clear()
    compare._reconstruct_two_tensor(alg, symbols, SparseMatrix(4, 4, {(0, 0): 3}))
    assert len(calls) == 2 * 1 + 4 + 1 * 4


def test_poisson_to_form_reads_the_pairing_of_omega_once(monkeypatch):
    # _reconstruct_two_tensor checks omega's pairing matrix against theta,
    # and the form keeps that theta
    path = os.path.join(os.path.dirname(__file__), "..", "examples_dsl", "cotangent.spw")
    with open(path, encoding="utf-8") as fh:
        block = next(b for b in dsl.parse(fh.read()).blocks if b.kind == "poisson")
    tower = dsl.build_poisson(block)
    pairing = compare.pairing_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return pairing(*args)

    monkeypatch.setattr(compare, "pairing_matrix", counted)
    form = poisson_to_form(tower.pol.base, tower.component(0), tower.n)
    assert len(calls) == 1
    dr = form.de_rham
    assert form.theta == pairing(dr.algebra, dr.symbols, form.omega)
    built = SymplecticForm.build(dr, form.n, form.omega, pairing(dr.algebra, dr.symbols, form.omega))
    assert (built.omega, built.theta) == (form.omega, form.theta)
    assert symplectic_to_poisson(form) == tower.component(0)
