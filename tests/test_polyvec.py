import random
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from helpers import basis_dims, enumerate_monomials, oracle_bracket, random_valid_cdga
from spw import freecdga
from spw.errors import BidegreeError, Degenerate
from spw.exactlin import SparseMatrix, solve_linear
from spw.freecdga import Elem, FreeCDGA
from spw.polyvec import (
    MaurerCartanTower,
    PolyvectorAlgebra,
    check_strict_poisson,
    mc_check,
    nondegeneracy,
    require_nondegenerate,
    strict_tower,
)


def line():
    return FreeCDGA([("x", 0)])


def plane():
    return FreeCDGA([("x", 0), ("y", 0)])


def random_polyvector(rng, pol, max_len=3, terms=3):
    monos = list(enumerate_monomials(pol.algebra, max_len))
    picked = rng.sample(monos, k=min(len(monos), terms))
    return Elem(
        pol.algebra,
        {m: F(rng.choice([-2, -1, 1, 2])) for m in picked if m},
    )


def test_pairing_derivation_on_line():
    pol = PolyvectorAlgebra(line(), 1)
    x = pol.include(line().gen("x"))
    th = pol.theta("x")
    assert pol.bracket(th, x) == pol.algebra.one()
    # [theta, x^3] = 3 x^2
    assert pol.bracket(th, x * x * x) == (x * x).scale(3)


def test_bracket_weights_drop_by_one(monkeypatch):
    # inhomogeneous p and q: the derivation bracket equals the recursive
    # oracle, and the weights drop by one
    rng = random.Random(2)
    seen = set()
    for _ in range(200):
        b = random_valid_cdga(rng, max_gens=3)
        pol = PolyvectorAlgebra(b, rng.randint(-1, 3))
        p = random_polyvector(rng, pol)
        q = random_polyvector(rng, pol)
        br = pol.bracket(p, q)
        assert br == oracle_bracket(pol, p, q)
        seen |= {("odd letter", pol.algebra.parities[i]) for m in q.terms for i in m}
        seen |= {("p parity", (p.mono_degree(m) + pol.shift) % 2) for m in p.terms}
        for m in br.terms:
            w = sum(pol.algebra.gen_weight(i) for i in m)
            ws = sorted(
                {
                    sum(pol.algebra.gen_weight(i) for i in m1)
                    + sum(pol.algebra.gen_weight(i) for i in m2)
                    for m1 in p.terms
                    for m2 in q.terms
                }
            )
            assert w + 1 in ws
    assert seen == {("odd letter", 0), ("odd letter", 1), ("p parity", 0), ("p parity", 1)}
    # partial derivatives read term tables built once per algebra
    alg = pol.algebra
    alg.partial(alg.generators[0].name, p)
    calls = []
    real = freecdga._term_table
    monkeypatch.setattr(freecdga, "_term_table", lambda *a: calls.append(a) or real(*a))
    for g in alg.generators:
        alg.partial(g.name, p + q)
    assert not calls


def homogeneous_polyvector(rng, pol, weight, degree, max_len=4, terms=3):
    basis = pol.basis(weight, degree, max_len)
    if not basis:
        return pol.algebra.zero()
    picked = rng.sample(basis, k=min(len(basis), terms))
    return Elem(pol.algebra, {m: F(rng.choice([-2, -1, 1, 2, 3])) for m in picked})


def shifted_sign(pol, p, q):
    return -1 if ((p.degree() + pol.shift) * (q.degree() + pol.shift)) % 2 else 1


def test_graded_antisymmetry_exact():
    rng = random.Random(5)
    for _ in range(25):
        b = random_valid_cdga(rng, max_gens=3)
        n = rng.randint(-1, 2)
        pol = PolyvectorAlgebra(b, n)
        p = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-3, 3))
        q = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-3, 3))
        if p.is_zero() or q.is_zero():
            continue
        lhs = pol.bracket(p, q)
        rhs = pol.bracket(q, p).scale(shifted_sign(pol, p, q))
        assert lhs == -rhs or (lhs.is_zero() and rhs.is_zero())


def test_biderivation_leibniz_both_slots():
    rng = random.Random(7)
    for _ in range(50):
        b = random_valid_cdga(rng, max_gens=3)
        n = rng.randint(-1, 2)
        pol = PolyvectorAlgebra(b, n)
        p = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        q = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        r = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        if p.is_zero() or q.is_zero() or r.is_zero():
            continue
        lhs = pol.bracket(p, q * r)
        sign = -1 if ((p.degree() + pol.shift) * q.degree()) % 2 else 1
        rhs = pol.bracket(p, q) * r + (q * pol.bracket(p, r)).scale(sign)
        assert lhs == rhs


def test_graded_jacobi_exact():
    rng = random.Random(11)
    for _ in range(30):
        b = random_valid_cdga(rng, max_gens=2)
        n = rng.randint(-1, 2)
        pol = PolyvectorAlgebra(b, n)
        p = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        q = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        r = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        if p.is_zero() or q.is_zero() or r.is_zero():
            continue
        sign = shifted_sign(pol, p, q)
        lhs = pol.bracket(p, pol.bracket(q, r))
        rhs = pol.bracket(pol.bracket(p, q), r) + pol.bracket(q, pol.bracket(p, r)).scale(sign)
        assert lhs == rhs


def test_differential_is_bracket_derivation_and_squares_to_zero():
    rng = random.Random(13)
    for _ in range(30):
        b = random_valid_cdga(rng, max_gens=3)
        n = rng.randint(-1, 2)
        pol = PolyvectorAlgebra(b, n)
        p = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        q = homogeneous_polyvector(rng, pol, rng.randint(0, 2), rng.randint(-2, 2), terms=2)
        assert pol.d(pol.d(p)).is_zero()
        if p.is_zero() or q.is_zero():
            continue
        # d[p,q] = [dp,q] + (-1)^{|p| + shift} [p,dq]
        sign = -1 if (p.degree() + pol.shift) % 2 else 1
        lhs = pol.d(pol.bracket(p, q))
        rhs = pol.bracket(pol.d(p), q) + pol.bracket(p, pol.d(q)).scale(sign)
        assert lhs == rhs


def test_bracket_against_partial_derivative_oracle():
    # [theta_i, f] for f in B must equal the left partial derivative:
    # an independent code path through apply_derivation
    rng = random.Random(17)
    for _ in range(20):
        b = random_valid_cdga(rng, max_gens=3)
        pol = PolyvectorAlgebra(b, rng.randint(0, 2))
        monos = list(enumerate_monomials(b, 3))
        f = pol.include(
            Elem(b, {m: F(rng.choice([-2, 1, 3])) for m in rng.sample(monos, k=min(3, len(monos)))})
        )
        for g in b.generators:
            via_bracket = pol.bracket(pol.theta(g.name), f)
            via_partial = pol.algebra.partial(g.name, f)
            assert via_bracket == via_partial


# -- multiderivation enumeration oracle -------------------------------------


def count_biderivations(base, symmetric, coeff_deg_cap):
    """Brute-force dimension of (anti)symmetric constant-free biderivation
    slots: pairs of generators weighted by coefficient monomials."""
    gens = list(range(len(base.generators)))
    coeff_count = sum(1 for m in enumerate_monomials(base, coeff_deg_cap))
    if symmetric:
        pair_count = len(list(combinations_with_replacement(gens, 2)))
    else:
        pair_count = len(gens) * (len(gens) - 1) // 2
    return coeff_count * pair_count


def test_weight_two_slot_matches_multiderivation_enumeration():
    b = plane()
    # n = 1: duals are odd (degree 1): exterior slots, one per pair i<j
    dims1 = basis_dims(PolyvectorAlgebra(b, 1), max_weight=2, max_len=4)
    got = sum(v for (w, d), v in dims1.items() if w == 2)
    assert got == count_biderivations(b, symmetric=False, coeff_deg_cap=2)
    # n = 0: duals are even: symmetric slots, one per pair i<=j
    dims0 = basis_dims(PolyvectorAlgebra(b, 0), max_weight=2, max_len=4)
    got0 = sum(v for (w, d), v in dims0.items() if w == 2)
    assert got0 == count_biderivations(b, symmetric=True, coeff_deg_cap=2)


def test_polyvectors_of_point():
    pt = FreeCDGA([])
    dims = basis_dims(PolyvectorAlgebra(pt, 2), max_weight=3, max_len=3)
    assert dims == {(0, 0): 1}


def test_polyvectors_line_weight_bases():
    b = line()
    dims = basis_dims(PolyvectorAlgebra(b, 0), max_weight=2, max_len=3)
    # weight 0: 1, x, x^2, x^3; weight 1: f * @x with @x degree 0
    assert dims[0, 0] == 4
    assert dims[1, 0] == 3
    assert (2, 0) in dims


# -- strict Poisson ----------------------------------------------------------


def test_zero_is_strict_poisson():
    b = plane()
    pol = PolyvectorAlgebra(b, 1)
    rep = check_strict_poisson(pol, pol.algebra.zero())
    assert rep.valid
    assert all(v.is_zero() for v in rep.bracket_table.values())


def test_classical_bivector_is_poisson_with_unit_bracket():
    b = plane()
    pol = PolyvectorAlgebra(b, 1)
    pi = pol.theta("x") * pol.theta("y")
    rep = check_strict_poisson(pol, pi)
    assert rep.valid
    assert rep.bracket_table["x", "y"] == pol.algebra.one()
    assert rep.bracket_table["x", "x"].is_zero()


def test_linear_poisson_structure_of_nonabelian_lie_algebra():
    b = plane()
    pol = PolyvectorAlgebra(b, 1)
    pi = pol.include(b.gen("x")) * pol.theta("x") * pol.theta("y")
    assert pol.bracket(pi, pi).is_zero()
    rep = check_strict_poisson(pol, pi)
    assert rep.valid


def classical_jacobiator(b, pol, pi, f, g, h):
    def br(u, v):
        return pol.bracket(pol.bracket(pi, u), v)

    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


def test_jacobi_failure_detected_and_matches_jacobiator_oracle():
    b = FreeCDGA([("x", 0), ("y", 0), ("z", 0)])
    pol = PolyvectorAlgebra(b, 1)
    x, y, z = (pol.include(b.gen(n)) for n in "xyz")
    tx, ty, tz = (pol.theta(n) for n in "xyz")
    pi = x * tx * ty + y * ty * tz + (x * x) * tz * tx
    self_br = pol.bracket(pi, pi)
    jac = classical_jacobiator(b, pol, pi, x, y, z)
    assert self_br.is_zero() == jac.is_zero()
    assert not self_br.is_zero()
    rep = check_strict_poisson(pol, pi)
    assert not rep.valid
    # and a genuinely Poisson pi passes both
    pi2 = x * tx * ty
    assert pol.bracket(pi2, pi2).is_zero()
    assert classical_jacobiator(b, pol, pi2, x, y, z).is_zero()


def test_random_bivectors_jacobiator_equivalence():
    rng = random.Random(19)
    b = FreeCDGA([("x", 0), ("y", 0), ("z", 0)])
    pol = PolyvectorAlgebra(b, 1)
    gens = [pol.include(b.gen(n)) for n in "xyz"]
    thetas = [pol.theta(n) for n in "xyz"]
    for _ in range(10):
        pi = pol.algebra.zero()
        for i in range(3):
            for j in range(i + 1, 3):
                coeff = rng.choice(
                    [pol.algebra.one().scale(rng.randint(-2, 2)), gens[rng.randrange(3)]]
                )
                pi = pi + coeff * thetas[i] * thetas[j]
        if pi.is_zero():
            continue
        jac_zero = all(
            classical_jacobiator(b, pol, pi, gens[i], gens[j], gens[k]).is_zero()
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )
        assert pol.bracket(pi, pi).is_zero() == jac_zero


def test_bidegree_error_for_wrong_pi():
    b = plane()
    pol = PolyvectorAlgebra(b, 1)
    with pytest.raises(BidegreeError):
        check_strict_poisson(pol, pol.theta("x"))


def test_strict_poisson_bijection_with_bracket_tables():
    # one direction: a valid pi induces a table satisfying Leibniz and
    # Jacobi exactly; other direction: a Jacobi-violating table cannot
    # come from a valid pi (its bivector fails [pi, pi] = 0)
    from spw.polyvec import induced_bracket

    b = FreeCDGA([("x", 0), ("y", 0), ("z", 0)])
    pol = PolyvectorAlgebra(b, 1)
    x, y, z = (pol.include(b.gen(c)) for c in "xyz")
    pi = x * pol.theta("x") * pol.theta("y") + pol.theta("y") * pol.theta("z")
    rep = check_strict_poisson(pol, pi)
    assert rep.valid

    def br(u, v):
        return induced_bracket(pol, pi, u, v)

    for f in (x, y, z):
        for g in (x, y, z):
            for h in (x, y, z):
                assert br(f, g * h) == br(f, g) * h + g * br(f, h)
                assert (
                    br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
                ).is_zero()
    # converse: the bivector of the non-Jacobi table {x,y}=z, {y,z}=x,
    # {z,x}=y*z has Jac(x,y,z) = {y, yz} != 0 and [pi, pi] detects it
    bad = z * pol.theta("x") * pol.theta("y") + x * pol.theta("y") * pol.theta("z") + (
        y * z
    ) * pol.theta("z") * pol.theta("x")
    assert not pol.bracket(bad, bad).is_zero()
    assert not check_strict_poisson(pol, bad).valid


# -- MC towers ----------------------------------------------------------------


def test_strict_tower_mc_collapses_to_strict_conditions():
    b = plane()
    pol = PolyvectorAlgebra(b, 1)
    pi = pol.theta("x") * pol.theta("y")
    tower = strict_tower(pol, 0, pi)
    assert mc_check(tower).valid


def test_mc_tower_with_solved_correction():
    # B = k[x, y, z] with u in degree -1 and d(u) = x, n = 0.  p_0 is
    # d-closed but [p_0, p_0] != 0, so the i = 0 equation fails without
    # p_1; [p_0, p_0] is d-exact, so solving d p_1 = -1/2 [p_0, p_0] in the
    # weight-3 slot repairs the tower.
    gens = [("x", 0), ("y", 0), ("z", 0), ("u", -1)]
    b = FreeCDGA(gens, differential={"u": FreeCDGA(gens).gen("x")})
    n = 0
    pol = PolyvectorAlgebra(b, n + 1)
    x, y, u = (pol.include(b.gen(name)) for name in ("x", "y", "u"))
    t = pol.theta
    p0 = x * y * t("y") * t("z") + x * t("x") * t("y") + u * t("y") * t("u")
    assert p0.degree() == n + 2 and pol.d(p0).is_zero()
    rep = mc_check(MaurerCartanTower(pol, n, [p0]))
    assert not rep.valid and rep.first_failure == 0
    rhs = pol.bracket(p0, p0).scale(F(-1, 2))
    basis = pol.basis(3, n + 2, max_len=5)
    targets = {}
    ent = []
    for j, m in enumerate(basis):
        img = pol.d(Elem(pol.algebra, {m: F(1)}))
        ent += [(targets.setdefault(mm, len(targets)), j, c) for mm, c in img.terms.items()]
    vec = SparseMatrix(len(targets), 1, [(targets[mm], 0, c) for mm, c in rhs.terms.items()])
    sol = solve_linear(SparseMatrix(len(targets), len(basis), ent), vec)
    p1 = Elem(pol.algebra, {basis[j]: c for (j, _), c in sol.items()})
    assert not p1.is_zero()
    assert mc_check(MaurerCartanTower(pol, n, [p0, p1])).valid


def test_mc_perturbation_fails_at_one():
    # n = 0 on generators x (0), s (2), t (3): both the weight-2 and the
    # weight-3 slot at degree n+2 = 2 are nonempty, and with d = 0 a pair
    # with [p_0, p_1] != 0 makes the first MC failure land exactly at i = 1.
    b = FreeCDGA([("x", 0), ("s", 2), ("t", 3)])
    pol = PolyvectorAlgebra(b, 1)
    p0_candidates = [
        Elem(pol.algebra, {m: F(1)}) for m in pol.basis(2, 2, max_len=4)
    ]
    p1_candidates = [
        Elem(pol.algebra, {m: F(1)}) for m in pol.basis(3, 2, max_len=6)
    ]
    assert p0_candidates and p1_candidates
    found = False
    for p0 in p0_candidates:
        if not pol.bracket(p0, p0).is_zero() or not pol.d(p0).is_zero():
            continue
        for p1 in p1_candidates:
            if pol.bracket(p0, p1).is_zero():
                continue
            tower = MaurerCartanTower(pol, 0, [p0, p1])
            rep = mc_check(tower)
            assert not rep.valid
            assert rep.first_failure == 1
            assert not rep.residual.is_zero()
            found = True
            break
        if found:
            break
    assert found, "no perturbable pair in the slot"


# -- non-degeneracy ------------------------------------------------------------


def test_cotangent_pairing_nondegenerate():
    for n in (0, 1, 2):
        b = FreeCDGA([("x", 0), ("xi", n)])
        pol = PolyvectorAlgebra(b, n + 1)
        pi = pol.theta("x") * pol.theta("xi")
        rep = nondegeneracy(pol, pi)
        assert rep.nondegenerate
        assert rep.theta.rank() == 2


def test_vanishing_leading_term_is_degenerate():
    b = FreeCDGA([("x", 0), ("xi", 1)])
    pol = PolyvectorAlgebra(b, 2)
    pi = pol.include(b.gen("x")) * pol.theta("x") * pol.theta("xi")
    rep = nondegeneracy(pol, pi)
    assert not rep.nondegenerate
    with pytest.raises(Degenerate):
        require_nondegenerate(pol, pi)
