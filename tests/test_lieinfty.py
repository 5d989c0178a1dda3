import random
from fractions import Fraction as F
from math import comb

import pytest

from helpers import oracle_weak_mixed_blocks
from spw.errors import BidegreeMismatch, NotFreeOnV, NotInvariant
from spw.freecdga import Elem, Window, enumerate_monomials
from spw.gradedmixed import realization, validate_mixed
from spw.lieinfty import (
    InvariantTensor,
    LieAlgebra,
    ce,
    ce_complex,
    invariants,
    is_invariant,
    killing_form,
    lie_from_mixed,
    linfty_structure,
    linfty_to_weak_mixed,
    linfty_validate,
    semi_strict_check,
    validate_lie,
    weak_mixed_from_derivations,
    weak_mixed_validate,
    z_from_t,
)


def random_lie4(rng):
    """Random Jacobi-valid 4-dim Lie algebras: semidirect-sum style picks."""
    kind = rng.choice(["abelian", "nilpotent", "solvable", "sl2_sum"])
    if kind == "abelian":
        return LieAlgebra.abelian(4)
    if kind == "nilpotent":
        # Heisenberg + line: [e1, e2] = c e3
        return LieAlgebra.from_brackets(4, {(0, 1): {2: F(rng.randint(1, 3))}})
    if kind == "solvable":
        # [e1, e2] = a e2, [e1, e3] = b e3
        return LieAlgebra.from_brackets(
            4, {(0, 1): {1: F(rng.randint(1, 2))}, (0, 2): {2: F(rng.randint(1, 3))}}
        )
    # sl2 + line
    return LieAlgebra.from_brackets(
        4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    )


def test_validate_abelian_and_sl2():
    assert validate_lie(LieAlgebra.abelian(3)).valid
    assert validate_lie(LieAlgebra.sl2()).valid


def test_validate_catches_perturbed_sl2():
    g = LieAlgebra.sl2()
    c = [[[v for v in row] for row in plane] for plane in g.c]
    c[0][1][0] += 1  # [h, e] gets a spurious h component
    c[1][0][0] -= 1
    bad = LieAlgebra(c)
    rep = validate_lie(bad)
    assert not rep.valid
    assert any(v[0] == "jacobi" for v in rep.violations)


def test_ce_of_abelian_has_zero_eps():
    alg = ce(LieAlgebra.abelian(3))
    assert not alg.mixed


def test_ce_sl2_is_valid_mixed_and_dual_of_bracket():
    g = LieAlgebra.sl2()
    alg = ce(g)
    cx = ce_complex(g)
    assert validate_mixed(cx).valid
    # eps(xi^1) reads off the brackets hitting e_1 = h: only [e,f] = h
    eps1 = alg.eps(alg.gen("xi1"))
    assert eps1 == (alg.gen("xi2") * alg.gen("xi3")).scale(-1)


def test_ce_invalid_iff_lie_invalid():
    g = LieAlgebra.sl2()
    c = [[[v for v in row] for row in plane] for plane in g.c]
    c[0][1][1] += 1
    c[1][0][1] -= 1
    bad = LieAlgebra(c)
    assert not validate_lie(bad).valid
    assert not validate_mixed(ce_complex(bad)).valid
    assert validate_mixed(ce_complex(g)).valid


def test_h3_of_sl2_realization():
    cx = realization(ce_complex(LieAlgebra.sl2()), 3)
    dims = cx.homology_dims(range(0, 4))
    assert dims[3] == 1
    assert dims[0] == 1
    assert dims[1] == 0 and dims[2] == 0


def test_lie_from_mixed_round_trip():
    for g in (LieAlgebra.abelian(3), LieAlgebra.sl2(), LieAlgebra.nonabelian2()):
        back = lie_from_mixed(ce(g))
        assert back.c == g.c


def test_lie_from_mixed_of_trivial_eps_is_abelian():
    alg = ce(LieAlgebra.abelian(4))
    assert lie_from_mixed(alg).c == LieAlgebra.abelian(4).c


def test_round_trip_mixed_side_on_random_4dim():
    rng = random.Random(61)
    for _ in range(10):
        g = random_lie4(rng)
        assert validate_lie(g).valid
        alg = ce(g)
        back = lie_from_mixed(alg)
        assert back.c == g.c
        again = ce(back)
        assert {k: v.terms for k, v in again.mixed.items()} == {
            k: v.terms for k, v in alg.mixed.items()
        }


def test_lie_from_mixed_rejects_wrong_shape():
    from spw.freecdga import FreeCDGA

    with pytest.raises(NotFreeOnV):
        lie_from_mixed(FreeCDGA([("x", 0)]))


def test_weak_mixed_strict_case():
    g = LieAlgebra.sl2()
    s = linfty_structure(
        [(f"xi{i}", 1) for i in (1, 2, 3)],
        brackets={2: _ce_bracket_terms(g)},
    )
    w = linfty_to_weak_mixed(s, Window(0, 3, 0, 4, 3))
    rep = weak_mixed_validate(w)
    assert rep.valid


def _ce_bracket_terms(g):
    out = {}
    for k in range(g.dim):
        terms = {}
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                if g.c[i][j][k]:
                    terms[(f"xi{i+1}", f"xi{j+1}")] = -g.c[i][j][k]
        if terms:
            out[f"xi{k+1}"] = terms
    return out


def test_weak_mixed_detects_jacobi_failure():
    g = LieAlgebra.sl2()
    c = [[[v for v in row] for row in plane] for plane in g.c]
    c[0][1][0] += 1
    c[1][0][0] -= 1
    bad = LieAlgebra(c)
    s = linfty_structure(
        [(f"xi{i}", 1) for i in (1, 2, 3)], brackets={2: _ce_bracket_terms(bad)}
    )
    assert not linfty_validate(s, Window(0, 3, 0, 4, 3)).valid


def test_weak_mixed_correction_via_ternary_bracket():
    # u (deg 0) -> v (deg 1) contractible plus z (deg 1); the binary bracket
    # u -> uz, v -> -vz, z -> vz is a chain map but eps_0^2(u) = uvz != 0;
    # the ternary correction is solved for exactly from the i = 0 equation.
    gens = [("u", 0), ("v", 1), ("z", 1)]
    diff = {"u": {"v": 1}}
    b2 = {
        "u": {("u", "z"): F(1)},
        "v": {("v", "z"): F(-1)},
        "z": {("v", "z"): F(1)},
    }
    window = Window(0, 4, 0, 8, 4)
    s2 = linfty_structure(gens, diff, {2: b2})
    assert not weak_mixed_validate(linfty_to_weak_mixed(s2, window)).valid

    from spw.exactlin import SparseMatrix, solve_linear
    from spw.freecdga import Elem, enumerate_monomials

    alg = s2.sym
    # candidates: b3(v) in Sym^3, degree deg(v)+1 = 2
    candidates = [
        m
        for m in enumerate_monomials(alg, 3)
        if len(m) == 3 and sum(alg.gen_degree(i) for i in m) == 2
    ]
    assert candidates

    def i0_defect(b3_v):
        s = linfty_structure(gens, diff, {2: b2})
        if b3_v is not None:
            s.brackets[3] = {"v": b3_v}
        w = linfty_to_weak_mixed(s, window)
        out = []
        for (p, mm) in sorted(w.module.support()):
            tgt = (p + 2, mm + 2)
            rows, cols = w.module.dim(*tgt), w.module.dim(p, mm)
            if rows == 0 or cols == 0:
                continue
            acc = w.d_block(p + 2, mm + 1) @ w.eps_block(1, p, mm)
            acc = acc + w.eps_block(1, p, mm + 1) @ w.d_block(p, mm)
            acc = acc + w.eps_block(0, p + 1, mm + 1) @ w.eps_block(0, p, mm)
            for r in range(rows):
                for cc in range(cols):
                    out.append(acc.entry(r, cc))
        return out

    zero_vec = i0_defect(None)
    cols = [
        [a - b for a, b in zip(i0_defect(Elem(alg, {m: F(1)})), zero_vec)]
        for m in candidates
    ]
    mat = SparseMatrix.from_columns(cols, rows=len(zero_vec))
    x, kernel = solve_linear(mat, [-v for v in zero_vec])
    # scan the affine solution space for a correction passing everything
    trials = [x] + [
        tuple(a + s * b for a, b in zip(x, k)) for k in kernel for s in (1, -1)
    ]
    found = None
    for sol in trials:
        b3_v = Elem(alg, {m: c for m, c in zip(candidates, sol) if c})
        s3 = linfty_structure(gens, diff, {2: b2})
        s3.brackets[3] = {"v": b3_v}
        if weak_mixed_validate(linfty_to_weak_mixed(s3, window)).valid:
            found = b3_v
            break
    assert found is not None and not found.is_zero()


def test_all_zero_brackets_valid():
    s = linfty_structure([("a", 1), ("b", 2)], brackets={})
    assert linfty_validate(s).valid


def test_weak_mixed_bounded_check_is_inconclusive_beyond_bound():
    # with eps_0 and eps_1 both present the equations can be nonzero up to
    # i = 2; checking only up to bound 0 must flag the remainder
    g = LieAlgebra.sl2()
    s = linfty_structure(
        [(f"xi{i}", 1) for i in (1, 2, 3)],
        brackets={2: _ce_bracket_terms(g), 3: {}},
    )
    w = linfty_to_weak_mixed(s, Window(0, 3, 0, 4, 3))
    w.eps_list.append({})  # declare an eps_1 slot (zero maps) with index 1
    rep = weak_mixed_validate(w, bound=0)
    assert rep.valid_within_bound
    assert rep.inconclusive_beyond_bound
    full = weak_mixed_validate(w)
    assert full.valid and not full.inconclusive_beyond_bound


def test_invariants_abelian_dimensions():
    for n in range(1, 6):
        g = LieAlgebra.abelian(n)
        assert len(invariants(g, "sym2")) == n * (n + 1) // 2
        assert len(invariants(g, "wedge3")) == comb(n, 3)


def test_invariants_sl2_lines():
    g = LieAlgebra.sl2()
    sym = invariants(g, "sym2")
    assert len(sym) == 1
    wed = invariants(g, "wedge3")
    assert len(wed) == 1
    assert is_invariant(g, sym[0]) and is_invariant(g, wed[0])


def test_killing_form_is_invariant():
    g = LieAlgebra.sl2()
    t = killing_form(g)
    assert is_invariant(g, t)


def test_z_from_t_spans_invariant_line():
    g = LieAlgebra.sl2()
    t = killing_form(g)
    z = z_from_t(g, t)
    assert z.coeffs  # nonzero
    (line,) = invariants(g, "wedge3")
    # proportional to the invariant line
    keys = set(z.coeffs) | set(line.coeffs)
    ratios = {z.coeffs.get(k, F(0)) / line.coeffs[k] for k in keys}
    assert len(ratios) == 1


def test_z_from_t_trivial_cases():
    g = LieAlgebra.abelian(4)
    t = invariants(g, "sym2")[0]
    z = z_from_t(g, t)
    assert not z.coeffs
    zero_t = InvariantTensor("sym2", {})
    assert not z_from_t(LieAlgebra.sl2(), zero_t).coeffs


def test_z_from_t_rejects_noninvariant():
    g = LieAlgebra.sl2()
    bad = InvariantTensor("sym2", {(0, 1): F(1)})
    assert not is_invariant(g, bad)
    with pytest.raises(NotInvariant):
        z_from_t(g, bad)


def test_semi_strict_zero_and_killing():
    g = LieAlgebra.sl2()
    assert semi_strict_check(g, InvariantTensor("wedge3", {})).valid
    z = z_from_t(g, killing_form(g))
    rep = semi_strict_check(g, z)
    assert rep.valid and rep.invariant and rep.closed and rep.mc.valid


def test_semi_strict_rejects_noninvariant_z():
    # on sl2 the top wedge IS the invariant line, so perturb sl2 + line
    g4 = LieAlgebra.from_brackets(4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    bad4 = InvariantTensor("wedge3", {(0, 1, 3): F(1)})
    if is_invariant(g4, bad4):
        bad4 = InvariantTensor("wedge3", {(0, 2, 3): F(1)})
    rep = semi_strict_check(g4, bad4)
    assert not rep.valid


def random_linfty(rng):
    """Linear d and brackets b_2, b_3 of degree +1 on 2-3 generators."""
    gens = [(f"v{i+1}", rng.randint(-1, 2)) for i in range(rng.randint(2, 3))]
    diff = {}
    for name, deg in gens:
        targets = [t for t, dt in gens if dt == deg + 1]
        if targets and rng.random() < 0.5:
            diff[name] = {rng.choice(targets): F(rng.choice([-1, 1, 2]))}
    s = linfty_structure(gens, diff)
    alg = s.sym
    for k in (2, 3):
        s.brackets[k] = {}
        for g in alg.generators:
            monos = [
                m
                for m in enumerate_monomials(alg, k)
                if len(m) == k and sum(alg.gen_degree(i) for i in m) == g.degree + 1
            ]
            if monos and rng.random() < 0.8:
                picked = rng.sample(monos, min(2, len(monos)))
                s.brackets[k][g.name] = Elem(alg, {m: F(rng.choice([-2, -1, 1, 2])) for m in picked})
    return s


def test_weak_mixed_blocks_match_per_label_oracle():
    rng = random.Random(59)
    for _ in range(15):
        s = random_linfty(rng)
        eps_values = [s.brackets[2], s.brackets[3]]
        for window in (Window(0, 3, -4, 6, 3), Window(1, 4, -2, 4, 4)):
            w = weak_mixed_from_derivations(s.sym, eps_values, window)
            cx, eps_list = oracle_weak_mixed_blocks(s.sym, eps_values, window)
            assert w.module.basis == cx.module.basis
            assert w.d == cx.d
            assert w.eps_list == eps_list


def test_weak_mixed_refuses_a_bracket_of_the_wrong_bidegree():
    # b_2(a) = a stays in weight 1, while eps_0 must raise the weight by one
    s = linfty_structure([("a", 1), ("b", 2)])
    s.brackets[2] = {"a": s.sym.gen("a")}
    with pytest.raises(BidegreeMismatch, match="image of a has the term a"):
        linfty_to_weak_mixed(s, Window(0, 3, 0, 4, 3))
