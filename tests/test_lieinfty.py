import os
import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from helpers import (
    oracle_ad_on_sym2,
    oracle_invariants,
    oracle_is_invariant,
    oracle_sparse_ad_on_sym2,
    oracle_z_from_t,
    random_coefficient,
)
from spw import dsl
from spw.errors import Degenerate, NotFreeOnV, NotInvariant
from spw.gradedmixed import validate_mixed, weight_window_total_complex
from spw.lieinfty import (
    InvariantTensor,
    LieAlgebra,
    ce,
    ce_complex,
    invariants,
    is_invariant,
    killing_form,
    lie_from_mixed,
    semi_strict_check,
    validate_lie,
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
    cx = weight_window_total_complex(ce_complex(LieAlgebra.sl2()), 0, 3)
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


def test_lie_from_mixed_leaves_jacobi_to_validate_lie():
    from spw.freecdga import FreeCDGA, Generator

    gens = [Generator(f"xi{i}", 1, 1) for i in (1, 2, 3)]
    b = FreeCDGA(gens)
    eps = {"xi1": (b.gen("xi2") * b.gen("xi3")).scale(-1), "xi2": (b.gen("xi1") * b.gen("xi2")).scale(-1)}
    g = lie_from_mixed(FreeCDGA(gens, mixed=eps))
    assert g.c[0][1] == (0, 1, 0) and g.c[1][2] == (1, 0, 0)
    violations = validate_lie(g).violations
    assert violations and {kind for kind, _ in violations} == {"jacobi"}


def test_killing_form_of_a_lie_algebra_that_is_not_semisimple_is_degenerate():
    for g in (LieAlgebra.nonabelian2(), LieAlgebra.abelian(2)):
        with pytest.raises(Degenerate, match="Killing form is degenerate"):
            killing_form(g)


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


SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}


def sl2_example():
    with open(os.path.join(os.path.dirname(__file__), "..", "examples_dsl", "sl2.spw"), encoding="utf-8") as fh:
        return dsl.build_lie(dsl.parse(fh.read()).blocks[0])


@pytest.mark.parametrize(
    "build",
    [
        sl2_example,
        lambda: LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
        lambda: LieAlgebra.from_brackets(6, {**SL2, **{(i + 3, j + 3): {k + 3: v for k, v in comps.items()}
                                                       for (i, j), comps in SL2.items()}}),
    ],
    ids=("sl2", "so3", "sl2+sl2"),
)
def test_z_from_t_equals_the_dense_contraction(build):
    g = build()
    t = killing_form(g)
    z = z_from_t(g, t)
    assert z.coeffs and z.coeffs == oracle_z_from_t(g, t)


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


def test_ad_on_sym2_matches_the_dense_oracle():
    # the moved sparse sym2 action against the dense one, and invariants /
    # is_invariant on _image against the kernel and verdicts of both moved
    # actions, on the same seeded algebras
    rng = random.Random(1506)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        brackets = {
            (i, j): {k: random_coefficient(rng) for k in range(n) if rng.random() < 0.3}
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
        }
        g = LieAlgebra.from_brackets(n, brackets)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        t = {p: random_coefficient(rng) for p in rng.sample(pairs, rng.randint(1, len(pairs)))}
        for x in range(n):
            assert oracle_sparse_ad_on_sym2(g, x, t) == oracle_ad_on_sym2(g, x, t)
        triples = list(combinations(range(n), 3))
        for kind, keys in (("sym2", pairs), ("wedge3", triples)):
            basis = invariants(g, kind)
            want = oracle_invariants(g, kind)
            assert [b.coeffs for b in basis] == [b.coeffs for b in want]
            assert all(type(v) in (int, F) for b in basis for v in b.coeffs.values())
            tensors = list(basis)
            for _ in range(4):
                if keys:
                    picked = rng.sample(keys, rng.randint(1, len(keys)))
                    tensors.append(InvariantTensor(kind, {k: random_coefficient(rng) for k in picked}))
            if basis:
                # an invariant tensor plus a small perturbation of one key
                k = keys[rng.randrange(len(keys))]
                coeffs = dict(basis[0].coeffs)
                coeffs[k] = coeffs.get(k, 0) + 1
                tensors.append(InvariantTensor(kind, coeffs))
            for tensor in tensors:
                verdict = is_invariant(g, tensor)
                assert verdict == oracle_is_invariant(g, tensor)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_sym2_invariants_of_a_dim12_algebra_are_fast():
    # nonabelian2 + an abelian k^10: the invariants are Sym^2 k^10
    g = LieAlgebra.from_brackets(12, {(0, 1): {0: 1}})
    start = time.perf_counter()
    basis = invariants(g, "sym2")
    assert time.perf_counter() - start < 1.0
    assert len(basis) == comb(11, 2)


def test_z_from_t_with_an_integer_tensor_is_exact():
    # the sl2 Casimir with int coefficients: the 1/6 projector is a
    # Fraction division, so Z equals the one of the Fraction tensor
    g = LieAlgebra.sl2()
    z = z_from_t(g, InvariantTensor("sym2", {(0, 0): 1, (1, 2): 2}))
    assert z.coeffs == z_from_t(g, InvariantTensor("sym2", {(0, 0): F(1), (1, 2): F(2)})).coeffs
    assert z.coeffs and all(type(v) in (int, F) for v in z.coeffs.values())
    assert semi_strict_check(g, z).valid
