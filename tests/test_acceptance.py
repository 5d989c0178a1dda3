"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every assertion is exact rational equality; runtime budgets
are asserted against a monotonic clock.
"""

import glob
import json
import os
import random
import time
from fractions import Fraction as F
from math import comb

from helpers import random_valid_cdga, random_valid_complex

class criterion:
    def __init__(self, number, budget_seconds, label):
        self.number = number
        self.budget = budget_seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_structural_identities():
    from spw.freecdga import Window, de_rham, graded_mixed_window
    from spw.gradedmixed import validate_mixed
    from spw.polyvec import PolyvectorAlgebra
    from spw.freecdga import Elem

    rng = random.Random(2026)
    with criterion(1, 10.0, "de Rham mixed identities + Schouten algebra, 20 random cdgas"):
        for trial in range(20):
            b = random_valid_cdga(rng, max_gens=4, degree_span=(-3, 3))
            dr = de_rham(b)
            cx, _ = graded_mixed_window(dr.algebra, Window(0, 5, -7, 7, 3))
            assert validate_mixed(cx).valid
            n = rng.randint(-1, 2)
            pol = PolyvectorAlgebra(b, n + 1)

            def rand_pv():
                basis = [
                    m
                    for w in (0, 1, 2)
                    for d in range(-3, 4)
                    for m in pol.basis(w, d, 3)
                ]
                picks = rng.sample(basis, k=min(2, len(basis)))
                e = pol.algebra.zero()
                for m in picks:
                    e = e + Elem(pol.algebra, {m: F(rng.choice([-2, -1, 1, 2]))})
                return e

            def homog(e):
                # split into homogeneous pieces for the sign-sensitive laws
                parts = {}
                for m, c in e.terms.items():
                    d = sum(pol.algebra.gen_degree(i) for i in m)
                    parts.setdefault(d, pol.algebra.zero())
                    parts[d] = parts[d] + Elem(pol.algebra, {m: c})
                return parts

            p, q, r = rand_pv(), rand_pv(), rand_pv()
            shift = pol.shift
            for dp, pp in homog(p).items():
                for dq, qq in homog(q).items():
                    # graded antisymmetry
                    sign = -1 if ((dp + shift) * (dq + shift)) % 2 else 1
                    assert pol.bracket(pp, qq) == pol.bracket(qq, pp).scale(-sign)
                    for dr_, rr in homog(r).items():
                        # biderivation Leibniz
                        lsign = -1 if ((dp + shift) * dq) % 2 else 1
                        assert pol.bracket(pp, qq * rr) == pol.bracket(pp, qq) * rr + (
                            qq * pol.bracket(pp, rr)
                        ).scale(lsign)
                        # graded Jacobi
                        jsign = -1 if ((dp + shift) * (dq + shift)) % 2 else 1
                        lhs = pol.bracket(pp, pol.bracket(qq, rr))
                        rhs = pol.bracket(pol.bracket(pp, qq), rr) + pol.bracket(
                            qq, pol.bracket(pp, rr)
                        ).scale(jsign)
                        assert lhs == rhs


def test_criterion_2_realization_oracle():
    from spw.gradedmixed import realization_oracle_dims, weight_window_total_complex

    rng = random.Random(4091)
    with criterion(2, 5.0, "realization homology equals the cell-model hom oracle"):
        for _ in range(10):
            e = random_valid_complex(rng, 0, 4, pieces=3)
            degrees = range(-4, 6)
            total = weight_window_total_complex(e, 0, 4)
            dims = {m: total.homology(m).dimension for m in degrees}
            oracle = realization_oracle_dims(e, 4, degrees)
            assert dims == oracle


def test_criterion_3_lie_mixed_round_trip():
    from spw.gradedmixed import validate_mixed
    from spw.lieinfty import LieAlgebra, ce, ce_complex, lie_from_mixed, validate_lie

    rng = random.Random(314)
    with criterion(3, 5.0, "CE <-> Lie bijection round trips, perturbation detected"):
        samples = [LieAlgebra.sl2(), LieAlgebra.nonabelian2(), LieAlgebra.abelian(4)]
        from test_lieinfty import random_lie4

        for _ in range(10):
            samples.append(random_lie4(rng))
        for g in samples:
            assert validate_lie(g).valid
            back = lie_from_mixed(ce(g))
            assert back.c == g.c
            again = ce(back)
            reference = ce(g)
            assert {k: v.terms for k, v in again.mixed.items()} == {
                k: v.terms for k, v in reference.mixed.items()
            }
        # perturbing one sl2 structure constant breaks the mixed identities
        g = LieAlgebra.sl2()
        c = [[[v for v in row] for row in plane] for plane in g.c]
        c[0][1][0] += 1
        c[1][0][0] -= 1
        bad = LieAlgebra(c)
        assert not validate_lie(bad).valid
        assert not validate_mixed(ce_complex(bad)).valid


def test_criterion_4_bg_dimension_claims():
    from spw.lieinfty import (
        LieAlgebra,
        invariants,
        is_invariant,
        killing_form,
        semi_strict_check,
        z_from_t,
    )

    with criterion(4, 2.0, "invariant dimensions for sl2 and abelian algebras, Z checks"):
        g = LieAlgebra.sl2()
        assert len(invariants(g, "sym2")) == 1
        assert len(invariants(g, "wedge3")) == 1
        for n in range(1, 6):
            a = LieAlgebra.abelian(n)
            assert len(invariants(a, "sym2")) == n * (n + 1) // 2
            assert len(invariants(a, "wedge3")) == comb(n, 3)
        z = z_from_t(g, killing_form(g))
        assert z.coeffs
        assert is_invariant(g, z)
        (line,) = invariants(g, "wedge3")
        ratios = {
            z.coeffs.get(k, F(0)) / line.coeffs[k]
            for k in set(z.coeffs) | set(line.coeffs)
        }
        assert len(ratios) == 1
        assert semi_strict_check(g, z).valid


def test_criterion_5_poisson_symplectic_round_trip():
    from spw.compare import phi_pi, poisson_to_form, symplectic_to_poisson
    from spw.freecdga import FreeCDGA, Window
    from spw.polyvec import PolyvectorAlgebra

    rng = random.Random(577)
    with criterion(5, 5.0, "dualization round trips exact, phi_pi iso + chain map"):
        for n in (0, 1, 2):
            b = FreeCDGA([("x", 0), ("xi", n)])
            pol = PolyvectorAlgebra(b, n + 1)
            pi = pol.theta("x") * pol.theta("xi")
            form = poisson_to_form(b, pi, n)
            assert symplectic_to_poisson(form) == pi
            res = phi_pi(b, pi, n, Window(0, 2, -6, 6, 3))
            assert res.chain_map_ok and res.bidegree_iso
        for _ in range(10):
            n = rng.choice([0, 1, 2])
            gens = []
            for i in range(2):
                gens.append((f"a{i+1}", 0))
                gens.append((f"b{i+1}", n))
            b = FreeCDGA(gens)
            pol = PolyvectorAlgebra(b, n + 1)
            pi = pol.algebra.zero()
            for i in range(2):
                pi = pi + (pol.theta(f"a{i+1}") * pol.theta(f"b{i+1}")).scale(
                    F(rng.choice([1, 2, 3, -1, -2]))
                )
            if rng.random() < 0.5:
                pi = pi + (pol.theta("a1") * pol.theta("b2")).scale(
                    F(rng.choice([1, -1]))
                )
            form = poisson_to_form(b, pi, n)
            assert symplectic_to_poisson(form) == pi
            assert poisson_to_form(b, symplectic_to_poisson(form), n).omega == form.omega
            res = phi_pi(b, pi, n, Window(0, 2, -6, 6, 2))
            assert res.chain_map_ok and res.bidegree_iso


def test_criterion_6_darboux_core():
    from spw.compare import darboux_leading_term, strictify_closed_two_form
    from spw.freecdga import ClosedFormTower, Elem, FreeCDGA, Window, de_rham, window_basis
    from spw.polyvec import PolyvectorAlgebra, mc_check, strict_tower

    rng = random.Random(887)
    with criterion(6, 5.0, "gauge round trip of strictification + rewritten MC equation"):
        done = 0
        while done < 5:
            n = rng.choice([1, 2])
            b = FreeCDGA([("x", 0), ("xi", n)])
            dr = de_rham(b)
            alg = dr.algebra
            deg = n + 2
            window = Window(1, 5, deg - 2, deg + 2, 5)
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
                    m: F(rng.choice([-1, 1]))
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
            res = strictify_closed_two_form(b, tower, window)
            assert res.strict_form == sigma0  # exact class equality (d = 0 base)
            done += 1
        # rewritten MC equation on the 2-generator example
        b = FreeCDGA([("x", 0), ("xi", 1)])
        pol = PolyvectorAlgebra(b, 2)
        q = pol.theta("x") * pol.theta("xi")
        p0 = q + pol.include(b.gen("x")) * pol.theta("x") * pol.theta("xi")
        tower = strict_tower(pol, 1, p0)
        assert mc_check(tower).valid
        rep = darboux_leading_term(tower)
        assert rep.valid and rep.q == q


def test_criterion_7_koszul_appendix():
    from spw.freecdga import FreeCDGA, koszul, koszul_tower_cotangent

    with criterion(7, 2.0, "Koszul homotopy dims and pro-zero cotangent transitions"):
        line = FreeCDGA([("x", 0)])
        k1 = koszul(line, [line.gen("x")])
        dims = k1.homotopy_dims(max_len=5, min_degree=-3)
        assert dims[0] == 1 and dims[1] == 0
        k2 = koszul(line, [line.gen("x")], powers=[2])
        dims2 = k2.homotopy_dims(max_len=5, min_degree=-3)
        assert dims2[0] == 2 and dims2[1] == 0
        t1 = koszul_tower_cotangent(line, [line.gen("x")], stages=3)
        assert t1.raw_nonzero and t1.zero_after_base_change
        plane = FreeCDGA([("x", 0), ("y", 0)])
        t2 = koszul_tower_cotangent(plane, [plane.gen("x"), plane.gen("y")], stages=2)
        assert t2.zero_after_base_change


def test_criterion_8_operad_layer():
    from spw.exactlin import QPoly
    from spw.operads import (
        BD1Space,
        PnSpace,
        arnold_algebra,
        as_compose,
        bd0_check,
        expand_to_words,
        multilinear_basis,
        pn_compose,
        rees_bd1,
        weyl_structure_map,
    )
    from spw.freecdga import FreeCDGA, Generator

    with criterion(8, 10.0, "BD1 specializations, Rees associativity, BD0, Arnold, Weyl"):
        # dimensions and weight distributions
        assert rees_bd1((1, 2)).dimension() == 2
        assert rees_bd1((1, 2, 3)).dimension() == 6
        p1_3 = multilinear_basis("Pn", (1, 2, 3), n=1)
        assert p1_3.dimension == 6
        assert p1_3.weight_distribution() == {0: 1, -1: 3, -2: 2}
        assert multilinear_basis("As", (1, 2, 3)).dimension == 6
        # exact structure constants at both specializations, arities 2 and 3
        for labels, outer_labels, inner_labels in (
            ((1, 2), (1, 2), None),
            ((1, 2, 3), (1, 2), (1, 3)),
        ):
            if inner_labels is None:
                # arity 2: straighten products of the two generators
                space = BD1Space(labels)
                prod = space.mul(
                    {(((2,),)): QPoly.const(1)}, {(((1,),)): QPoly.const(1)}
                )
                assert space.specialize(prod, 0) == {((1,), (2,)): F(1)}
                at1 = {}
                for mono, poly in prod.items():
                    for w, c in expand_to_words(mono, space.lie).items():
                        at1[w] = at1.get(w, F(0)) + poly.evaluate(1) * c
                assert {k: v for k, v in at1.items() if v} == {(2, 1): F(1)}
                continue
            full = BD1Space(labels)
            for om in PnSpace(1, outer_labels).basis():
                for im in PnSpace(1, inner_labels).basis():
                    got = full.compose(
                        {om: QPoly.const(1)}, 1, {im: QPoly.const(1)}
                    )
                    assert full.specialize(got, 0) == pn_compose(
                        1, {om: F(1)}, 1, {im: F(1)}, labels
                    )
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
        # Rees composition associativity on arity-2 triples (both axioms)
        outer = PnSpace(1, (1, 2)).basis()
        for a in outer:
            for b_ in PnSpace(1, (1, 3)).basis():
                for c_ in PnSpace(1, (3, 4)).basis():
                    ab = BD1Space((1, 2, 3)).compose(
                        {a: QPoly.const(1)}, 1, {b_: QPoly.const(1)}
                    )
                    left = BD1Space((1, 2, 3, 4)).compose(ab, 3, {c_: QPoly.const(1)})
                    bc = BD1Space((1, 3, 4)).compose(
                        {b_: QPoly.const(1)}, 3, {c_: QPoly.const(1)}
                    )
                    right = BD1Space((1, 2, 3, 4)).compose({a: QPoly.const(1)}, 1, bc)
                    assert left == right
        for a in outer:
            for b_ in PnSpace(1, (1, 3)).basis():
                for c_ in PnSpace(1, (2, 4)).basis():
                    ab = BD1Space((1, 2, 3)).compose(
                        {a: QPoly.const(1)}, 1, {b_: QPoly.const(1)}
                    )
                    left = BD1Space((1, 2, 3, 4)).compose(ab, 2, {c_: QPoly.const(1)})
                    ac = BD1Space((1, 2, 4)).compose(
                        {a: QPoly.const(1)}, 2, {c_: QPoly.const(1)}
                    )
                    right = BD1Space((1, 2, 3, 4)).compose(ac, 1, {b_: QPoly.const(1)})
                    assert left == right
        # BD0
        assert bd0_check().valid
        # Arnold Hilbert series at arity 3
        for n in (1, 2):
            assert arnold_algebra(n, (1, 2, 3)).hilbert_series() == {
                0: 1,
                n: 3,
                2 * n: 2,
            }
        # Weyl structure map
        b = FreeCDGA([Generator("xi1", 1), Generator("xi2", 1)])
        zero_map = weyl_structure_map(b, {}, (1, 2), n=2)
        out0 = zero_map.structure_map([b.gen("xi1"), b.gen("xi2")])
        assert set(out0) == {()} and out0[()] == b.gen("xi1") * b.gen("xi2")
        from spw.polyvec import PolyvectorAlgebra, check_strict_poisson

        tmat = {(0, 1): F(1), (1, 0): F(1)}
        wm = weyl_structure_map(b, tmat, (1, 2), n=2)
        pol = PolyvectorAlgebra(b, 3)
        pi = (pol.theta("xi1") * pol.theta("xi2")).scale(F(1, 2)) + (
            pol.theta("xi2") * pol.theta("xi1")
        ).scale(F(1, 2))
        rep = check_strict_poisson(pol, pi)
        assert rep.valid
        for f in ("xi1", "xi2"):
            for g in ("xi1", "xi2"):
                out = wm.structure_map([b.gen(f), b.gen(g)])
                a12 = out.get(((1, 2),), b.zero())
                assert pol.include(a12) == rep.bracket_table[f, g]


def test_criterion_9_tate_realization():
    from spw.gradedmixed import tate_realization, unit_complex, weight_window_total_complex

    rng = random.Random(4457)
    with criterion(9, 2.0, "Tate comparison quasi-iso for nonnegative weights, k(-1) case"):
        for _ in range(5):
            e = random_valid_complex(rng, 0, 3, pieces=3)
            base = weight_window_total_complex(e, 0, 4)
            base_dims = base.homology_dims(range(-4, 6))
            for stage in (0, 1, 2, 3):
                full, cmp = tate_realization(e, stage, 4)
                assert {m: full.homology(m).dimension for m in range(-4, 6)} == base_dims
                for m, mat in cmp.items():
                    assert mat.rows == mat.cols  # identity comparison
        e = unit_complex(-1, 0)
        empty = weight_window_total_complex(e, 0, 3)
        assert sum(empty.dim(m) for m in empty.degrees()) == 0
        full, _ = tate_realization(e, 1, 3)
        assert full.homology(0).dimension == 1


def test_criterion_10_cli_contract(capsys):
    from spw.cli import main
    from spw.dsl import parse, serialize

    corpus = sorted(
        glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples_dsl", "*.spw"))
    )
    data = lambda name: os.path.join(
        os.path.dirname(__file__), "..", "examples_dsl", name
    )
    with criterion(10, 10.0, "parser round trip, deterministic JSON, exit-code contract"):
        assert len(corpus) >= 5
        for path in corpus:
            with open(path) as fh:
                src = fh.read()
            m1 = parse(src)
            assert parse(serialize(m1)) == m1
        outs = []
        for _ in range(2):
            code = main(["check-poisson", data("plane_poisson.spw"), "--json"])
            outs.append(capsys.readouterr().out)
            assert code == 0
        assert outs[0] == outs[1]
        json.loads(outs[0])
        assert main(["check-poisson", data("jacobi_failure.spw")]) == 1
        capsys.readouterr()
        assert main(["tate", data("negative_weight.spw"), "--stage", "1"]) == 3
        capsys.readouterr()
