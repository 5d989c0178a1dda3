import random

import pytest

from helpers import (
    d_block,
    direct_sum,
    module_degrees,
    oracle_homology,
    oracle_validate_mixed,
    oracle_weight_window_total_complex,
    poincare_window_dims,
    random_mixed_blocks,
    random_valid_cdga,
    random_valid_complex,
)
from spw.errors import BidegreeMismatch, IdentityViolated
from spw.exactlin import SparseMatrix
from spw.freecdga import FreeCDGA, Window, de_rham, graded_mixed_window
from spw.gradedmixed import (
    BiGradedModule,
    GradedMixedComplex,
    cell_model,
    dg_hom_complex,
    enriched_hom,
    realization_oracle_dims,
    shift,
    stage_homology_dims,
    tate_realization,
    unit_complex,
    validate_mixed,
    weight_window_total_complex,
)


def test_trivial_eps_with_square_zero_d_is_valid():
    mod = BiGradedModule({(0, 0): ["a"], (0, 1): ["b"]})
    e = GradedMixedComplex(mod, {(0, 0): SparseMatrix(1, 1, [(0, 0, 1)])}, {})
    assert validate_mixed(e).valid


def test_cell_model_is_valid():
    assert validate_mixed(cell_model(3)).valid


def test_cell_model_rescaled_eps_still_valid():
    # eps(x_1) = 2 y_1 keeps all three identities
    e = cell_model(3)
    eps = dict(e.eps)
    eps[1, 0] = eps[1, 0].scale(2)
    assert validate_mixed(GradedMixedComplex(e.module, e.d, eps)).valid


def test_cell_model_weight_breaking_d_is_rejected():
    # d(x_2) = y_0 would land at weight 1 instead of 2: off-bidegree
    e = cell_model(3)
    d_map = {f"x{n}": [(1, f"y{n-1}")] for n in range(1, 4)}
    d_map["x2"] = [(1, "y0")]
    eps_map = {f"x{n}": [(1, f"y{n}")] for n in range(4)}
    with pytest.raises(BidegreeMismatch, match="x2"):
        GradedMixedComplex.from_maps(e.module, d_map, eps_map)


def test_identity_violation_reports_witness():
    mod = BiGradedModule({(0, 0): ["a"], (0, 1): ["b"], (1, 1): ["c"], (1, 2): ["e"]})
    d = {
        (0, 0): SparseMatrix(1, 1, [(0, 0, 1)]),  # d(a) = b
        (1, 1): SparseMatrix(1, 1, [(0, 0, 1)]),  # d(c) = e, wrong sign
    }
    eps = {
        (0, 0): SparseMatrix(1, 1, [(0, 0, 1)]),  # eps(a) = c
        (0, 1): SparseMatrix(1, 1, [(0, 0, 1)]),  # eps(b) = e
    }
    rep = validate_mixed(GradedMixedComplex(mod, d, eps))
    assert not rep.valid
    assert any(name == "d eps + eps d" and wit == "a" for name, _, wit in rep.violations)
    fixed_d = dict(d)
    fixed_d[1, 1] = d[1, 1].scale(-1)
    assert validate_mixed(GradedMixedComplex(mod, fixed_d, eps)).valid


def test_shift_zero_is_identity():
    rng = random.Random(7)
    e = random_valid_complex(rng)
    s = shift(e, 0, 0)
    assert s.module.basis == e.module.basis
    assert s.d == e.d and s.eps == e.eps


def test_shift_composes_additively():
    rng = random.Random(9)
    e = random_valid_complex(rng)
    a = shift(shift(e, 1, 2), 2, -1)
    b = shift(e, 3, 1)
    assert a.module.basis == b.module.basis
    assert a.d == b.d and a.eps == b.eps


def test_shift_k2_minus1_lands_at_weight2_degree1():
    s = shift(unit_complex(0, 0), -1, -2)
    assert s.module.support() == [(2, 1)]


def test_realization_of_cell_model_windows():
    # With the dangling top cell y_m cut off (window m), the truncated cell
    # model realizes k in degree 0; with y_m kept (window m+1) the top cell
    # cancels the augmentation class and the total complex is acyclic.
    for m in (0, 1, 2, 3):
        dims = weight_window_total_complex(cell_model(m), 0, m).homology_dims(range(-1, 3))
        assert dims[0] == 1
        assert all(v == 0 for k, v in dims.items() if k != 0)
        full = weight_window_total_complex(cell_model(m), 0, m + 1).homology_dims(range(-1, 3))
        assert all(v == 0 for v in full.values())


def test_realization_of_weight_one_unit():
    cx = weight_window_total_complex(unit_complex(1, 0), 0, 2)
    assert cx.homology(0).dimension == 1


def test_realization_shift_discards_low_weights():
    rng = random.Random(13)
    e = random_valid_complex(rng, 0, 3)
    q = 2
    shifted = shift(e, 0, q)  # weights move down by ... p -> p - q
    cx = weight_window_total_complex(shifted, 0, 10)
    expected = sum(
        len(labels) for (p, m), labels in e.module.basis.items() if p - q >= 0
    )
    assert sum(cx.dim(m) for m in cx.degrees()) == expected


def test_realization_matches_cell_hom_oracle_on_random_complexes():
    rng = random.Random(17)
    for _ in range(10):
        e = random_valid_complex(rng, 0, 4, pieces=3)
        degrees = range(-4, 6)
        real_dims = {m: weight_window_total_complex(e, 0, 4).homology(m).dimension for m in degrees}
        oracle = realization_oracle_dims(e, 4, degrees)
        assert real_dims == oracle


def test_enriched_hom_is_valid_mixed_complex():
    rng = random.Random(19)
    for _ in range(5):
        e = random_valid_complex(rng, 0, 2, pieces=2)
        f = random_valid_complex(rng, 0, 2, pieces=2)
        hom = enriched_hom(e, f, weights=(0, 1, 2))
        assert validate_mixed(hom).valid


def test_dg_hom_complex_of_cell_with_unit():
    # Hom(cell_model(2), k) computes k in degree 0
    cx = dg_hom_complex(cell_model(2), unit_complex(0, 0))
    assert cx.homology(0).dimension == 1


def test_tate_realization_nonnegative_weights_identity_comparison():
    rng = random.Random(23)
    e = random_valid_complex(rng, 0, 3)
    base = weight_window_total_complex(e, 0, 4)
    for stage in (0, 1, 2):
        full, cmp = tate_realization(e, stage, 4)
        assert {m: full.dim(m) for m in full.degrees()} == {
            m: base.dim(m) for m in base.degrees()
        }
        for m, mat in cmp.items():
            assert mat == SparseMatrix.identity(base.dim(m))


def test_tate_realization_negative_weight_unit():
    e = unit_complex(-1, 0)
    empty = weight_window_total_complex(e, 0, 3)
    assert sum(empty.dim(m) for m in empty.degrees()) == 0
    full, _ = tate_realization(e, 1, 3)
    assert full.homology(0).dimension == 1


def test_tate_comparison_is_a_tail_inclusion_that_commutes_with_d():
    rng = random.Random(89)
    for _ in range(15):
        e = random_valid_complex(rng, -2, 3, pieces=3)
        small = weight_window_total_complex(e, 0, 4)
        for stage in (0, 1, 3):
            full, cmp = tate_realization(e, stage, 4)
            assert sorted(cmp) == small.degrees()
            for m, inc in cmp.items():
                off = full.dim(m) - small.dim(m)
                assert full.basis[m][off:] == small.basis[m]
                assert all(p < 0 for p, _ in full.basis[m][:off])
                assert inc == SparseMatrix(
                    full.dim(m), small.dim(m), [(off + j, j, 1) for j in range(small.dim(m))]
                )
                inc_next = cmp.get(m + 1, SparseMatrix.zero(full.dim(m + 1), 0))
                assert d_block(full, m) @ inc == inc_next @ d_block(small, m)


def test_tate_homology_stabilizes_for_bounded_negative_weights():
    rng = random.Random(29)
    for _ in range(10):
        e = random_valid_complex(rng, -2, 3, pieces=3)
        dims_prev = None
        stable_at = None
        for stage in range(2, 6):
            full, _ = tate_realization(e, stage, 4)
            dims = {m: full.homology(m).dimension for m in range(-4, 6)}
            if dims == dims_prev:
                stable_at = stage
                break
            dims_prev = dims
        assert stable_at is not None


def test_direct_sum_helper_is_valid():
    rng = random.Random(31)
    e = random_valid_complex(rng)
    f = random_valid_complex(rng)
    assert validate_mixed(direct_sum(e, f)).valid


def _validate_mixed_cases(rng):
    for _ in range(200):
        yield random_mixed_blocks(rng, rng.randint(0, 3))
    for _ in range(30):
        yield random_valid_complex(rng, 0, 3)
    for gens in ([("x", 0)], [("x", 0), ("a", 1)], [("x", 0), ("y", 1), ("z", 2)]):
        # free algebras: the de Rham window has eps blocks and no d block
        cx, _ = graded_mixed_window(de_rham(FreeCDGA(gens)).algebra, Window(0, 3, -3, 4, 3))
        yield cx
    for _ in range(10):
        b = random_valid_cdga(rng, max_gens=3)
        cx, _ = graded_mixed_window(de_rham(b).algebra, Window(0, 2, -4, 4, 3))
        yield cx


def test_validate_mixed_matches_the_four_product_loop():
    rng = random.Random(61)
    failing = missing = 0
    for e in _validate_mixed_cases(rng):
        got = validate_mixed(e).violations
        assert got == oracle_validate_mixed(e)
        failing += bool(got)
        missing += any(
            (p, m) not in e.d or (p, m) not in e.eps for (p, m) in e.module.support()
        )
    assert failing >= 80
    assert missing >= 200


def _weight_ordered(total, e, wmin, wmax):
    """Degree m of `total` is the labels of E(p)^m over p = wmin..wmax."""
    return all(
        total.basis.get(m, []) == [(p, lab) for p in range(wmin, wmax + 1) for lab in e.module.labels(p, m)]
        for m in module_degrees(e.module)
    ) and set(total.degrees()) <= set(module_degrees(e.module))


def test_total_complex_degrees_are_weight_ordered():
    rng = random.Random(83)
    for _ in range(25):
        e = random_valid_complex(rng, -1, 4, pieces=4)
        for wmin, wmax in ((0, 4), (-1, 2), (1, 1), (2, 6)):
            assert _weight_ordered(weight_window_total_complex(e, wmin, wmax), e, wmin, wmax)
    dr = de_rham(FreeCDGA([("x", 0), ("y", 0), ("a", 1)]))
    cx, _ = graded_mixed_window(dr.algebra, Window(0, 3, -3, 4, 3))
    for wmin, wmax in ((0, 3), (1, 2), (2, 2)):
        assert _weight_ordered(weight_window_total_complex(cx, wmin, wmax), cx, wmin, wmax)


def test_total_complex_matches_dense_scan_oracle():
    rng = random.Random(71)
    for _ in range(25):
        for cx in (
            random_valid_complex(rng, 0, 2, pieces=2),
            random_valid_complex(rng, -1, 4, pieces=6),
            random_valid_complex(rng, 0, 4, pieces=4),
        ):
            for wmin, wmax in ((0, 4), (1, 2), (-1, 6), (2, 2)):
                got = weight_window_total_complex(cx, wmin, wmax)
                want = oracle_weight_window_total_complex(cx, wmin, wmax)
                assert got.basis == want.basis
                assert got.diff == want.diff


def test_stage_homology_dims_match_a_total_complex_per_stage():
    rng = random.Random(1212)
    empty_degrees = low_windows = 0
    for _ in range(150):
        e = random_valid_complex(rng, rng.randint(-1, 0), 4, pieces=rng.randint(1, 5))
        wmin = rng.randint(-1, 3)
        wmax = wmin + rng.randint(0, 3)
        low_windows += wmin > 0
        degrees = module_degrees(e.module) or [0]
        for deg in range(min(degrees) - 1, max(degrees) + 2):
            total, dims = stage_homology_dims(e, wmin, wmax, deg)
            top = weight_window_total_complex(e, wmin, wmax)
            assert total.basis == top.basis and total.diff == top.diff
            assert dims == {
                t: weight_window_total_complex(e, wmin, t).homology_dim(deg) for t in range(wmin, wmax + 1)
            }
            empty_degrees += not total.dim(deg)
    assert empty_degrees > 100 and low_windows > 50
    # a window below its lowest weight has no stages
    assert stage_homology_dims(cell_model(2), 3, 2, 0)[1] == {}


def test_homology_dims_eliminate_only_the_differentials_held(monkeypatch):
    # a missing differential has rank 0: no zero matrix is built and eliminated
    eliminated = []
    for name in ("rank", "pivot_columns"):
        original = getattr(SparseMatrix, name)

        def recording(m, original=original):
            eliminated.append(m)
            return original(m)

        monkeypatch.setattr(SparseMatrix, name, recording)
    gens = [("x", 0), ("y", 0), ("a", 1)]
    cx, _ = graded_mixed_window(de_rham(FreeCDGA(gens)).algebra, Window(0, 4, -4, 4, 4))
    total = weight_window_total_complex(cx, 0, 4)
    dims = total.homology_dims()
    assert dims == poincare_window_dims([(d, 0) for _, d in gens], 4) and len(dims) > len(total.diff)
    assert eliminated and all(any(m is held for held in total.diff.values()) for m in eliminated)
    for deg in range(-1, 6):
        stage_homology_dims(cx, 0, 4, deg)
    assert not any(m.is_zero() for m in eliminated)


def test_stage_homology_dims_check_the_top_stage(monkeypatch):
    e = cell_model(3)
    assert stage_homology_dims(e, 0, 3, 0)[1] == {0: 1, 1: 1, 2: 1, 3: 1}
    monkeypatch.setattr("spw.gradedmixed.ChainComplex.homology_dim", lambda self, m: 7)
    with pytest.raises(IdentityViolated):
        stage_homology_dims(e, 0, 3, 0)


def test_homology_with_a_missing_differential_eliminates_no_zero_matrix(monkeypatch):
    # without d(m-1) the kernel of d(m) is all homology; without d(m) every
    # vector of degree m is a cycle: neither builds nor eliminates a zero matrix
    from spw import exactlin

    rng = random.Random(21)
    complexes = [weight_window_total_complex(random_valid_complex(rng), 0, 4) for _ in range(12)]
    complexes.append(weight_window_total_complex(cell_model(3), 0, 3))
    gens = [("x", 0), ("y", 0), ("a", 1)]
    cx, _ = graded_mixed_window(de_rham(FreeCDGA(gens)).algebra, Window(0, 3, -3, 3, 3))
    complexes.append(weight_window_total_complex(cx, 0, 3))
    eliminate = exactlin._eliminate
    zero = []

    def counting(rows):
        if not rows:
            zero.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(exactlin, "_eliminate", counting)
    results = []
    for total in complexes:
        ds = total.degrees()
        degrees = range(min(ds) - 1, max(ds) + 2) if ds else range(0)
        results.append({m: total.homology(m) for m in degrees})
    assert zero == []
    monkeypatch.undo()
    missing = 0
    for total, by_degree in zip(complexes, results):
        for m, res in by_degree.items():
            missing += m - 1 not in total.diff or m not in total.diff
            old = oracle_homology(d_block(total, m - 1), d_block(total, m))
            assert res.dimension == old.dimension
            assert res.representatives == old.representatives
    assert missing > len(complexes)


def test_homology_forms_no_composite(monkeypatch):
    # the constructor proved d(m) d(m-1) = 0: homology(m) does not form it again
    rng = random.Random(31)
    complexes = [weight_window_total_complex(random_valid_complex(rng), 0, 4) for _ in range(16)]
    gens = [("x", 0), ("y", 0), ("a", 1)]
    cx, _ = graded_mixed_window(de_rham(FreeCDGA(gens)).algebra, Window(0, 3, -3, 3, 3))
    complexes.append(weight_window_total_complex(cx, 0, 3))
    products = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    middles = 0
    for total in complexes:
        for m in total.degrees():
            middles += m - 1 in total.diff and m in total.diff
            total.homology(m)
    assert products == [] and middles >= 10
