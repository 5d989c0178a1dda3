import random
from fractions import Fraction as F

import pytest

import helpers
from spw import exactlin
from spw.errors import CompositionNonzero, IdentityViolated, NoSolution
from spw.exactlin import (
    QPoly,
    SparseMatrix,
    kernel_basis,
    solve_linear,
)
from spw.freecdga import FreeCDGA, Window, closed_form_classes, de_rham, graded_mixed_window, koszul
from spw.gradedmixed import ChainComplex, weight_window_total_complex
from spw.operads import arnold_algebra


def test_kernel_of_zero_map():
    m = SparseMatrix.zero(2, 2)
    basis = kernel_basis(m)
    assert len(basis) == 2
    assert basis[0] == {0: 1} and basis[1] == {1: 1}


def test_kernel_of_identity_is_empty():
    assert kernel_basis(SparseMatrix.identity(3)) == []


def test_kernel_rank_one_matrix():
    # [[1,2],[2,4]] has kernel spanned by (2,-1); row-reduced by hand
    m = helpers.from_dense([[1, 2], [2, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    (v,) = basis
    assert v.get(0, 0) * (-1) == v.get(1, 0) * 2  # proportional to (2,-1)
    assert (m @ helpers.columns([v], 2)).is_zero()


def test_kernel_vectors_always_in_kernel_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 6)
        ent = [
            (i, j, F(rng.randrange(-4, 5), rng.randrange(1, 4)))
            for i in range(rows)
            for j in range(cols)
            if rng.random() < 0.5
        ]
        dedup = {}
        for i, j, v in ent:
            dedup[i, j] = v
        m = SparseMatrix(rows, cols, dedup)
        ker = kernel_basis(m)
        for v in ker:
            assert (m @ helpers.columns([v], cols)).is_zero()
        assert len(ker) + m.rank() == cols
        if ker:
            assert helpers.columns(ker, cols).rank() == len(ker)


def test_homology_zero_differentials():
    z = SparseMatrix.zero(3, 3)
    h = helpers.oracle_homology(z, z)
    assert h.dimension == 3
    assert len(h.representatives) == 3


def test_homology_rejects_nonzero_composition():
    i3 = SparseMatrix.identity(3)
    with pytest.raises(CompositionNonzero):
        helpers.oracle_homology(i3, i3)


def test_homology_koszul_of_x_truncated():
    # K(Q[x], x) in x-degree <= 3:  Q{X, xX, x^2 X} --d--> Q{1, x, x^2, x^3},
    # d(x^a X) = x^(a+1).  H^0 basis {1}, H^-1 = 0.
    d_in = SparseMatrix(4, 3, [(1, 0, 1), (2, 1, 1), (3, 2, 1)])
    h0 = helpers.oracle_homology(d_in, SparseMatrix.zero(0, 4))
    assert h0.dimension == 1
    (rep,) = h0.representatives
    assert rep.get(0, 0) != 0  # the class of 1
    hm1 = helpers.oracle_homology(SparseMatrix.zero(3, 0), d_in)
    assert hm1.dimension == 0


def test_homology_de_rham_line_poincare():
    # de Rham complex of Q[x] on monomials of degree <= 5:
    # Q{1..x^5} --d--> Q{dx, x dx, .., x^4 dx}, d(x^a) = a x^(a-1) dx.
    d = SparseMatrix(5, 6, [(a - 1, a, a) for a in range(1, 6)])
    h0 = helpers.oracle_homology(SparseMatrix.zero(6, 0), d)
    assert h0.dimension == 1


def test_homology_representatives_project_to_basis():
    # image = span{(1,0,0)}, kernel = everything (d_out = 0 on Q^3)
    d_in = SparseMatrix(3, 1, [(0, 0, 1)])
    h = helpers.oracle_homology(d_in, SparseMatrix.zero(0, 3))
    assert h.dimension == 2
    assert helpers.columns([{0: 1}, *h.representatives], 3).rank() == 3


def _column(values):
    return helpers.from_dense([[x] for x in values], 1)


def _values(column):
    """The dense tuple of a one-column SparseMatrix."""
    return tuple(row[0] for row in helpers.dense(column))


def test_solve_identity():
    assert solve_linear(SparseMatrix.identity(3), _column((1, F(2, 3), -5))) == _column((1, F(2, 3), -5))


def test_solve_zero_map_no_solution():
    with pytest.raises(NoSolution):
        solve_linear(SparseMatrix.zero(2, 2), _column((1, 0)))


def test_solve_back_substitution():
    m = helpers.from_dense([[1, 1], [0, 1]])
    assert solve_linear(m, _column((3, 1))) == _column((2, 1))
    assert kernel_basis(m) == []


def test_solve_underdetermined_returns_kernel():
    m = helpers.from_dense([[1, 1, 0]])
    x = solve_linear(m, _column((5,)))
    assert m @ x == _column((5,))
    assert len(kernel_basis(m)) == 2


def test_homology_invariant_under_permutation():
    rng = random.Random(11)
    a, b, c = 3, 4, 3
    while True:
        d_in = SparseMatrix(
            b, a, {(i, j): rng.randrange(-2, 3) for i in range(b) for j in range(a)}
        )
        # build d_out with rows annihilating the image: d_out @ d_in = 0
        rows = [helpers.dense_vector(v, b) for v in kernel_basis(d_in.transpose())]
        if rows:
            break
    d_out = helpers.from_dense(rows[:c], b)
    h = helpers.oracle_homology(d_in, d_out).dimension
    perm = list(range(b))
    rng.shuffle(perm)
    p = SparseMatrix(b, b, [(perm[i], i, 1) for i in range(b)])
    d_in2 = p @ d_in
    d_out2 = d_out @ p.transpose()
    assert helpers.oracle_homology(d_in2, d_out2).dimension == h


def test_qpoly_arithmetic():
    h = QPoly.hbar()
    p = (h + 1) * (h + -1)
    assert p == QPoly([-1, 0, 1])
    assert p.evaluate(2) == 3
    assert (h * h).evaluate(F(1, 2)) == F(1, 4)


def _cross_check_matrices(rng):
    """Random rational matrices, unimodular conjugates of low-rank ones,
    and the degenerate shapes."""
    yield SparseMatrix.zero(0, 4)
    yield SparseMatrix.zero(4, 0)
    yield SparseMatrix.zero(0, 0)
    yield SparseMatrix.zero(3, 5)
    for _ in range(40):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        yield helpers.random_rational_matrix(rng, rows, cols, rng.choice([0.2, 0.5, 0.9]))
    for _ in range(20):
        n, k = rng.randrange(1, 7), rng.randrange(1, 7)
        r = rng.randrange(0, min(n, k) + 1)
        low = helpers.random_rational_matrix(rng, n, r) @ helpers.random_rational_matrix(rng, r, k)
        s, _ = helpers.random_unimodular(rng, n)
        _, t_inv = helpers.random_unimodular(rng, k)
        yield s @ low @ t_inv


def test_elimination_matches_dense_oracle():
    rng = random.Random(2015)
    for m in _cross_check_matrices(rng):
        assert (m.rank(), m.pivot_columns()) == helpers.oracle_rank_and_pivots(m)
        assert [helpers.dense_vector(v, m.cols) for v in kernel_basis(m)] == helpers.oracle_kernel_basis(m)
        x0 = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(m.cols)]
        solvable = m @ _column(x0)
        other = _column([F(rng.randrange(-3, 4)) for _ in range(m.rows)])
        for b in (solvable, other):
            want = helpers.oracle_solve(m, _values(b))
            if want is None:
                with pytest.raises(NoSolution):
                    solve_linear(m, b)
            else:
                assert _values(solve_linear(m, b)) == want


def _short_and_long_rows(rng):
    """Matrices whose rows are mostly one entry, often negative, mixed
    with long rows whose content changes once a column is cleared."""
    for _ in range(300):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        entries = []
        for i in range(rows):
            if rng.random() < 0.6:
                entries.append((i, rng.randrange(cols), rng.choice((-3, -2, -1, -1, 1, 2))))
            else:
                for j in rng.sample(range(cols), rng.randint(1, cols)):
                    entries.append((i, j, rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6, F(1, 2)))))
        yield SparseMatrix(rows, cols, entries)


def _assert_matches_the_oracle(rows, echelon):
    """`echelon`, the elimination of `rows`, has the pivot columns and the
    reduced echelon form of `oracle_eliminate` on a copy of `rows`, which
    it returns."""
    n_cols = 1 + max((j for row in rows.values() for j in row), default=-1)
    want = helpers.oracle_eliminate({r: dict(row) for r, row in rows.items()}, n_cols)
    assert [c for c, _ in echelon] == [c for c, _ in want]
    assert exactlin._reduce(echelon) == exactlin._reduce(want)
    return want


def test_one_entry_pivot_rows_match_the_scaling_loop():
    rng = random.Random(131)
    negative = 0
    for m in _short_and_long_rows(rng):
        want = _assert_matches_the_oracle(exactlin._int_rows(m.items()), m._forward())
        assert (m.rank(), m.pivot_columns()) == helpers.oracle_rank_and_pivots(m)
        assert [helpers.dense_vector(v, m.cols) for v in kernel_basis(m)] == helpers.oracle_kernel_basis(m)
        negative += sum(1 for c, row in want if len(row) == 1 and row[c] < 0)
    assert negative >= 100
    # de Rham total complexes, where most pivot rows are one entry
    for gens in ([("x", 0), ("y", 0)], [("x", 0), ("a", 1)], [("x", 0), ("y", 0), ("z", 0)]):
        cx, _ = graded_mixed_window(de_rham(FreeCDGA(gens)).algebra, Window(0, 4, -4, 4, 4))
        total = weight_window_total_complex(cx, 0, 4)
        for deg in total.degrees():
            m = helpers.d_block(total, deg)
            _assert_matches_the_oracle(exactlin._int_rows(m.items()), m._forward())


def _recorded_eliminations(monkeypatch):
    """[(rows, echelon, inside [d_in | ker])] of every `_eliminate` call
    from now on, the rows copied before elimination consumes them."""
    eliminate, cycles_mod_image = exactlin._eliminate, exactlin._cycles_mod_image
    calls, stacking = [], []

    def recording(rows):
        copy = {r: dict(row) for r, row in rows.items()}
        echelon = eliminate(rows)
        calls.append((copy, echelon, bool(stacking)))
        return echelon

    def stacked(ker, d_in):
        stacking.append(True)
        try:
            return cycles_mod_image(ker, d_in)
        finally:
            stacking.pop()

    monkeypatch.setattr(exactlin, "_eliminate", recording)
    monkeypatch.setattr(exactlin, "_cycles_mod_image", stacked)
    return calls


def test_row_insertion_matches_the_markowitz_oracle(monkeypatch):
    rng = random.Random(3217)
    calls = _recorded_eliminations(monkeypatch)
    # random int and Fraction matrices, sparse to fill-heavy
    for _ in range(150):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        entries = {(i, j): rng.choice((-3, -2, -1, 1, 2, 5, F(1, 2), F(-2, 3)))
                   for i in range(rows) for j in range(cols) if rng.random() < rng.choice((0.2, 0.5, 0.9))}
        m = SparseMatrix(rows, cols, entries)
        kernel_basis(m)
        solve_linear(m, m @ helpers.random_rational_matrix(rng, cols, 2))
    random_calls = len(calls)
    # de Rham total complexes and Koszul windows
    for gens in ([("x", 0), ("y", 0)], [("x", 0), ("a", 1)], [("x", 0), ("y", 1), ("z", 0)]):
        cx, _ = graded_mixed_window(de_rham(FreeCDGA(gens)).algebra, Window(0, 4, -4, 4, 4))
        weight_window_total_complex(cx, 0, 4).homology_dims()
    for k in (1, 2, 3):
        b = FreeCDGA([(f"x{i}", 0) for i in range(k)])
        x = [b.gen(f"x{i}") for i in range(k)]
        for fs in ([x[0] * x[-1]], x, [x[0], x[0] + x[-1] * x[-1]]):
            koszul(b, fs).homotopy_dims(max_len=5, min_degree=-3)
    window_calls = len(calls) - random_calls
    # operad arnold rank certificates at arity 3 and 4
    for n in (1, 2):
        for labels in ((1, 2, 3), (1, 2, 3, 4)):
            alg = arnold_algebra(n, labels)
            for length in range(2, len(labels)):
                alg.rank_certificate(length)
    arnold_calls = len(calls) - random_calls - window_calls
    # closed forms: homology representatives from [d_in | ker] stacks
    for ko, max_len in ((1, 3), (1, 4), (2, 3)):
        gens = [("x", 0), ("y", 0)] + [(f"a{i}", 1) for i in range(ko)]
        closed_form_classes(FreeCDGA(gens), 1, 1, 4, max_len=max_len)
    stacks = sum(1 for *_, stack in calls if stack)
    assert random_calls == 300 and window_calls >= 20 and arnold_calls == 6 and stacks >= 3
    for rows, echelon, _ in calls:
        _assert_matches_the_oracle(rows, echelon)


def _dense_columns(m):
    return [[row[j] for row in helpers.dense(m)] for j in range(m.cols)]


def test_solve_linear_matches_the_single_column_oracle_column_by_column():
    rng = random.Random(1015)
    unsolvable = 0
    for m in _cross_check_matrices(rng):
        assert all(all(vec.values()) for vec in kernel_basis(m))  # no zero entry
        k = rng.randrange(0, 4)
        b = m @ helpers.random_rational_matrix(rng, m.cols, k)
        x = solve_linear(m, b)
        assert (x.rows, x.cols) == (m.cols, k)
        want = [list(helpers.oracle_solve(m, col)) for col in _dense_columns(b)]
        assert _dense_columns(x) == want
        # one more column, at a random place, that may leave the image
        extra = _dense_columns(helpers.random_rational_matrix(rng, m.rows, 1, 0.9))[0]
        cols = _dense_columns(b)
        cols.insert(rng.randrange(0, k + 1), extra)
        wide = helpers.from_dense(cols, m.rows).transpose()
        if helpers.oracle_solve(m, extra) is None:
            unsolvable += 1
            with pytest.raises(NoSolution):
                solve_linear(m, wide)
        else:
            got = _dense_columns(solve_linear(m, wide))
            assert got == [list(helpers.oracle_solve(m, col)) for col in cols]
    assert unsolvable > 10


def _random_complex_pair(rng):
    """d_in: Q^a -> Q^n and d_out: Q^n -> Q^c with d_out d_in = 0, mixed by a
    unimodular change of basis in the middle."""
    n = rng.randrange(1, 8)
    d_out = helpers.random_rational_matrix(rng, rng.randrange(0, n + 1), n, 0.4)
    ker = kernel_basis(d_out)
    a = rng.randrange(0, 6)
    if ker:
        combo = helpers.random_rational_matrix(rng, len(ker), a, 0.5)
        d_in = helpers.columns(ker, n) @ combo
    else:
        d_in = SparseMatrix.zero(n, a)
    s, s_inv = helpers.random_unimodular(rng, n)
    return s @ d_in, d_out @ s_inv


def test_homology_representatives_match_greedy_oracle(monkeypatch):
    rng = random.Random(506)
    for _ in range(60):
        d_in, d_out = _random_complex_pair(rng)
        h = helpers.oracle_homology(d_in, d_out)
        reps = [helpers.dense_vector(v, d_out.cols) for v in h.representatives]
        assert reps == helpers.oracle_homology_reps(d_in, d_out)
        assert h.dimension == len(h.representatives)
    # a zero d_in, with no columns or with some: every kernel vector is a
    # representative, and no stacked matrix is eliminated
    pivot_columns = SparseMatrix.pivot_columns
    stacked = []
    monkeypatch.setattr(SparseMatrix, "pivot_columns", lambda m: stacked.append(m) or pivot_columns(m))
    for a in (0, 0, 0, 2, 3, 5):
        n = rng.randrange(1, 8)
        _, s_inv = helpers.random_unimodular(rng, n)
        d_out = helpers.random_rational_matrix(rng, rng.randrange(0, n), n, 0.4) @ s_inv
        d_in = SparseMatrix.zero(n, a)
        h = helpers.oracle_homology(d_in, d_out)
        assert not stacked
        reps = [helpers.dense_vector(v, d_out.cols) for v in h.representatives]
        assert reps == helpers.oracle_homology_reps(d_in, d_out)
        assert h.dimension == len(reps) > 0


def test_homology_dims_is_rank_nullity_of_homology():
    rng = random.Random(3)
    for _ in range(10):
        cx = weight_window_total_complex(helpers.random_valid_complex(rng, 0, 4, pieces=3), 0, 4)
        dims = cx.homology_dims()
        assert dims == {m: cx.homology(m).dimension for m in dims}


def test_homology_dims_rejects_nonzero_square():
    one = SparseMatrix.identity(1)
    with pytest.raises(CompositionNonzero, match=r"d\^2 != 0 at degree 0"):
        ChainComplex({0: ["a"], 1: ["b"], 2: ["c"]}, {0: one, 1: one})


def test_solve_linear_raises_when_its_solution_fails(monkeypatch):
    real = exactlin._reduce

    def corrupt(echelon):
        return [(c, {t: v if t == c else 2 * v for t, v in row.items()})
                for c, row in real(echelon)]

    monkeypatch.setattr(exactlin, "_reduce", corrupt)
    with pytest.raises(IdentityViolated):
        solve_linear(SparseMatrix.identity(3), _column((1, 2, 3)))


def test_as_rat_keeps_integers_as_int():
    for x, want, kind in ((3, 3, int), (F(4, 2), 2, int), (F(1, 2), F(1, 2), F), (True, 1, int)):
        got = exactlin._as_rat(x)
        assert got == want and type(got) is kind
    # str(True) is "True": a bool must not reach a report as a coefficient
    assert str(SparseMatrix(1, 1, {(0, 0): True}).entry(0, 0)) == "1"
    for bad in (1.0, 0.5, "1"):
        with pytest.raises(TypeError):
            exactlin._as_rat(bad)


def _random_sparse(rng, rows, cols):
    return SparseMatrix(
        rows, cols,
        {(i, j): helpers.random_coefficient(rng)
         for i in range(rows) for j in range(cols) if rng.random() < 0.4},
    )


def test_sparse_sum_and_product_match_fraction_oracle():
    rng = random.Random(2015)
    for _ in range(60):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        a, a2, b = _random_sparse(rng, n, k), _random_sparse(rng, n, k), _random_sparse(rng, k, m)
        for got, want in (
            (a + a2, helpers.oracle_sum(dict(a.items()), dict(a2.items()))),
            (a @ b, helpers.oracle_matmul(a, b)),
            (a.scale(F(-2, 3)), {key: F(-2, 3) * v for key, v in a.items()}),
        ):
            assert dict(got.items()) == want
            assert all(type(v) in (int, F) for _, v in got.items())
        # integer inputs stay int, integral Fractions included
        ints = [SparseMatrix(x.rows, x.cols, {key: v * 6 for key, v in x.items()}) for x in (a, a2, b)]
        for got in (ints[0] + ints[1], ints[0] @ ints[2], ints[0] + ints[1].scale(-1)):
            assert all(type(v) is int for _, v in got.items())


def test_kernel_and_reduced_coefficients_are_int_while_integral():
    rng = random.Random(4242)
    fractional = 0
    for m in _cross_check_matrices(rng):
        for vec in kernel_basis(m):
            for v in vec.values():
                assert type(v) is (int if v.denominator == 1 else F)
                fractional += type(v) is F
        for _, row in m._reduced():
            assert all(type(v) is (int if v.denominator == 1 else F) for v in row.values())
    assert fractional
    assert [type(v) for v in kernel_basis(SparseMatrix(1, 2, [(0, 0, 2), (0, 1, 4)]))[0].values()] == [int, int]
    h = helpers.oracle_homology(SparseMatrix.zero(2, 0), SparseMatrix(1, 2, [(0, 0, 1), (0, 1, -1)]))
    assert h.representatives == [{0: 1, 1: 1}]
    assert all(type(v) is int for v in h.representatives[0].values())


def test_sparse_matrix_constructor_checks():
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        SparseMatrix(-1, 2)
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        SparseMatrix(2, -1, {})
    for entries in ({(2, 0): 1}, [(2, 0, 1)], {(0, -1): 1}, [(0, 3, F(1, 2))]):
        with pytest.raises(ValueError, match="outside 2x3"):
            SparseMatrix(2, 3, entries)
    with pytest.raises(ValueError, match=r"duplicate entry at \(1,2\)"):
        SparseMatrix(2, 3, [(1, 2, 1), (0, 0, 1), (1, 2, 5)])
    for entries in ({(0, 0): 1.0}, [(0, 0, 0.5)], [(0, 0, 1), (1, 1, 2.0)]):
        with pytest.raises(TypeError, match="float"):
            SparseMatrix(2, 3, entries)
    for entries in ({(0, 1): True, (1, 0): False}, [(0, 1, True), (1, 0, False)]):
        m = SparseMatrix(2, 3, entries)
        assert dict(m.items()) == {(0, 1): 1} and type(m.entry(0, 1)) is int
    m = SparseMatrix(2, 3, [(0, 0, 0), (0, 1, F(0)), (1, 2, F(6, 3)), (1, 1, F(1, 2))])
    assert dict(m.items()) == {(1, 2): 2, (1, 1): F(1, 2)} and type(m.entry(1, 2)) is int
    assert SparseMatrix(2, 3, {(0, 0): 0, (1, 1): F(0, 5)}).is_zero()
    assert len(SparseMatrix(2, 3, iter([(0, 0, 1), (1, 2, -1)])).items()) == 2
