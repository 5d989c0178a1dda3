"""Shared random generators and oracles for tests.

Generators: valid complexes, blocks, algebras, matrices and coefficients.
Each oracle is an older or plainer computation kept only to check one
unit against:
- dense Bareiss elimination and the right-looking Markowitz elimination:
  `exactlin` and `exactlin._eliminate`;
- homology of a pair of maps with its own d^2 check: `exactlin._cycles_mod_image`;
- dense-scan window and total-complex assembly, the word enumeration and
  the four-product loop: `freecdga.graded_mixed_window`, the order of
  `freecdga._box_words`, `gradedmixed.weight_window_total_complex` and
  `gradedmixed.validate_mixed`;
- the Elem-product derivation, the word-level derivation loop that
  `_image` replaced, and the separate de Rham builder:
  `freecdga.apply_derivation`, `freecdga._image` and `freecdga.de_rham`;
- the separate P_n and BD_1 operations, `pn_compose` and the Arnold
  certificate rows: the one linear-combination layer of `operads`;
- the window-per-stage closed forms, the Elem-sum cocycle check, the
  window-per-weight H^0 sequence and the weight-0 window of DR(K/B):
  `freecdga.closed_form_classes`, `ClosedFormTower.check_cocycle` and
  `freecdga.d_functor` (its H^0 sequence and its weight-0 table);
- the Leibniz check on every quadratic monomial: `freecdga.validate_cdga`;
- Fraction-only products, derivations and matrix operations: the
  int-first coefficients of `Elem` and `SparseMatrix`;
- the recursive Schouten bracket: `polyvec.PolyvectorAlgebra.bracket`;
- the bracket-coefficient pairing matrix: `polyvec.nondegeneracy`;
- the per-monomial chain-map loop: `compare.phi_pi`;
- the hand-written sparse actions on Sym^2 g and wedge^3 g and their
  kernel: `lieinfty.invariants` and `lieinfty.is_invariant`; the dense
  adjoint action: the sparse Sym^2 one; the dense n^5 contraction:
  `lieinfty.z_from_t`;
- the Poincare-lemma count of de Rham window cohomology;
- the indented `json.dumps` report and the match-at-each-position
  tokenizer: `cli.Report.to_json` and `dsl.tokenize`;
- the `@dataclass` and `NamedTuple` records: spw's plain record classes
  (`ORACLE_RECORDS`).
Also the small readers that left spw because only tests called them
(`d_block`, `module_degrees`, `basis_dims`, `monomial`, `underlying_form`,
`is_strict`, `block_entry`, `arnold_mul`), and the per-case time limit of
the CLI tests."""

from __future__ import annotations

import contextlib
import json
import random
import re
import signal
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import gcd, prod
from typing import Callable, NamedTuple

from spw.compare import PhiPiResult, _strict_nondegenerate
from spw.dsl import _MAX_DIGITS
from spw.errors import BidegreeError, CompositionNonzero, ParseError, SignError, WindowTooSmall
from spw.exactlin import QPoly, SparseMatrix, _cycles_mod_image, kernel_basis
from spw.freecdga import (
    _CLOSURE_ROUNDS,
    Elem,
    FreeCDGA,
    Generator,
    Window,
    _box_words,
    _closure,
    _image,
    _mono_bidegree,
    _window_monomials,
    de_rham,
    graded_mixed_window,
    koszul,
    total_complex_window,
    validate_cdga,
    window_basis,
)
from spw.gradedmixed import (
    BiGradedModule,
    ChainComplex,
    GradedMixedComplex,
    cell_model,
    shift,
    weight_window_total_complex,
)
from spw.lieinfty import InvariantTensor
from spw.operads import ArnoldAlgebra, LieWords, _add, _bilinear
from spw.polyvec import NondegeneracyReport


def direct_sum(e, f):
    basis = {}
    for (p, m), labels in e.module.basis.items():
        basis.setdefault((p, m), []).extend(("L", lab) for lab in labels)
    for (p, m), labels in f.module.basis.items():
        basis.setdefault((p, m), []).extend(("R", lab) for lab in labels)
    mod = BiGradedModule(basis)

    def _blocks(which):
        out = {}
        for (p, m) in mod.basis:
            tgt = (p, m + 1) if which == "d" else (p + 1, m + 1)
            if mod.dim(*tgt) == 0:
                continue
            tgt_index = {lab: i for i, lab in enumerate(mod.labels(*tgt))}
            ent = {}
            for j, (side, lab) in enumerate(mod.labels(p, m)):
                src = e if side == "L" else f
                blk = src.d_block(p, m) if which == "d" else src.eps_block(p, m)
                col = src.module.labels(p, m).index(lab)
                tp = p if which == "d" else p + 1
                for i in range(blk.rows):
                    v = blk.entry(i, col)
                    if v:
                        key = (side, src.module.labels(tp, m + 1)[i])
                        ent[tgt_index[key], j] = v
            if ent:
                out[p, m] = SparseMatrix(mod.dim(*tgt), mod.dim(p, m), ent)
        return out

    return GradedMixedComplex(mod, _blocks("d"), _blocks("eps"))


def random_unimodular(rng, n):
    """Random integer matrix with inverse, built from elementary operations."""
    s = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    sinv = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = F(rng.choice([-2, -1, 1, 2]))
        for k in range(n):
            s[i][k] += c * s[j][k]
        # inverse gets the opposite column operation
        for k in range(n):
            sinv[k][j] -= c * sinv[k][i]
    return from_dense(s, n), from_dense(sinv, n)


def conjugate(e, rng):
    """Bidegree-preserving random change of basis; keeps all identities."""
    mats = {}
    for (p, m) in e.module.basis:
        mats[p, m] = random_unimodular(rng, e.module.dim(p, m))

    def _transform(blocks, which):
        out = {}
        for (p, m), mat in blocks.items():
            tgt = (p, m + 1) if which == "d" else (p + 1, m + 1)
            s_t, _ = mats.get(tgt, (SparseMatrix.identity(mat.rows),) * 2)
            _, s_inv = mats.get((p, m), (None, SparseMatrix.identity(mat.cols)))
            out[p, m] = s_t @ mat @ s_inv
        return out

    return GradedMixedComplex(
        e.module, _transform(e.d, "d"), _transform(e.eps, "eps")
    )


def random_valid_complex(rng, min_weight=0, max_weight=4, pieces=4):
    """Random graded mixed complex: sums of shifted cells, then conjugated."""
    parts = []
    for _ in range(pieces):
        kind = rng.choice(["unit", "cell", "dcell"])
        q = -rng.randint(min_weight, max_weight)
        n = -rng.randint(-2, 2)
        if kind == "unit":
            parts.append(_unit(rng, -q, -n))
        elif kind == "cell":
            m = rng.randint(0, max_weight - (-q) - 1) if max_weight + q > 0 else 0
            parts.append(shift(cell_model(m), n, q))
        else:
            parts.append(_dcell(rng, -q, -n))
    e = parts[0]
    for p in parts[1:]:
        e = direct_sum(e, p)
    # prune anything outside the requested weight band by tensoring with unit shifts
    e = _restrict_weights(e, min_weight, max_weight)
    return conjugate(e, rng)


def _unit(rng, p, m):
    from spw.gradedmixed import unit_complex

    return unit_complex(p, m, label=f"u{rng.randrange(10**6)}")


def _dcell(rng, p, m):
    t = rng.randrange(10**6)
    mod = BiGradedModule({(p, m): [f"a{t}"], (p, m + 1): [f"b{t}"]})
    return GradedMixedComplex(mod, {(p, m): SparseMatrix(1, 1, [(0, 0, 1)])}, {})


def _restrict_weights(e, wmin, wmax):
    basis = {
        (p, m): labels
        for (p, m), labels in e.module.basis.items()
        if wmin <= p <= wmax
    }
    mod = BiGradedModule(basis)
    d = {k: v for k, v in e.d.items() if k in basis}
    eps = {
        (p, m): v
        for (p, m), v in e.eps.items()
        if (p, m) in basis and wmin <= p + 1 <= wmax
    }
    # dropping the high-weight targets of eps is a quotient, so still valid
    fixed_eps = {}
    for (p, m), mat in eps.items():
        want_rows = mod.dim(p + 1, m + 1)
        if mat.rows == want_rows:
            fixed_eps[p, m] = mat
    return GradedMixedComplex(mod, d, fixed_eps)


def oracle_validate_mixed(e):
    """`gradedmixed.validate_mixed` forming all four products at every
    support cell, through zero matrices where a block is missing."""
    violations = []

    def _report(name, p, m, mat):
        labels = e.module.labels(p, m)
        for j in sorted({j for (_, j), _ in mat.items()}):
            violations.append((name, (p, m), labels[j]))

    for (p, m) in e.module.support():
        dd = e.d_block(p, m + 1) @ e.d_block(p, m)
        if not dd.is_zero():
            _report("d^2", p, m, dd)
        ee = e.eps_block(p + 1, m + 1) @ e.eps_block(p, m)
        if not ee.is_zero():
            _report("eps^2", p, m, ee)
        mix = e.d_block(p + 1, m + 1) @ e.eps_block(p, m) + e.eps_block(p, m + 1) @ e.d_block(p, m)
        if not mix.is_zero():
            _report("d eps + eps d", p, m, mix)
    return violations


def random_mixed_blocks(rng, max_weight=2, degrees=(-1, 2)):
    """A GradedMixedComplex with random d and eps blocks, each present or
    missing at random, so most identities fail somewhere."""
    basis = {}
    for p in range(max_weight + 1):
        for m in range(degrees[0], degrees[1] + 1):
            k = rng.randint(0, 2)
            if k:
                basis[p, m] = [f"e{p}_{m}_{i}" for i in range(k)]
    mod = BiGradedModule(basis)
    d, eps = {}, {}
    for (p, m) in basis:
        for blocks, tgt in ((d, (p, m + 1)), (eps, (p + 1, m + 1))):
            rows, cols = mod.dim(*tgt), mod.dim(p, m)
            if rows and rng.random() < 0.6:
                blocks[p, m] = SparseMatrix(rows, cols, [
                    (i, j, rng.choice((-2, -1, 1, 1, F(1, 2))))
                    for i in range(rows) for j in range(cols) if rng.random() < 0.6
                ])
    return GradedMixedComplex(mod, d, eps)


def random_valid_cdga(rng, max_gens=4, degree_span=(-3, 3)):
    """Random free cdga with d^2 = 0 by construction.

    Differentials are combinations of monomials in d-closed generators,
    so squaring to zero is automatic while staying nontrivial.
    """
    from spw.freecdga import FreeCDGA

    n = rng.randint(1, max_gens)
    gens = [(f"g{i+1}", rng.randint(*degree_span)) for i in range(n)]
    alg = FreeCDGA(gens)  # map-free: d is written on it, then installed
    closed = []  # indices of generators with d = 0
    d_vals = {}
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        g = alg.generators[i]
        want = g.degree + 1
        candidates = []
        if closed and rng.random() < 0.7:
            sub = FreeCDGA([(alg.generators[j].name, alg.generators[j].degree) for j in closed])
            for mono in enumerate_monomials(sub, 3):
                if mono and sum(sub.gen_degree(t) for t in mono) == want:
                    lifted = tuple(sorted(closed[t] for t in mono))
                    if i not in lifted:
                        candidates.append(lifted)
        if candidates and rng.random() < 0.8:
            terms = {}
            for mono in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 2))):
                terms[mono] = F(rng.choice([-2, -1, 1, 2, 3]))
            from spw.freecdga import Elem

            d_vals[g.name] = Elem(alg, terms)
        else:
            closed.append(i)
    return FreeCDGA(gens, differential=d_vals)


# ---------------------------------------------------------------------------
# Dense oracle: the original Bareiss elimination and greedy homology loop
# ---------------------------------------------------------------------------


def _clear_denominators(row):
    """Scale a Fraction row to coprime integers (sign preserved)."""
    lcm = 1
    for v in row:
        if v:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _bareiss_echelon(dense):
    """Fraction-free row echelon; returns normalised Fraction rows + pivots."""
    work = [_clear_denominators(r) for r in dense]
    work = [r for r in work if any(r)]
    n_cols = len(dense[0]) if dense else 0
    pivot_cols = []
    echelon_rows = []
    prev_pivot = 1
    col = 0
    while work and col < n_cols:
        # exact pivoting: smallest nonzero magnitude in this column
        cand = [(abs(r[col]), idx) for idx, r in enumerate(work) if r[col]]
        if not cand:
            col += 1
            continue
        _, best = min(cand)
        pivot_row = work.pop(best)
        p = pivot_row[col]
        nxt = []
        for r in work:
            # Bareiss step; rows with r[col] = 0 are still rescaled by
            # p/prev_pivot, otherwise later exact divisions would not be
            rc = r[col]
            r = [(p * r[j] - rc * pivot_row[j]) // prev_pivot for j in range(n_cols)]
            if any(r):
                nxt.append(r)
        work = nxt
        prev_pivot = p
        pivot_cols.append(col)
        echelon_rows.append(pivot_row)
        col += 1
    # back-substitute to reduced form over Q, pivots normalised to 1
    reduced = [[F(v) for v in r] for r in echelon_rows]
    for r_idx in range(len(reduced) - 1, -1, -1):
        pc = pivot_cols[r_idx]
        pv = reduced[r_idx][pc]
        reduced[r_idx] = [v / pv for v in reduced[r_idx]]
        for up in range(r_idx):
            f = reduced[up][pc]
            if f:
                reduced[up] = [a - f * b for a, b in zip(reduced[up], reduced[r_idx])]
    return reduced, pivot_cols


def from_dense(rows, width=None):
    """The SparseMatrix of a list of dense rows, `width` columns wide (the
    length of the first row when not given)."""
    rows = [list(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    assert all(len(r) == width for r in rows), "ragged rows"
    return SparseMatrix(len(rows), width, [(i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r) if v])


def columns(vectors, n):
    """The n x len(vectors) SparseMatrix with the sparse vectors {index:
    coeff} as its columns."""
    return SparseMatrix(n, len(vectors), [(i, t, x) for t, v in enumerate(vectors) for i, x in v.items()])


def dense_vector(v, n):
    """The length-n tuple of a sparse vector {index: coeff}."""
    return tuple(v.get(i, 0) for i in range(n))


def dense(m):
    out = [[F(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        out[i][j] = v
    return out


def oracle_rank_and_pivots(m):
    _, pivot_cols = _bareiss_echelon(dense(m))
    return len(pivot_cols), tuple(pivot_cols)


def oracle_kernel_basis(m):
    reduced, pivot_cols = _bareiss_echelon(dense(m))
    pivot_set = set(pivot_cols)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivot_set):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for r_idx in range(len(reduced) - 1, -1, -1):
            pc = pivot_cols[r_idx]
            s = sum(reduced[r_idx][j] * v[j] for j in range(pc + 1, m.cols) if v[j])
            v[pc] = -s
        basis.append(tuple(v))
    return basis


def oracle_solve(m, b):
    """The particular solution of m x = b (zero at free columns), or None."""
    aug = [row + [F(x)] for row, x in zip(dense(m), b)]
    reduced, pivot_cols = _bareiss_echelon(aug) if m.rows else ([], [])
    if m.cols in pivot_cols:
        return None
    x = [F(0)] * m.cols
    for r_idx in range(len(reduced) - 1, -1, -1):
        pc = pivot_cols[r_idx]
        s = sum(reduced[r_idx][j] * x[j] for j in range(pc + 1, m.cols) if x[j])
        x[pc] = reduced[r_idx][m.cols] - s
    return tuple(x)


def oracle_homology_reps(d_in, d_out):
    """Greedy representatives: re-rank the stacked columns per kernel vector."""
    ker = oracle_kernel_basis(d_out)
    dim = len(ker) - oracle_rank_and_pivots(d_in)[0]
    n = d_in.rows
    image_cols = [list(c) for c in zip(*dense(d_in))] if d_in.rows else []
    stacked = [c for c in image_cols if any(c)]

    def rank_of(cols):
        return oracle_rank_and_pivots(from_dense(cols, n).transpose())[0] if cols else 0

    reps = []
    current = rank_of(stacked)
    for v in ker:
        if len(reps) == dim:
            break
        r = rank_of(stacked + [list(v)])
        if r > current:
            reps.append(v)
            stacked = stacked + [list(v)]
            current = r
    return reps


def oracle_homology(d_in, d_out):
    """Homology at the middle of  A --d_in--> B --d_out--> C, checking
    d_out @ d_in == 0 exactly (CompositionNonzero otherwise); the
    representatives are those of `exactlin._cycles_mod_image` on
    `kernel_basis(d_out)`.  `ChainComplex.homology`, which checks d^2 = 0
    once when it is built, replaced it."""
    if d_in.rows != d_out.cols:
        raise ValueError("middle dimensions disagree")
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out o d_in != 0")
    return _cycles_mod_image(kernel_basis(d_out), d_in)


def oracle_eliminate(rows, n_cols):
    """The right-looking elimination that row insertion replaced in
    `exactlin._eliminate`: pivot columns left to right, the pivot row the
    sparsest row with a nonzero in the column (Markowitz), ties going to
    the smaller |pivot| and then the lower row id, found through a column
    -> rows index; one scale-and-subtract loop for every pivot row.
    Returns [(pivot_col, row)] in column order."""
    where = {}
    for r, row in rows.items():
        for j in row:
            where.setdefault(j, set()).add(r)
    echelon = []
    for c in range(n_cols):
        cand = where.pop(c, None)
        if not cand:
            continue
        if len(cand) == 1:
            (pr,) = cand
        else:
            pr = min(cand, key=lambda r: (len(rows[r]), abs(rows[r][c]), r))
        prow = rows.pop(pr)
        rest = [(j, v) for j, v in prow.items() if j != c]
        for j, _ in rest:
            where[j].discard(pr)
        p = prow[c]
        for r in cand:
            if r == pr:
                continue
            row = rows[r]
            a = row.pop(c)
            g = gcd(p, a)
            fp, fa = p // g, a // g
            if fp != 1:
                for j in row:
                    row[j] *= fp
            for j, v in rest:
                w = row.get(j, 0) - fa * v
                if w:
                    if j not in row:
                        where.setdefault(j, set()).add(r)
                    row[j] = w
                elif j in row:
                    del row[j]
                    where[j].discard(r)
            if not row:
                del rows[r]
                continue
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        echelon.append((c, prow))
    return echelon


def random_rational_matrix(rng, rows, cols, density=0.5):
    ent = {
        (i, j): F(rng.randrange(-4, 5), rng.randrange(1, 4))
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    }
    return SparseMatrix(rows, cols, ent)


def oracle_weight_window_total_complex(e, wmin, wmax):
    """Total complex by dense column scans and label lookups."""
    basis = {}
    for (p, m), labels in e.module.basis.items():
        if wmin <= p <= wmax:
            for lab in labels:
                basis.setdefault(m, []).append((p, lab))
    for m in basis:
        basis[m].sort(key=lambda t: t[0])
    diff = {}
    for m, labels in basis.items():
        tgt = basis.get(m + 1, [])
        if not tgt:
            continue
        tgt_index = {lab: i for i, lab in enumerate(tgt)}
        ent = {}
        for j, (p, lab) in enumerate(labels):
            col = e.module.labels(p, m).index(lab)
            dblk = e.d_block(p, m)
            for i in range(dblk.rows):
                v = dblk.entry(i, col)
                if v:
                    key = (p, e.module.labels(p, m + 1)[i])
                    ent[tgt_index[key], j] = ent.get((tgt_index[key], j), F(0)) + v
            eblk = e.eps_block(p, m)
            if p + 1 <= wmax:
                for i in range(eblk.rows):
                    v = eblk.entry(i, col)
                    if v:
                        key = (p + 1, e.module.labels(p + 1, m + 1)[i])
                        ent[tgt_index[key], j] = ent.get((tgt_index[key], j), F(0)) + v
        ent = {k: v for k, v in ent.items() if v}
        if ent:
            diff[m] = SparseMatrix(len(tgt), len(labels), ent)
    return ChainComplex(basis, diff)


def oracle_graded_mixed_window(alg, window):
    """Window complex recomputing d and eps per basis label, rows by label."""
    inside = window_basis(alg, window)
    basis = {}
    mono_of = {}
    for m, (w, d) in sorted(inside.items(), key=lambda kv: (kv[1], kv[0])):
        lab = alg.mono_str(m)
        basis.setdefault((w, d), []).append(lab)
        mono_of[lab] = m
    mod = BiGradedModule(basis)
    index = {k: {lab: i for i, lab in enumerate(mod.labels(*k))} for k in mod.basis}

    def _blocks(op, dw):
        out = {}
        for (w, d), labels in mod.basis.items():
            tgt = (w + dw, d + 1)
            if mod.dim(*tgt) == 0:
                continue
            ent = {}
            for j, lab in enumerate(labels):
                image = op(Elem(alg, {mono_of[lab]: F(1)}))
                for m2, c in image.terms.items():
                    w2, d2 = _mono_bidegree(alg, m2)
                    if w2 > window.wmax or d2 > window.dmax:
                        continue
                    ent[index[tgt][alg.mono_str(m2)], j] = c
            if ent:
                out[w, d] = SparseMatrix(mod.dim(*tgt), len(labels), ent)
        return out

    return GradedMixedComplex(mod, _blocks(alg.d, 0), _blocks(alg.eps, 1)), mono_of


def enumerate_monomials(alg, max_len):
    """All canonical words of length <= max_len (odd letters at most once),
    in the order of `freecdga._box_words`."""
    n = len(alg.generators)

    def rec(start, budget):
        yield ()
        for i in range(start, n):
            cap = 1 if alg.parities[i] else budget
            if budget == 0:
                return
            word = ()
            for e in range(1, min(cap, budget) + 1):
                word = word + (i,)
                for rest in rec(i + 1, budget - e):
                    yield word + rest

    return rec(0, max_len)


def oracle_closure(alg, window):
    """The window closure by enumerating every word of length <= max_len,
    filtering it into the bidegree box and imaging each basis word as an
    Elem through oracle_word_derivation, with one _mono_bidegree per image term.
    Returns (inside, images) as freecdga._closure does: {mono: (w, d)} and
    {mono: (d terms, eps terms)}."""
    inside = {}
    for m in enumerate_monomials(alg, window.max_len):
        w, d = _mono_bidegree(alg, m)
        if window.wmin <= w <= window.wmax and window.dmin <= d <= window.dmax:
            inside[m] = (w, d)
    images = {}
    frontier = list(inside)
    for _ in range(_CLOSURE_ROUNDS):
        new = []
        for m in frontier:
            x = Elem(alg, {m: 1})
            images[m] = tuple(
                oracle_word_derivation(alg, x, values, 1).terms for values in (alg.differential, alg.mixed)
            )
            for image in images[m]:
                for m2 in image:
                    if m2 in inside:
                        continue
                    w, d = _mono_bidegree(alg, m2)
                    if w > window.wmax or d > window.dmax:
                        continue
                    if w < window.wmin or d < window.dmin:
                        raise WindowTooSmall(
                            "differential image below the window", witness=alg.mono_str(m2)
                        )
                    inside[m2] = (w, d)
                    new.append(m2)
        if not new:
            break
        frontier = new
    else:
        raise WindowTooSmall("window closure did not terminate", witness=alg.mono_str(frontier[0]))
    return inside, images


# ---------------------------------------------------------------------------
# Oracles for derivations and the de Rham symbol algebra
# ---------------------------------------------------------------------------


def oracle_word_derivation(alg, elem, values, parity):
    """Extend generator values to a graded derivation of the given parity,
    letter by letter and term by term into one dict: the word-level
    routine that `freecdga._image` replaced.

    values: {gen index: Elem}.  On a word l_1..l_k the j-th term carries
    the sign (-1)^(parity * (deg l_1 + .. + deg l_{j-1})).  Its word
    l_1..l_{j-1} t l_{j+1}..l_k for a value term t is
    (-1)^(|l_1..l_{j-1}| |t|) t * rest, rest the word without l_j: one
    merge, signed by the odd letters of t that cross odd letters of rest.
    """
    if not values:
        return Elem(alg, {})
    parities = alg.parities
    parity = parity % 2
    acc = {}
    for mono, coeff in elem.terms.items():
        pre = 0
        for j, letter in enumerate(mono):
            val = values.get(letter)
            if val is not None:
                rest = mono[:j] + mono[j + 1:]
                odd_rest = None
                for t, c in val.terms.items():
                    flip = parity & pre
                    odd_t = [b for b in t if parities[b]]
                    if odd_t:
                        if odd_rest is None:
                            odd_rest = [a for a in rest if parities[a]]
                        if any(b in odd_rest for b in odd_t):
                            continue  # an odd letter squared
                        flip ^= (pre & len(odd_t)) ^ (
                            sum(1 for b in odd_t for a in odd_rest if a < b) & 1
                        )
                    m = tuple(sorted(t + rest))
                    v = -(coeff * c) if flip else coeff * c
                    if m in acc:
                        v += acc[m]
                        if not v:
                            del acc[m]
                            continue
                    acc[m] = v
            pre ^= parities[letter]
    return Elem(alg, acc)


def oracle_apply_derivation(alg, elem, values, parity):
    """Graded derivation by prefix * value * suffix Elem products per letter."""
    out = alg.zero()
    for mono, coeff in elem.terms.items():
        pre_parity = 0
        for j, letter in enumerate(mono):
            val = values.get(letter)
            if val is not None and not val.is_zero():
                sign = -1 if (parity and pre_parity % 2) else 1
                prefix = Elem(alg, {mono[:j]: F(1)})
                suffix = Elem(alg, {mono[j + 1:]: F(1)})
                out = out + (prefix * val * suffix).scale(sign * coeff)
            pre_parity += alg.gen_degree(letter)
    return out


def _oracle_symbols(b, shift, **maps):
    gens = list(b.generators)
    for g in b.generators:
        if g.name not in b.base_names:
            gens.append(Generator("d" + g.name, g.degree + shift, g.weight + 1))
    return FreeCDGA(gens, base_names=b.base_names, **maps)


def _oracle_symbol_differential(b, alg, image_of_dg):
    d_vals = {}
    for i, g in enumerate(b.generators):
        dg = b.differential.get(i)
        if dg is not None:
            d_vals[g.name] = Elem(alg, dict(dg.terms))
    for g in b.generators:
        if g.name in b.base_names:
            continue
        dg = b.differential.get(b.index[g.name])
        if dg is not None:
            val = image_of_dg(Elem(alg, dict(dg.terms)))
            if not val.is_zero():
                d_vals["d" + g.name] = val
    return d_vals


def oracle_de_rham(b):
    """The de Rham algebra as built before the shared symbol builder."""
    free = _oracle_symbols(b, 1)
    mixed = {g.name: free.gen("d" + g.name) for g in b.generators if g.name not in b.base_names}
    u = {free.index[name]: v for name, v in mixed.items()}
    d_vals = _oracle_symbol_differential(b, free, lambda e: oracle_apply_derivation(free, e, u, 1).scale(-1))
    return _oracle_symbols(b, 1, differential=d_vals, mixed=mixed)


def oracle_validate_cdga(alg):
    """`validate_cdga` after the Leibniz check on every quadratic monomial,
    also those of two letters that d does not act on.  The checks on
    generators only collect violations, so a Leibniz failure raises the
    same SignError as it would after them."""
    for i, g in enumerate(alg.generators):
        for h in alg.generators[i:]:
            x, y = alg.gen(g.name), alg.gen(h.name)
            rhs = alg.d(x) * y + (x * alg.d(y)).scale(-1 if g.degree % 2 else 1)
            if alg.d(x * y) != rhs:
                raise SignError("Leibniz failure", witness=f"{g.name}*{h.name}")
    return validate_cdga(alg)


# ---------------------------------------------------------------------------
# Operad oracles: P_n and BD_1 each with their own product, bracket,
# substitution and accumulation loops, the Arnold normal form and
# certificate rows each with their own sort, and the Weyl map with its own
# slot-passing signs and Elem products
# ---------------------------------------------------------------------------


class OraclePn:
    """P_n product and biderivation bracket on block monomials."""

    def __init__(self, n):
        self.b = (1 - n) % 2
        self.lie = LieWords(1 - n)

    def block_degree(self, block):
        return (len(block) - 1) * self.b

    def mono_degree(self, blocks):
        return sum(self.block_degree(bl) for bl in blocks)

    def sort_blocks(self, blocks):
        blocks = list(blocks)
        sign = 1
        for i in range(len(blocks)):
            for j in range(len(blocks) - 1 - i):
                if min(blocks[j]) > min(blocks[j + 1]):
                    if (self.block_degree(blocks[j]) * self.block_degree(blocks[j + 1])) % 2:
                        sign = -sign
                    blocks[j], blocks[j + 1] = blocks[j + 1], blocks[j]
        return sign, tuple(blocks)

    def product_mono(self, m1, m2):
        sign, mono = self.sort_blocks(m1 + m2)
        return {mono: F(sign)}

    def product(self, e1, e2):
        out = {}
        for m1, c1 in e1.items():
            for m2, c2 in e2.items():
                for mono, s in self.product_mono(m1, m2).items():
                    v = out.get(mono, F(0)) + s * c1 * c2
                    if v:
                        out[mono] = v
                    else:
                        out.pop(mono, None)
        return out

    def bracket_mono(self, m1, m2):
        b = self.b
        if len(m1) == 0 or len(m2) == 0:
            return {}
        if len(m1) == 1 and len(m2) == 1:
            return {(seq,): c for seq, c in self.lie.bracket_seqs(m1[0], m2[0]).items()}
        if len(m1) == 1:
            w, rest = m2[0], m2[1:]
            out = {}
            for mono, c in self.bracket_mono(m1, (w,)).items():
                for mono2, c2 in self.product_mono(mono, rest).items():
                    out[mono2] = out.get(mono2, F(0)) + c * c2
            sign = -1 if ((self.mono_degree(m1) + b) * self.block_degree(w)) % 2 else 1
            for mono, c in self.bracket_mono(m1, rest).items():
                for mono2, c2 in self.product_mono((w,), mono).items():
                    out[mono2] = out.get(mono2, F(0)) + sign * c * c2
            return {k: v for k, v in out.items() if v}
        v, rest = m1[0], m1[1:]
        out = {}
        for mono, c in self.bracket_mono(rest, m2).items():
            for mono2, c2 in self.product_mono((v,), mono).items():
                out[mono2] = out.get(mono2, F(0)) + c * c2
        sign = -1 if (self.mono_degree(rest) * (self.mono_degree(m2) + b)) % 2 else 1
        for mono, c in self.bracket_mono((v,), m2).items():
            for mono2, c2 in self.product_mono(mono, rest).items():
                out[mono2] = out.get(mono2, F(0)) + sign * c * c2
        return {k: v for k, v in out.items() if v}

    def bracket(self, e1, e2):
        out = {}
        for m1, c1 in e1.items():
            for m2, c2 in e2.items():
                for mono, c in self.bracket_mono(m1, m2).items():
                    v = out.get(mono, F(0)) + c * c1 * c2
                    if v:
                        out[mono] = v
                    else:
                        out.pop(mono, None)
        return out


def oracle_pn_compose(n, e1, label, e2):
    """Substitution in P_n: left-normed block substitution, then products."""
    space = OraclePn(n)

    def subst_block(seq, value):
        if len(seq) == 1:
            if seq[0] != label:
                raise ValueError
            return value
        prefix, last = seq[:-1], seq[-1]
        if last == label:
            return space.bracket({(prefix,): F(1)}, value)
        return space.bracket(subst_block(prefix, value), {((last,),): F(1)})

    out = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            target = next(idx for idx, bl in enumerate(m1) if label in bl)
            pieces = subst_block(m1[target], {m2: F(1)})
            acc = space.product({m1[:target]: F(1)}, pieces)
            acc = space.product(acc, {m1[target + 1:]: F(1)})
            for mono, c in acc.items():
                v = out.get(mono, F(0)) + c * c1 * c2
                if v:
                    out[mono] = v
                else:
                    out.pop(mono, None)
    return out


class OracleBD1:
    """PBW block monomials over Q[hbar] with  u v = v u + hbar {u, v}."""

    def __init__(self):
        self.lie = LieWords(0)

    def straighten(self, blocks):
        blocks = tuple(blocks)
        for i in range(len(blocks) - 1):
            if min(blocks[i]) > min(blocks[i + 1]):
                swapped = blocks[:i] + (blocks[i + 1], blocks[i]) + blocks[i + 2:]
                out = self._scale(self.straighten(swapped), QPoly.const(1))
                br = self.lie.bracket_seqs(blocks[i], blocks[i + 1])
                for seq, c in br.items():
                    merged = blocks[:i] + (seq,) + blocks[i + 2:]
                    for mono, poly in self.straighten(merged).items():
                        add = poly * QPoly.hbar() * QPoly.const(c)
                        out[mono] = out.get(mono, QPoly()) + add
                return {k: v for k, v in out.items() if not v.is_zero()}
        return {blocks: QPoly.const(1)}

    @staticmethod
    def _scale(elem, poly):
        return {k: v * poly for k, v in elem.items()}

    def mul(self, e1, e2):
        out = {}
        for m1, p1 in e1.items():
            for m2, p2 in e2.items():
                for mono, p in self.straighten(m1 + m2).items():
                    out[mono] = out.get(mono, QPoly()) + p * p1 * p2
        return {k: v for k, v in out.items() if not v.is_zero()}

    def hbar_bracket(self, e1, e2):
        out = {}
        for m1, p1 in e1.items():
            for m2, p2 in e2.items():
                for mono, p in self._bracket_mono(m1, m2).items():
                    out[mono] = out.get(mono, QPoly()) + p * p1 * p2
        return {k: v for k, v in out.items() if not v.is_zero()}

    def _bracket_mono(self, m1, m2):
        if not m1 or not m2:
            return {}
        if len(m1) == 1 and len(m2) == 1:
            return {
                (seq,): QPoly.const(c)
                for seq, c in self.lie.bracket_seqs(m1[0], m2[0]).items()
            }
        if len(m1) == 1:
            # {a, u v} = {a, u} v + u {a, v}
            head, rest = (m2[0],), m2[1:]
            out = self.mul(self._bracket_mono(m1, head), {rest: QPoly.const(1)})
            for mono, p in self.mul({head: QPoly.const(1)}, self._bracket_mono(m1, rest)).items():
                out[mono] = out.get(mono, QPoly()) + p
            return {k: v for k, v in out.items() if not v.is_zero()}
        head, rest = (m1[0],), m1[1:]
        out = self.mul({head: QPoly.const(1)}, self._bracket_mono(rest, m2))
        for mono, p in self.mul(self._bracket_mono(head, m2), {rest: QPoly.const(1)}).items():
            out[mono] = out.get(mono, QPoly()) + p
        return {k: v for k, v in out.items() if not v.is_zero()}

    def substitute_lie(self, seq, label, value):
        if len(seq) == 1:
            if seq[0] != label:
                raise ValueError("label not in block")
            return value
        prefix, last = seq[:-1], seq[-1]
        if last == label:
            return self.hbar_bracket({(prefix,): QPoly.const(1)}, value)
        if label in prefix:
            return self.hbar_bracket(
                self.substitute_lie(prefix, label, value), {((last,),): QPoly.const(1)}
            )
        raise ValueError("label not in block")

    def compose(self, e1, label, e2):
        out = {}
        for m1, p1 in e1.items():
            for m2, p2 in e2.items():
                target = next((idx for idx, bl in enumerate(m1) if label in bl), None)
                if target is None:
                    raise ValueError("label not in monomial")
                pieces = self.substitute_lie(m1[target], label, {m2: QPoly.const(1)})
                acc = self.mul({m1[:target]: QPoly.const(1)}, pieces)
                acc = self.mul(acc, {m1[target + 1:]: QPoly.const(1)})
                for mono, p in acc.items():
                    out[mono] = out.get(mono, QPoly()) + p * p1 * p2
        return {k: v for k, v in out.items() if not v.is_zero()}


def _oracle_oriented_sort(alg, letters, sign):
    """Orient a_xy letters and bubble-sort them by (j, i); (sign, list)."""
    oriented = []
    for (i, j) in letters:
        s, pair = alg.orient(i, j)
        sign *= s
        oriented.append(pair)
    for x in range(len(oriented)):
        for y in range(len(oriented) - 1 - x):
            a, b = oriented[y], oriented[y + 1]
            if (a[1], a[0]) > (b[1], b[0]):
                oriented[y], oriented[y + 1] = b, a
                if alg.n % 2:
                    sign = -sign
    return sign, oriented


def oracle_reduce_word(alg, letters, coeff=F(1)):
    """Arnold normal form of a product of a_xy letters."""
    sign, oriented = _oracle_oriented_sort(alg, letters, 1)
    if len(set(oriented)) != len(oriented):
        return {}
    for t in range(len(oriented) - 1):
        (i1, j1), (i2, j2) = oriented[t], oriented[t + 1]
        if j1 == j2:
            out = {}
            for repl, extra_sign in (
                ([(i1, i2), (i2, j1)], 1),
                ([(i1, j1), (i1, i2)], 1 if (alg.n + 1) % 2 == 0 else -1),
            ):
                sub = oracle_reduce_word(
                    alg, oriented[:t] + repl + oriented[t + 2:], coeff * sign * extra_sign
                )
                for k, v in sub.items():
                    vv = out.get(k, F(0)) + v
                    if vv:
                        out[k] = vv
                    else:
                        out.pop(k, None)
            return out
    return {tuple(oriented): coeff * sign}


def oracle_relation_row(alg, triple, mult, index):
    """{column: coeff}: the Arnold relation of the ordered triple (i, k, j)
    times the letters mult, over the words in index."""
    i, k, j = triple
    row = {}
    for term in ([(i, k), (k, j)], [(k, j), (j, i)], [(j, i), (i, k)]):
        sign, arr = _oracle_oriented_sort(alg, list(term) + list(mult), F(1))
        if len(set(arr)) != len(arr):
            continue
        key = tuple(arr)
        if key in index:
            row[index[key]] = row.get(index[key], F(0)) + sign
    return row


def oracle_rank_certificate(alg, length):
    """(square-free words - rank of Arnold relation multiples, normal forms)."""
    from itertools import combinations

    ambient = [alg.canonical_word(c) for c in combinations(alg.pairs, length)]
    index = {w: i for i, w in enumerate(ambient)}
    rel_rows = []
    triples = [
        (i, k, j) for i in alg.labels for k in alg.labels for j in alg.labels
        if len({i, k, j}) == 3
    ]
    multipliers = [()] if length == 2 else list(combinations(alg.pairs, length - 2))
    for triple in triples:
        for mult in multipliers:
            row = oracle_relation_row(alg, triple, mult, index)
            if row:
                rel_rows.append(row)
    mat = SparseMatrix(
        len(rel_rows),
        len(ambient),
        {(r, c): v for r, row in enumerate(rel_rows) for c, v in row.items() if v},
    )
    return len(ambient) - mat.rank(), len(alg.basis(length))


class OracleWeylMap:
    """m o exp(a) with a = sum_{i != j} d_t^{i,j} (x) a_{ij}.

    States are {arnold word: {tuple of B-monomials: coeff}}; the second
    partial operator acts with Koszul signs over the tensor factors and
    the Arnold letter is multiplied on the left of the accumulated word
    after passing the B-factors to its right.  The Arnold normal form is
    `oracle_reduce_word`'s.
    """

    def __init__(self, base: FreeCDGA, t_matrix, labels, n: int):
        self.base = base
        self.t = t_matrix  # dict (k, l) -> coefficient over generator indices
        self.labels = tuple(sorted(labels))
        self.arity = len(self.labels)
        self.arnold = ArnoldAlgebra(n, self.labels)
        self.n = n

    def _apply_partial(self, monos, slot, gen_index):
        """Left partial at one tensor slot; returns (sign, new monos) list."""
        alg = self.base
        target = Elem(alg, {monos[slot]: 1})
        img = alg.partial(alg.generators[gen_index].name, target)
        parity = alg.gen_degree(gen_index) % 2
        passed = sum(
            sum(alg.gen_degree(i) for i in monos[s]) for s in range(slot)
        )
        sign = -1 if (parity and passed % 2) else 1
        out = []
        for mono, c in img.terms.items():
            new = monos[:slot] + (mono,) + monos[slot + 1:]
            out.append((sign * c, new))
        return out

    def apply_a(self, state):
        """One application of a; slots are 0-based positions of labels.

        The operator carries the bivector normalisation 1/2 (the ordered
        sum over (i, j) and (j, i) double-counts), and the i-slot
        derivative acts first; this pins the arity-2 a_12 coefficient to
        the t-bracket itself.
        """
        out = {}
        for word, tensors in state.items():
            for monos, coeff in tensors.items():
                for (si, li), (sj, lj) in permutations(enumerate(self.labels), 2):
                    for (k, l), tv in self.t.items():
                        tv = tv * F(1, 2)
                        for c1, m1 in self._apply_partial(monos, si, k):
                            for c2, m2 in self._apply_partial(m1, sj, l):
                                # multiply a_{li lj} into the word; it
                                # passes the B-factors (degree D) first
                                d_total = sum(
                                    self.base.gen_degree(i) for mm in m2 for i in mm
                                )
                                s = -1 if (self.n % 2 and d_total % 2) else 1
                                for w2, cw in oracle_reduce_word(
                                    self.arnold, ((li, lj),) + word
                                ).items():
                                    _add(
                                        out.setdefault(w2, {}),
                                        m2,
                                        s * cw * tv * c1 * c2 * coeff,
                                    )
        return {w: t for w, t in out.items() if t}

    def structure_map(self, inputs):
        """inputs: list of Elems of B, one per label; returns
        {arnold word: Elem of B} after exp(a) then multiplication."""
        base_tensors = {}
        for combo in product(*(e.terms.items() for e in inputs)):
            monos = tuple(m for m, _ in combo)
            _add(base_tensors, monos, prod((c for _, c in combo), start=1))
        # exp(a): arnold words are nilpotent beyond arity-1 letters
        power = {(): base_tensors}
        total = dict(power)
        factorial = 1
        for m in range(1, self.arity * (self.arity - 1) + 1):
            power = self.apply_a(power)
            if not power:
                break
            factorial *= m
            for w, tensors in power.items():
                tgt = total.setdefault(w, {})
                for monos, c in tensors.items():
                    _add(tgt, monos, F(c) / factorial)
        # multiply the factors together
        out = {}
        for w, tensors in total.items():
            acc = self.base.zero()
            for monos, c in tensors.items():
                term = self.base.scalar(c)
                for mono in monos:
                    term = term * Elem(self.base, {mono: 1})
                acc = acc + term
            if not acc.is_zero():
                out[w] = acc
        return out


# ---------------------------------------------------------------------------
# Oracle for closed_form_classes: a fresh window per Hodge stage and fibre
# ---------------------------------------------------------------------------


def oracle_closed_form_classes(b, p, n, wmax, max_len):
    """(dimension, stage dims, fiber dims, representative components) with
    one window of weights p..top per stage and one of weight m+1 per fibre."""
    dr = de_rham(b)
    deg = n + p
    stage_dims = {}
    reps = []
    dim = 0
    for top in range(p, wmax + 1):
        window = Window(wmin=p, wmax=top, dmin=deg - 2, dmax=deg + 2, max_len=max_len)
        cx, _ = graded_mixed_window(dr.algebra, window)
        total = weight_window_total_complex(cx, p, top)
        h = total.homology(deg)
        stage_dims[top] = h.dimension
        if top == wmax:
            dim = h.dimension
            labels = total.basis.get(deg, [])
            for v in h.representatives:
                comps = {}
                for coeff, (w, mono) in zip(dense_vector(v, len(labels)), labels):
                    if coeff:
                        e = comps.get(w, dr.algebra.zero())
                        comps[w] = e + Elem(dr.algebra, {mono: coeff})
                reps.append(comps)
    fiber_dims = {}
    for m in range(p, wmax):
        window = Window(wmin=m + 1, wmax=m + 1, dmin=deg - 2, dmax=deg + 2, max_len=max_len)
        cx, _ = graded_mixed_window(dr.algebra, window)
        fiber_dims[m] = weight_window_total_complex(cx, m + 1, m + 1).homology_dim(deg)
    return dim, stage_dims, fiber_dims, reps


def oracle_check_cocycle(tower, wmax):
    """ClosedFormTower.check_cocycle as the sum of the components in Elem
    arithmetic, imaged by d and eps separately."""
    alg = tower.de_rham.algebra
    total = alg.zero()
    for e in tower.components.values():
        total = total + e
    image = alg.d(total) + alg.eps(total)
    return all(_mono_bidegree(alg, m)[0] > wmax for m in image.terms)


def oracle_h0_by_weight(dr, wmax, max_len):
    """The d-functor's realization H^0 sequence with a fresh window of
    weights 0..w for each w."""
    return {
        w: total_complex_window(dr.algebra, Window(0, w, -2, 2, max_len)).homology_dim(0)
        for w in range(0, wmax + 1)
    }


def oracle_d_functor_weight0(b, ideal_gens, max_len):
    """The d-functor's weight-0 table {m: dim H^m}, m = -2..0, from its own
    window: weight 0, degrees -3..1, on DR(K/B) for a relative Koszul
    algebra rebuilt with B's generators as base names."""
    k = koszul(b, ideal_gens).algebra
    rel = FreeCDGA(
        k.generators, base_names=[g.name for g in b.generators],
        differential={k.generators[i].name: v for i, v in k.differential.items()},
    )
    w0 = total_complex_window(de_rham(rel).algebra, Window(0, 0, -3, 1, max_len))
    return {m: w0.homology_dim(m) for m in range(-2, 1)}


# ---------------------------------------------------------------------------
# Fraction-only oracles for the int-first coefficients
# ---------------------------------------------------------------------------


def random_coefficient(rng):
    """A nonzero exact coefficient: an int, an integral Fraction, or a
    non-integer Fraction."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == 1:
        return F(rng.choice([-2, -1, 1, 2]))
    return F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3, 6]))


def oracle_word_product(alg, m1, m2):
    """(sign, word) of m1 * m2, bubble-sorting the concatenation with one
    sign per swap of two odd letters; None if an odd letter repeats."""
    odd = [alg.generators[i].degree % 2 == 1 for i in range(len(alg.generators))]
    word, sign = list(m1 + m2), 1
    for a in range(len(word)):
        for b in range(len(word) - 1 - a):
            if word[b] > word[b + 1]:
                if odd[word[b]] and odd[word[b + 1]]:
                    sign = -sign
                word[b], word[b + 1] = word[b + 1], word[b]
    odd_letters = [i for i in word if odd[i]]
    if len(set(odd_letters)) != len(odd_letters):
        return None
    return sign, tuple(word)


def _collect(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, F(0)) + F(c)
    return {k: c for k, c in out.items() if c}


def oracle_sum(x, y):
    """{key: Fraction} of two coefficient dicts added."""
    return _collect(list(x.items()) + list(y.items()))


def oracle_product(alg, x, y):
    """{word: Fraction} of the product of two term dicts of `alg`."""
    pairs = []
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            sw = oracle_word_product(alg, m1, m2)
            if sw is not None:
                pairs.append((sw[1], sw[0] * F(c1) * F(c2)))
    return _collect(pairs)


def oracle_derivation(alg, x, values, parity):
    """{word: Fraction} of the graded derivation of the given parity with
    generator values {gen index: term dict}, applied to the term dict x:
    prefix * value * suffix per letter."""
    pairs = []
    for mono, coeff in x.items():
        pre = 0
        for j, letter in enumerate(mono):
            if letter in values:
                sign = -1 if parity % 2 and pre % 2 else 1
                left = oracle_product(alg, {mono[:j]: sign * F(coeff)}, values[letter])
                pairs += oracle_product(alg, left, {mono[j + 1:]: F(1)}).items()
            pre += alg.generators[letter].degree
    return _collect(pairs)


def oracle_matmul(a, b):
    """{(i, j): Fraction} of the dense Fraction product of two SparseMatrix."""
    da, db = dense(a), dense(b)
    return _collect(
        ((i, j), sum((da[i][k] * db[k][j] for k in range(a.cols)), F(0)))
        for i in range(a.rows)
        for j in range(b.cols)
    )


def oracle_bracket(pol, p, q):
    """The Schouten bracket of Pol(B, n) by structural recursion on
    monomials: the routine that `polyvec.PolyvectorAlgebra.bracket`
    replaced.  Letters pair by [@g, g] = 1 and
    [g, @g] = -(-1)^{(|g|+n)(|@g|+n)}; a letter brackets a word by right
    Leibniz, and a longer word brackets a word by left Leibniz."""
    alg, n, n_base = pol.algebra, pol.shift, pol._n_base
    deg = alg.gen_degree

    def pair(a, b):
        if a >= n_base and b < n_base and a - n_base == b:
            return 1
        if b >= n_base and a < n_base and b - n_base == a:
            return 1 if (deg(a) + n) * (deg(b) + n) % 2 else -1
        return 0

    cache = {}

    def mono(m1, m2):
        key = (m1, m2)
        if key in cache:
            return cache[key]
        if not m1 or not m2:
            out = alg.zero()
        elif len(m1) == 1 and len(m2) == 1:
            out = alg.scalar(pair(m1[0], m2[0]))
        elif len(m1) == 1:
            v, w, rest = m1[0], m2[0], m2[1:]
            sign = -1 if ((deg(v) + n) * deg(w)) % 2 else 1
            out = mono(m1, (w,)) * Elem(alg, {rest: 1}) + (Elem(alg, {(w,): 1}) * mono(m1, rest)).scale(sign)
        else:
            v, rest = m1[0], m1[1:]
            deg_rest = sum(map(deg, rest))
            sign = -1 if (deg_rest * (sum(map(deg, m2)) + n)) % 2 else 1
            out = Elem(alg, {(v,): 1}) * mono(rest, m2) + (mono((v,), m2) * Elem(alg, {rest: 1})).scale(sign)
        cache[key] = out
        return out

    out = alg.zero()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            out = out + mono(m1, m2).scale(c1 * c2)
    return out


def oracle_nondegeneracy(pol, p0):
    """Non-degeneracy of p0 read through the bracket: the routine that
    `polyvec.nondegeneracy` replaced.  Theta[i][j] is the @g_j-coefficient
    of [q, g_i], q the constant part of p0, and each degree block (degree d
    rows against degree n - d columns, n = pol.shift - 1) must be square of
    full rank."""
    q = pol.constant_part(p0)
    gens = pol.base.generators
    m = len(gens)
    ent = {}
    for i, g in enumerate(gens):
        br = pol.bracket(q, pol.include(pol.base.gen(g.name)))
        for j in range(m):
            c = br.terms.get((pol._n_base + j,), 0)
            if c:
                ent[i, j] = c
    theta = SparseMatrix(m, m, ent)
    n = pol.shift - 1
    blocks = {}
    for d in sorted({g.degree for g in gens}):
        rows = [i for i, g in enumerate(gens) if g.degree == d]
        cols = [j for j, g in enumerate(gens) if g.degree == n - d]
        ent = [(a, b, theta.entry(i, j)) for a, i in enumerate(rows) for b, j in enumerate(cols)]
        blocks[d] = (len(rows), len(cols), SparseMatrix(len(rows), len(cols), ent).rank())
    return NondegeneracyReport(all(r == c == k for r, c, k in blocks.values()), theta, blocks)


def _oracle_phi_apply(result, e):
    """Multiplicative extension of the generator images of a PhiPiResult."""
    out = result.pol.algebra.zero()
    for mono, c in e.terms.items():
        term = result.pol.algebra.one()
        for letter in mono:
            term = term * result.images[result.de_rham.algebra.generators[letter].name]
        out = out + term.scale(c)
    return out


def oracle_phi_pi(base, pi, n, window=None):
    """`compare.phi_pi` imaging every window monomial one Elem product at a
    time and checking both chain-map identities on each monomial."""
    pol, _ = _strict_nondegenerate(base, pi, n)
    dr = de_rham(base)
    window = window or Window(0, 3, -8, 8, 4)
    images = {}
    for g in base.generators:
        images[g.name] = pol.include(base.gen(g.name))
        images["d" + g.name] = pol.bracket(pi, pol.include(base.gen(g.name)))
    result = PhiPiResult(pol, dr, images, True, {}, True)
    inside, dr_images = _closure(dr.algebra, window)
    chain_ok = True
    for (p, m), monos in _window_monomials(inside)[0].items():
        ent = []
        targets = {}
        for j, mono in enumerate(monos):
            phi_x = _oracle_phi_apply(result, Elem(dr.algebra, {mono: 1}))
            # a top-degree word has no stored images (see _closure)
            pair = dr_images.get(mono) or [_image(table, mono) for table in dr.algebra._tables]
            dx, ex = (Elem(dr.algebra, image) for image in pair)
            if (_oracle_phi_apply(result, dx) != pol.d(phi_x)
                    or _oracle_phi_apply(result, ex) != pol.bracket(pi, phi_x)):
                chain_ok = False
            ent += [(targets.setdefault(mm, len(targets)), j, c) for mm, c in phi_x.terms.items()]
        # bidegree-wise rank: images must stay independent
        rank = SparseMatrix(len(targets), len(monos), ent).rank()
        result.iso_blocks[p, m] = (len(monos), rank)
        if rank < len(monos):
            result.bidegree_iso = False
    result.chain_map_ok = chain_ok
    return result


def oracle_ad_on_sym2(g, x, t):
    """ad_x(t) for t symmetric as {(i<=j): Fraction}, on the dense n x n
    matrix T of t: C T + T C^T with C[a][m] = c[x][m][a], folded back."""
    n = g.dim
    full = [[F(0)] * n for _ in range(n)]
    for (i, j), c in t.items():
        full[i][j] += c
        if i != j:
            full[j][i] += c
    out = {}
    for i in range(n):
        for j in range(i, n):
            s = sum(
                (g.c[x][m][i] * full[m][j] + g.c[x][m][j] * full[i][m] for m in range(n)), F(0)
            )
            if s:
                out[i, j] = s
    return out


def oracle_sparse_ad_on_sym2(g, x, t):
    """Coefficients of ad_x(t) for t symmetric: {(i<=j): c}, the
    hand-written action that `lieinfty.invariants` replaced.

    On the full symmetric matrix T of t this is P + P^T with P = C T and
    C[a][m] = c[x][m][a]; P is summed over the nonzero entries of T and
    of the structure constants only, and the pair (a, b) of P folds onto
    the unordered key, twice on the diagonal.
    """
    out = {}
    for (i, j), v in t.items():
        for m, b in ((i, j), (j, i)) if i != j else ((i, j),):
            for a, coeff in enumerate(g.c[x][m]):
                if not coeff:
                    continue
                key = (a, b) if a <= b else (b, a)
                w = coeff * v
                out[key] = out.get(key, 0) + (2 * w if a == b else w)
    return {k: v for k, v in out.items() if v}


def _oracle_wedge_sort(idx):
    """Sort a wedge index tuple; returns (sign, tuple) or None on repeat."""
    idx = list(idx)
    sign = 1
    for a in range(len(idx)):
        for b in range(len(idx) - 1 - a):
            if idx[b] > idx[b + 1]:
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
                sign = -sign
    if len(set(idx)) != len(idx):
        return None
    return sign, tuple(idx)


def oracle_ad_on_wedge3(g, x, t):
    """ad_x(t) for t in wedge^3 g as {(i<j<k): c}, slot by slot with a
    bubble-sort sign: the action that `lieinfty.invariants` replaced."""
    out = {}
    for (i, j, k), c in t.items():
        for slot, orig in enumerate((i, j, k)):
            for m in range(g.dim):
                coeff = g.c[x][orig][m]
                if not coeff:
                    continue
                idx = [i, j, k]
                idx[slot] = m
                ws = _oracle_wedge_sort(idx)
                if ws is None:
                    continue
                sign, key = ws
                out[key] = out.get(key, 0) + sign * coeff * c
    return {k: v for k, v in out.items() if v}


def oracle_invariants(g, kind):
    """The kernel of the hand-written actions above, on the keys
    (i <= j) or (i < j < k) in lexicographic order."""
    if kind == "sym2":
        basis = [(i, j) for i in range(g.dim) for j in range(i, g.dim)]
        act = oracle_sparse_ad_on_sym2
    else:
        basis = list(combinations(range(g.dim), 3))
        act = oracle_ad_on_wedge3
    index = {b: i for i, b in enumerate(basis)}
    ent = {}
    for x in range(g.dim):
        for j, b in enumerate(basis):
            for key, v in act(g, x, {b: 1}).items():
                ent[x * len(basis) + index[key], j] = v
    mat = SparseMatrix(g.dim * len(basis), len(basis), ent)
    return [InvariantTensor(kind, {basis[i]: c for i, c in vec.items()}) for vec in kernel_basis(mat)]


def oracle_is_invariant(g, tensor):
    act = oracle_sparse_ad_on_sym2 if tensor.kind == "sym2" else oracle_ad_on_wedge3
    return all(not act(g, x, tensor.coeffs) for x in range(g.dim))


def oracle_z_from_t(g, t):
    """The wedge^3 coefficients of Z = [t^{12}, t^{23}]: the dense loop over
    all n^5 index tuples, then the 1/6 antisymmetrizing projector."""
    n = g.dim

    def tt(i, j):
        return t.coeffs.get((i, j) if i <= j else (j, i), 0)

    raw = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for m in range(n):
                        coeff = tt(a, b) * tt(c, d) * g.c[b][c][m]
                        if coeff:
                            raw[a, m, d] = raw.get((a, m, d), 0) + coeff
    coeffs = {}
    for key in combinations(range(n), 3):
        total = sum(
            (1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1) * raw.get(tuple(key[p] for p in perm), 0)
            for perm in permutations(range(3))
        )
        if total:
            coeffs[key] = F(total, 6)
    return coeffs


def poincare_window_dims(gens, size):
    """homology_dims() of the total complex of the de Rham window of the
    free algebra on gens = [(degree, weight)] with zero differential, for
    wmin = 0, wmax = dmax = max_len = size and dmin = -size.

    DR(B) is free on the letters g and dg, and the window only carries the
    de Rham differential, which keeps the word length l and c = weight -
    degree.  On l >= 1 each strand (l, c) is exact (Poincare lemma: the
    Euler contraction h has eps h + h eps = l), so the window's piece of a
    strand, weights lo..hi, has cohomology at its two ends only, read off
    the monomial counts by rank-nullity.
    """
    counts = {(0, 0, 0): 1}  # (length, weight, degree) -> number of words
    for degree, weight in gens:
        for deg, wt in ((degree, weight), (degree + 1, weight + 1)):
            cap = 1 if deg % 2 else size
            grown = {}
            for (length, w, m), n in counts.items():
                for e in range(min(cap, size - length) + 1):
                    key = (length + e, w + e * wt, m + e * deg)
                    grown[key] = grown.get(key, 0) + n
            counts = grown
    strands = {}
    for (length, w, m), n in counts.items():
        strands.setdefault((length, w - m), {})[w] = n
    degrees = [m for (_, w, m) in counts if 0 <= w <= size and -size <= m <= size]
    dims = {m: 0 for m in range(min(degrees), max(degrees) + 1)}
    for (length, c), by_weight in strands.items():
        lo, hi = max(0, c - size), min(size, size + c)
        for m in dims:
            w = m + c
            if not lo <= w <= hi:
                continue
            if length == 0 or lo == hi:
                dims[m] += by_weight.get(w, 0)
                continue
            if w == lo:
                dims[m] += by_weight.get(w, 0) - _rank_out(by_weight, w)
            elif w == hi:
                dims[m] += by_weight.get(w, 0) - _rank_out(by_weight, w - 1)
    return dims


def _rank_out(by_weight, x):
    """Rank of eps out of weight x along an exact strand with the given
    number of words per weight."""
    return sum((-1) ** (x - j) * by_weight.get(j, 0) for j in range(min(by_weight), x + 1))


# ---------------------------------------------------------------------------
# Front-end oracles: the report writer and the tokenizer
# ---------------------------------------------------------------------------


def oracle_report_json(payload):
    """A `--json` report as json.dumps writes it."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# a token, a newline, or blanks and comments (no group)
_ORACLE_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*|(?P<number>\d+)|(?P<name>[^\W\d]\w*)"
    r"|(?P<punct>[{}()\[\]=;,*+\-^@/])"
)


def oracle_tokenize(source):
    """(kind, text, line, col) tuples, one `match` at each position; no
    match is an unexpected character."""
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        m = _ORACLE_TOKEN.match(source, pos)
        col = pos - line_start + 1
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col, expected=("token",))
        if m.lastgroup == "number" and len(m.group()) > _MAX_DIGITS:
            raise ParseError("number too long", line, col, expected=(f"at most {_MAX_DIGITS} digits",))
        if m.lastgroup == "newline":
            line, line_start = line + 1, m.end()
        elif m.lastgroup:
            kind = m.group() if m.lastgroup == "punct" else m.lastgroup
            tokens.append((kind, m.group(), line, col))
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# The @dataclass and NamedTuple records that the plain record classes
# replaced: the fields, defaults, flags, __post_init__ and custom reprs as
# they were, without the other methods
# ---------------------------------------------------------------------------


class OracleDsl:
    @dataclass(frozen=True)
    class Num:
        value: Rat

    @dataclass(frozen=True)
    class Name:
        ident: str

    @dataclass(frozen=True)
    class Dual:
        ident: str

    @dataclass(frozen=True)
    class Pow:
        base: object
        exponent: int

    @dataclass(frozen=True)
    class Mul:
        factors: tuple

    @dataclass(frozen=True)
    class Neg:
        arg: object

    @dataclass(frozen=True)
    class Add:
        terms: tuple

    @dataclass(frozen=True)
    class Call:
        ident: str
        args: tuple  # of Rat

    @dataclass(frozen=True)
    class Items:
        items: tuple

    @dataclass
    class Block:
        kind: str
        name: str
        entries: list  # of (key tuple, expr AST); key = (base, *qualifiers)
        line: int = field(default=0, compare=False)
        col: int = field(default=0, compare=False)
        at: list = field(default_factory=list, repr=False, compare=False)  # (line, col) of each key
        # SCHEMA shape -> checked value, set by parse
        values: dict = field(default_factory=dict, repr=False, compare=False)

    @dataclass
    class Manifest:
        blocks: list  # equal manifests have equal kinds, names and entries

    class Key(NamedTuple):
        check: Callable  # (expr, key, values of the keys above, blocks) -> what builders read
        required: bool = False
        default: object = None  # of a plain key; a pattern key defaults to {}
        first: int = 0  # of a p<i> key, written as the run p<first>, p<first+1>, .. with no gap


class OracleFreecdga:
    @dataclass(frozen=True)
    class Generator:
        name: str
        degree: int
        weight: int = 0

    @dataclass
    class Window:
        wmin: int = 0
        wmax: int = 6
        dmin: int = -8
        dmax: int = 8
        max_len: int = 6

    @dataclass
    class DeRhamAlgebra:
        base: FreeCDGA
        algebra: FreeCDGA
        symbols: tuple

    @dataclass
    class ClosedFormTower:
        de_rham: DeRhamAlgebra
        p: int
        n: int
        components: dict  # weight -> Elem
        images: dict = field(default=None, repr=False, compare=False)  # word -> (d, eps) image

    @dataclass
    class ClosedFormReport:
        dimension: int
        representatives: list  # of ClosedFormTower
        stage_dims: dict  # m -> dim at Hodge stage weights p..m
        fiber_dims: dict  # m -> dim of the weight-(m+1) fiber term

    @dataclass
    class KoszulComplex:
        base: FreeCDGA
        algebra: FreeCDGA
        odd_gens: tuple
        relations: tuple  # the f_i^{n_i} as base elements

    @dataclass
    class CotangentTowerReport:
        stages: int
        transition_matrices: list  # entries are base Elems, stage n+1 -> stage n
        raw_nonzero: bool
        zero_after_base_change: bool

    @dataclass
    class DFunctorResult:
        koszul: KoszulComplex
        de_rham: DeRhamAlgebra
        weight0_h0_dims: dict
        realization_h0_dims: dict  # wmax -> dim of H^0 in the window


class OraclePolyvec:
    @dataclass
    class StrictPoissonReport:
        valid: bool
        d_pi: Elem
        self_bracket: Elem
        pol: PolyvectorAlgebra
        pi: Elem

        def __repr__(self):
            return f"StrictPoissonReport(valid={self.valid})"

    @dataclass
    class MaurerCartanTower:
        pol: PolyvectorAlgebra
        n: int
        components: list  # of Elem
        bound: int = None

        def __post_init__(self):
            if self.bound is None:
                self.bound = len(self.components) + 1
            for i, p in enumerate(self.components):
                if p.is_zero():
                    continue
                if p.weight() != i + 2 or p.degree() != self.n + 2:
                    raise BidegreeError(
                        f"p_{i} must have weight {i + 2} and degree {self.n + 2}"
                    )

    @dataclass
    class MCReport:
        valid: bool
        first_failure: int = None
        residual: Elem = None

        def __repr__(self):
            if self.valid:
                return "MCReport(valid)"
            return f"MCReport(fails at i={self.first_failure})"

    @dataclass
    class NondegeneracyReport:
        nondegenerate: bool
        theta: SparseMatrix  # generator-indexed pairing matrix
        blocks: dict  # degree -> (rows, cols, rank)


class OracleCompare:
    @dataclass
    class SymplecticForm:
        de_rham: DeRhamAlgebra
        n: int
        omega: Elem
        theta: SparseMatrix

    @dataclass
    class PhiPiResult:
        pol: PolyvectorAlgebra
        de_rham: DeRhamAlgebra
        images: dict  # generator/symbol name -> Elem of the polyvector algebra
        chain_map_ok: bool
        iso_blocks: dict  # (weight, degree) -> (dim, rank)
        bidegree_iso: bool

    @dataclass
    class StrictificationResult:
        eta: Elem  # weight-1 potential: strict form = eps(eta)
        strict_form: Elem
        gauge: Elem  # h with omega - strict = (d + eps) h in the window
        window: Window

    @dataclass
    class DarbouxReport:
        q: Elem
        residual: list  # components of pi' = tower - q
        q_closed: bool
        q_self_bracket_zero: bool
        rewritten_mc_ok: bool


class OracleLieinfty:
    @dataclass
    class LieReport:
        violations: list

    @dataclass
    class InvariantTensor:
        kind: str  # "sym2" or "wedge3"
        coeffs: dict  # sym2: {(i<=j): c}; wedge3: {(i<j<k): c}

    @dataclass
    class SemiStrictReport:
        valid: bool
        invariant: bool
        closed: bool
        mc: object


class OracleOperads:
    @dataclass
    class MultilinearSpace:
        operad: str
        labels: tuple
        basis: list
        bigrading: dict  # basis element -> (degree, weight)

    @dataclass
    class ReesOperad:
        labels: tuple
        space: BD1Space
        basis: list

    @dataclass
    class BD0Report:
        d_bracket_zero: bool
        d_product_is_hbar_bracket: bool
        d_squared_zero_on_words: bool
        derivation_respects_relations: bool


class OracleCli:
    class _Command(NamedTuple):
        handler: Callable
        manifest: bool = True  # reads a manifest file (or stdin)
        options: tuple = ()  # (flags, add_argument keywords) after the common options
        limits: tuple = ()  # the dests of the window options the handler reads


def _oracle_records():
    """[(spw module name, oracle class)]; each class is renamed to its bare
    name, so that its repr names it as spw's does."""
    out = []
    for module, namespace in (
        ("dsl", OracleDsl), ("freecdga", OracleFreecdga), ("polyvec", OraclePolyvec),
        ("compare", OracleCompare), ("lieinfty", OracleLieinfty), ("operads", OracleOperads),
        ("cli", OracleCli),
    ):
        for cls in vars(namespace).values():
            if isinstance(cls, type):
                cls.__qualname__ = cls.__name__
                out.append((module, cls))
    return out


ORACLE_RECORDS = _oracle_records()


# ---------------------------------------------------------------------------
# Readers that only tests call
# ---------------------------------------------------------------------------


def d_block(cx, m):
    """The differential of the ChainComplex cx out of degree m; a zero
    matrix where cx has none."""
    return cx.diff.get(m, SparseMatrix.zero(cx.dim(m + 1), cx.dim(m)))


def module_degrees(module):
    """The sorted degrees of a BiGradedModule's support."""
    return sorted({m for _, m in module.basis})


def basis_dims(pol, max_weight, max_len):
    """{(weight, degree): number of words} of the polyvector algebra pol
    in weights 0..max_weight, words of length <= max_len."""
    dims = {}
    for bideg in _box_words(pol.algebra, max_len, wmax=max_weight).values():
        dims[bideg] = dims.get(bideg, 0) + 1
    return dims


def monomial(alg, names, coeff=1):
    """coeff times the product of the named generators of alg, in order."""
    e = alg.scalar(coeff)
    for n in names:
        e = e * alg.gen(n)
    return e


def underlying_form(tower):
    """The weight-p component of a ClosedFormTower, zero if it has none."""
    return tower.components.get(tower.p, tower.de_rham.algebra.zero())


def is_strict(tower):
    """Whether every component of a ClosedFormTower but the weight-p one is zero."""
    return all(e.is_zero() for w, e in tower.components.items() if w != tower.p)


def block_entry(block, key):
    """The expression of the first entry of a manifest block under key,
    or None."""
    return next((v for k, v in block.entries if k == key), None)


def arnold_mul(alg, e1, e2):
    """The product of two linear combinations of words of an ArnoldAlgebra."""
    return _bilinear(e1, e2, lambda w1, w2: alg.reduce_word(w1 + w2))


# ---------------------------------------------------------------------------
# A per-case time limit
# ---------------------------------------------------------------------------


class CaseTimeout(BaseException):
    """Raised by `time_limit`; a BaseException, so no handler in spw can
    swallow it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise CaseTimeout inside the block once `seconds` of wall time have
    passed (SIGALRM; main thread only)."""

    def expire(signum, frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
