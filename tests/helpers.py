"""Shared random generators for tests: valid complexes, algebras, matrices,
the dense Bareiss elimination kept only as an oracle for `exactlin`, and the
dense-scan window and total-complex assembly kept only as oracles for
`freecdga.graded_mixed_window` and `gradedmixed.weight_window_total_complex`."""

import random
from fractions import Fraction as F
from math import gcd

from spw.exactlin import SparseMatrix
from spw.freecdga import Elem, _mono_bidegree, window_basis
from spw.gradedmixed import (
    BiGradedModule,
    ChainComplex,
    GradedMixedComplex,
    cell_model,
    shift,
    tensor,
)


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
    return SparseMatrix.from_rows(s), SparseMatrix.from_rows(sinv)


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


def random_tensor_pair(rng):
    e = random_valid_complex(rng, 0, 2, pieces=2)
    f = random_valid_complex(rng, 0, 2, pieces=2)
    return e, f, tensor(e, f)


def random_valid_cdga(rng, max_gens=4, degree_span=(-3, 3)):
    """Random free cdga with d^2 = 0 by construction.

    Differentials are combinations of monomials in d-closed generators,
    so squaring to zero is automatic while staying nontrivial.
    """
    from spw.freecdga import FreeCDGA, enumerate_monomials

    n = rng.randint(1, max_gens)
    gens = [(f"g{i+1}", rng.randint(*degree_span)) for i in range(n)]
    alg = FreeCDGA(gens)
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
    alg.set_differential(d_vals)
    return alg


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
        return oracle_rank_and_pivots(SparseMatrix.from_columns(cols, rows=n))[0] if cols else 0

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
        basis[m].sort(key=lambda t: (t[0], str(t[1])))
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
    cx = ChainComplex(basis, diff)
    cx.validate()
    return cx


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
