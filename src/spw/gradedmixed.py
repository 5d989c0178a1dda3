"""Graded mixed complexes over Q with explicit finite bases.

A graded mixed complex is a finitely supported family E(p)^m of
Q-vector spaces (p = weight, m = cohomological degree) with

    d   : E(p)^m -> E(p)^{m+1}      d^2 = 0
    eps : E(p)^m -> E(p+1)^{m+1}    eps^2 = 0,  d eps + eps d = 0

so the total differential d + eps squares to zero.  Conventions fixed
here once and used everywhere:

* the degree shift E[n] multiplies d by (-1)^n and leaves eps alone;
* the weight shift E((q)) moves weight p to p - q and touches no signs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from . import exactlin
from .errors import BidegreeMismatch, CompositionNonzero, IdentityViolated
from .exactlin import SparseMatrix, kernel_basis, solve_linear


class BiGradedModule:
    """Finitely supported weight x degree module with named basis."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        # basis: {(p, m): [label, ...]}; empty lists dropped
        self.basis = {
            (int(p), int(m)): list(labels)
            for (p, m), labels in basis.items()
            if labels
        }

    def dim(self, p, m) -> int:
        return len(self.basis.get((p, m), ()))

    def labels(self, p, m):
        return self.basis.get((p, m), [])

    def support(self):
        return sorted(self.basis)


class GradedMixedComplex:
    """BiGradedModule plus d and eps stored as per-bidegree blocks.

    Block convention: d[(p, m)] maps E(p)^m -> E(p)^{m+1} columnwise,
    eps[(p, m)] maps E(p)^m -> E(p+1)^{m+1}.  Missing blocks are zero.
    """

    __slots__ = ("module", "d", "eps")

    def __init__(self, module: BiGradedModule, d=None, eps=None):
        self.module = module
        self.d = {}
        self.eps = {}
        for (p, m), mat in (d or {}).items():
            if mat.is_zero():
                continue
            want = (module.dim(p, m + 1), module.dim(p, m))
            if (mat.rows, mat.cols) != want:
                raise BidegreeMismatch(
                    f"d block at (w={p}, deg={m}) is {mat.rows}x{mat.cols}, "
                    f"expected {want[0]}x{want[1]}"
                )
            self.d[p, m] = mat
        for (p, m), mat in (eps or {}).items():
            if mat.is_zero():
                continue
            want = (module.dim(p + 1, m + 1), module.dim(p, m))
            if (mat.rows, mat.cols) != want:
                raise BidegreeMismatch(
                    f"eps block at (w={p}, deg={m}) is {mat.rows}x{mat.cols}, "
                    f"expected {want[0]}x{want[1]}"
                )
            self.eps[p, m] = mat

    @classmethod
    def from_maps(cls, module: BiGradedModule, d_map=None, eps_map=None):
        """Build from per-basis-label maps {src: [(coeff, tgt), ...]}.

        Labels must be unique across the module.  A target off the
        declared bidegree (same weight, degree+1 for d; weight+1,
        degree+1 for eps) raises BidegreeMismatch naming the source.
        """
        where = {}
        for (p, m), labels in module.basis.items():
            for i, lab in enumerate(labels):
                if lab in where:
                    raise ValueError(f"duplicate basis label {lab!r}")
                where[lab] = (p, m, i)

        def _blocks(mapping, d_weight):
            ent = {}
            for src, terms in (mapping or {}).items():
                p, m, i = where[src]
                want = (p + d_weight, m + 1)
                for coeff, tgt in terms:
                    if tgt not in where:
                        raise BidegreeMismatch(f"unknown target {tgt!r} for {src!r}")
                    tp, tm, ti = where[tgt]
                    if (tp, tm) != want:
                        raise BidegreeMismatch(
                            f"map sends {src!r} at (w={p}, deg={m}) to {tgt!r} "
                            f"at (w={tp}, deg={tm}); expected (w={want[0]}, deg={want[1]})"
                        )
                    key = (p, m)
                    ent.setdefault(key, {})[ti, i] = ent.get(key, {}).get((ti, i), 0) + coeff
            return {
                key: SparseMatrix(
                    module.dim(key[0] + d_weight, key[1] + 1), module.dim(*key), vals
                )
                for key, vals in ent.items()
            }

        return cls(module, _blocks(d_map, 0), _blocks(eps_map, 1))

    def d_block(self, p, m) -> SparseMatrix:
        blk = self.d.get((p, m))
        if blk is None:
            blk = SparseMatrix.zero(self.module.dim(p, m + 1), self.module.dim(p, m))
        return blk

    def eps_block(self, p, m) -> SparseMatrix:
        blk = self.eps.get((p, m))
        if blk is None:
            blk = SparseMatrix.zero(self.module.dim(p + 1, m + 1), self.module.dim(p, m))
        return blk


class MixedReport:
    """Outcome of validate_mixed: list of identity violations with witnesses."""

    __slots__ = ("violations",)

    def __init__(self, violations):
        self.violations = violations

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_mixed(e: GradedMixedComplex) -> MixedReport:
    """Check d^2 = 0, eps^2 = 0 and d eps + eps d = 0 blockwise.

    Each violation records (identity, (weight, degree), witness label).
    A missing block is zero, so no product with one is formed.
    """
    violations = []
    d, eps = e.d, e.eps

    def _product(a, b):
        return None if a is None or b is None else a @ b

    def _report(name, p, m, mat):
        if mat is None or mat.is_zero():
            return
        labels = e.module.labels(p, m)
        for j in sorted({j for (_, j), _ in mat.items()}):
            violations.append((name, (p, m), labels[j]))

    for (p, m) in e.module.support():
        d_pm, eps_pm = d.get((p, m)), eps.get((p, m))
        _report("d^2", p, m, _product(d.get((p, m + 1)), d_pm))
        _report("eps^2", p, m, _product(eps.get((p + 1, m + 1)), eps_pm))
        de = _product(d.get((p + 1, m + 1)), eps_pm)
        ed = _product(eps.get((p, m + 1)), d_pm)
        _report("d eps + eps d", p, m, ed if de is None else de if ed is None else de + ed)
    return MixedReport(violations)


def unit_complex(weight=0, degree=0, label="1") -> GradedMixedComplex:
    """k placed in a single bidegree with zero maps."""
    return GradedMixedComplex(BiGradedModule({(weight, degree): [label]}))


def cell_model(m: int) -> GradedMixedComplex:
    """Truncated cell resolution of k: generators x_0..x_m, y_0..y_m.

    x_n has (weight n, degree 0), y_n has (weight n+1, degree 1), with
    d(x_n) = y_{n-1} (y_{-1} = 0) and eps(x_n) = y_n.
    """
    if m < -1:
        raise ValueError("truncation must be >= -1")
    basis = {}
    for n in range(m + 1):
        basis.setdefault((n, 0), []).append(f"x{n}")
        basis.setdefault((n + 1, 1), []).append(f"y{n}")
    mod = BiGradedModule(basis)
    d_map = {f"x{n}": [(1, f"y{n-1}")] for n in range(1, m + 1)}
    eps_map = {f"x{n}": [(1, f"y{n}")] for n in range(m + 1)}
    return GradedMixedComplex.from_maps(mod, d_map, eps_map)


def shift(e: GradedMixedComplex, n: int, q: int) -> GradedMixedComplex:
    """E[n]((q)): basis (p, m) moves to (p - q, m - n); d gets (-1)^n."""
    basis = {
        (p - q, m - n): list(labels) for (p, m), labels in e.module.basis.items()
    }
    mod = BiGradedModule(basis)
    sign = -1 if n % 2 else 1
    d = {
        (p - q, m - n): (mat.scale(sign)) for (p, m), mat in e.d.items()
    }
    eps = {(p - q, m - n): mat for (p, m), mat in e.eps.items()}
    return GradedMixedComplex(mod, d, eps)


# ---------------------------------------------------------------------------
# chain complexes and realizations
# ---------------------------------------------------------------------------


class ChainComplex:
    """Degreewise labelled complex with differential blocks deg -> deg+1.

    d^2 = 0 is checked exactly in every degree when the complex is built;
    a nonzero d(m+1) d(m) raises CompositionNonzero.
    """

    __slots__ = ("basis", "diff")

    def __init__(self, basis, diff):
        self.basis = {int(m): list(lab) for m, lab in basis.items() if lab}
        self.diff = {}
        for m, mat in diff.items():
            if mat.is_zero():
                continue
            want = (len(self.basis.get(m + 1, ())), len(self.basis.get(m, ())))
            if (mat.rows, mat.cols) != want:
                raise BidegreeMismatch(f"differential block at degree {m} has wrong shape")
            self.diff[m] = mat
        for m in sorted(self.diff):
            if m + 1 in self.diff and not (self.diff[m + 1] @ self.diff[m]).is_zero():
                raise CompositionNonzero(f"d^2 != 0 at degree {m}")

    def dim(self, m):
        return len(self.basis.get(m, ()))

    def degrees(self):
        return sorted(self.basis)

    def homology(self, m) -> exactlin.HomologyResult:
        """H^m with representatives; a missing differential is zero and is
        neither built nor eliminated: without d(m) every vector of degree m
        is a cycle, and without d(m-1) there is no image.  d(m) d(m-1) = 0
        was checked when the complex was built, so it is not formed again."""
        d_in, d_out = self.diff.get(m - 1), self.diff.get(m)
        cycles = kernel_basis(d_out) if d_out is not None else [{f: 1} for f in range(self.dim(m))]
        return exactlin._cycles_mod_image(cycles, d_in)

    def homology_dim(self, m) -> int:
        """dim H^m by rank-nullity; a missing differential has rank 0 and
        is not eliminated."""
        dim = self.dim(m)
        for blk in (self.diff.get(m - 1), self.diff.get(m)):
            if blk is not None:
                dim -= blk.rank()
        return dim

    def homology_dims(self, degrees=None):
        if degrees is None:
            ds = self.degrees()
            degrees = range(min(ds), max(ds) + 1) if ds else range(0)
        return {m: self.homology_dim(m) for m in degrees}


def tate_realization(e: GradedMixedComplex, stage: int, wmax: int):
    """Stage-`stage` Tate realization: weights -stage..wmax, plus comparison.

    Returns (complex, comparison) where comparison maps the total complex
    of weights 0..wmax into the stage complex degreewise (a subcomplex
    inclusion, since the total differential never lowers the weight): the
    labels of weight >= 0 are the tail of each degree of the stage complex.
    """
    if stage < 0:
        raise ValueError("stage must be >= 0")
    full = weight_window_total_complex(e, -stage, wmax)
    comparison = {}
    for m in full.degrees():
        labels = full.basis[m]
        off = sum(1 for p, _ in labels if p < 0)
        k = len(labels) - off
        if k:
            comparison[m] = SparseMatrix(len(labels), k, [(off + j, j, 1) for j in range(k)])
    return full, comparison


def weight_window_total_complex(e: GradedMixedComplex, wmin: int, wmax: int) -> ChainComplex:
    """Total complex of the weights wmin..wmax with differential d + eps.

    Weights below wmin are cut (a subcomplex is removed: legitimate since
    d + eps never lowers weight); weights above wmax are projected away (a
    quotient complex).  With wmin = 0 this is the finite truncation of the
    product realization, exact for E supported in weights [0, wmax].
    Degree m is the labels (p, label) of E(p)^m, p ascending, each weight
    in the module's label order.
    """
    basis = {}
    at = {}  # (p, m) -> offset of E(p)^m in degree m
    for p, m in e.module.support():
        if wmin <= p <= wmax:
            cell = basis.setdefault(m, [])
            at[p, m] = len(cell)
            cell.extend((p, lab) for lab in e.module.labels(p, m))
    ent = {}
    for blocks, dw in ((e.d, 0), (e.eps, 1)):
        for (p, m), blk in blocks.items():
            src, tgt = at.get((p, m)), at.get((p + dw, m + 1))
            if src is not None and tgt is not None:
                out = ent.setdefault(m, {})
                for (i, j), v in blk.items():
                    out[tgt + i, src + j] = v
    # the blocks' entries are checked already, and land in distinct cells
    return ChainComplex(
        basis, {m: SparseMatrix._owned(len(basis[m + 1]), len(basis[m]), vals) for m, vals in ent.items()}
    )


def stage_homology_dims(e: GradedMixedComplex, wmin: int, wmax: int, deg: int):
    """The total complex of weights wmin..wmax, and {t: dim H^deg of
    weight_window_total_complex(e, wmin, t)} for every stage t = wmin..wmax.

    Degree m of stage t is the leading labels of degree m of the top
    stage, those of weight <= t.  Since d + eps never lowers weight, the
    rows of weight <= t of a top differential D are zero outside those
    columns, so stage t's differential has the rank of the leading rows
    of D: the number of pivot columns of D's transpose left of the row
    count.  One elimination of each transposed differential serves every
    stage; the top stage is checked against rank-nullity on the
    untransposed differentials, and a mismatch raises IdentityViolated.
    """
    total = weight_window_total_complex(e, wmin, wmax)
    stages = range(wmin, wmax + 1)

    def leading(m):
        # leading(m)[k]: the number of labels of degree m of weight <= stages[k]
        weights = [p for p, _ in total.basis.get(m, ())]
        return [bisect_right(weights, t) for t in stages]

    def pivots(m):
        # a missing differential has no pivots
        blk = total.diff.get(m)
        return () if blk is None else blk.transpose().pivot_columns()

    here, above = leading(deg), leading(deg + 1)
    out_pivots, in_pivots = pivots(deg), pivots(deg - 1)
    dims = {
        t: n - bisect_left(out_pivots, n_above) - bisect_left(in_pivots, n)
        for t, n, n_above in zip(stages, here, above)
    }
    if dims:
        top = total.homology_dim(deg)
        if dims[wmax] != top:
            raise IdentityViolated(
                f"stage_homology_dims: top stage reads {dims[wmax]}, rank-nullity {top} at degree {deg}"
            )
    return total, dims


# ---------------------------------------------------------------------------
# enriched hom and the realization oracle
# ---------------------------------------------------------------------------


def enriched_hom(e: GradedMixedComplex, f: GradedMixedComplex, weights=(0, 1, 2)) -> GradedMixedComplex:
    """Weight-windowed enriched hom graded mixed complex.

    Hom(p)^n has basis the single-component maps  E(q)^mu -> F(q+p)^{mu+n};
    hom differential  delta(u) = d_F u - (-1)^n u d_E  and mixed map
    eps(u) = eps_F u - (-1)^n u eps_E.
    """
    weights = sorted(weights)
    basis = {}
    at = {}  # (s, t) -> offset of the maps E(s) -> F(t), by (a, b)
    for p in weights:
        for s in e.module.support():
            for t in f.module.support():
                if t[0] != s[0] + p:
                    continue
                cell = basis.setdefault((p, t[1] - s[1]), [])
                at[s, t] = len(cell)
                cell.extend(
                    (*s, a, b) for a in e.module.labels(*s) for b in f.module.labels(*t)
                )
    mod = BiGradedModule(basis)

    def _assemble(e_blocks, f_blocks, dw):
        ent = {}
        for (s, t), col0 in at.items():
            p, n = t[0] - s[0], t[1] - s[1]
            if p + dw not in weights:
                continue
            out = ent.setdefault((p, n), {})
            ns, nt = e.module.dim(*s), f.module.dim(*t)
            # D_F u: E(s) -> F(t) -> F(t2)
            t2 = (t[0] + dw, t[1] + 1)
            if t in f_blocks:
                row0, nt2 = at[s, t2], f.module.dim(*t2)
                for (i, ib), v in f_blocks[t].items():
                    for ia in range(ns):
                        out[row0 + ia * nt2 + i, col0 + ia * nt + ib] = v
            # - (-1)^n u D_E: E(s2) -> E(s) -> F(t)
            s2 = (s[0] - dw, s[1] - 1)
            if s2 in e_blocks:
                row0 = at[s2, t]
                sign = -1 if n % 2 else 1
                for (ia, i), v in e_blocks[s2].items():
                    for ib in range(nt):
                        out[row0 + i * nt + ib, col0 + ia * nt + ib] = -sign * v
        return {
            (p, n): SparseMatrix(mod.dim(p + dw, n + 1), mod.dim(p, n), vals)
            for (p, n), vals in ent.items()
            if vals
        }

    return GradedMixedComplex(mod, _assemble(e.d, f.d, 0), _assemble(e.eps, f.eps, 1))


def dg_hom_complex(e: GradedMixedComplex, f: GradedMixedComplex) -> ChainComplex:
    """The dg-hom  Z_eps(Hom^gr(E, F)(0)): eps-closed weight-0 maps.

    Basis per degree: a kernel basis of the mixed map on weight-0 homs,
    as the columns of K[n]; the differential in degree n is the solution
    of K[n+1] x = d K[n].
    """
    hom = enriched_hom(e, f, weights=(0, 1))
    degrees = sorted({n for (p, n) in hom.module.basis if p == 0})
    kernels = {}
    for n in degrees:
        eps_blk = hom.eps_block(0, n)
        ker = kernel_basis(eps_blk)
        kernels[n] = SparseMatrix(
            eps_blk.cols, len(ker), [(i, t, x) for t, v in enumerate(ker) for i, x in v.items()]
        )
    basis = {n: [f"z{n}_{i}" for i in range(kernels[n].cols)] for n in degrees}
    # d preserves ker(eps) since d and eps anticommute
    diff = {
        n: solve_linear(kernels[n + 1], hom.d_block(0, n) @ kernels[n])
        for n in degrees
        if n + 1 in kernels
    }
    return ChainComplex(basis, diff)


def realization_oracle_dims(e: GradedMixedComplex, wmax: int, degrees) -> dict:
    """Homology dims of Hom(cell_model(wmax), E): the realization oracle."""
    cx = dg_hom_complex(cell_model(wmax), e)
    return cx.homology_dims(degrees)
