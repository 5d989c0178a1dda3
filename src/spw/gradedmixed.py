"""Graded mixed complexes over Q with explicit finite bases.

A graded mixed complex is a finitely supported family E(p)^m of
Q-vector spaces (p = weight, m = cohomological degree) with

    d   : E(p)^m -> E(p)^{m+1}      d^2 = 0
    eps : E(p)^m -> E(p+1)^{m+1}    eps^2 = 0,  d eps + eps d = 0

so the total differential d + eps squares to zero.  Conventions fixed
here once and used everywhere:

* the degree shift E[n] multiplies d by (-1)^n and leaves eps alone;
* the weight shift E((q)) moves weight p to p - q and touches no signs;
* tensor products take Koszul signs from the cohomological degree only.
"""

from __future__ import annotations

from fractions import Fraction as Rat

from . import exactlin
from .errors import BidegreeMismatch, CompositionNonzero
from .exactlin import SparseMatrix, homology, kernel_basis, solve_linear


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

    def weights(self):
        return sorted({p for p, _ in self.basis})

    def degrees(self):
        return sorted({m for _, m in self.basis})


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
                    ent.setdefault(key, {})[ti, i] = ent.get(key, {}).get((ti, i), Rat(0)) + coeff
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

    def __repr__(self):
        if self.valid:
            return "MixedReport(valid)"
        return f"MixedReport({len(self.violations)} violations)"


def validate_mixed(e: GradedMixedComplex) -> MixedReport:
    """Check d^2 = 0, eps^2 = 0 and d eps + eps d = 0 blockwise.

    Each violation records (identity, (weight, degree), witness label).
    """
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
    d_map = {f"x{n}": [(Rat(1), f"y{n-1}")] for n in range(1, m + 1)}
    eps_map = {f"x{n}": [(Rat(1), f"y{n}")] for n in range(m + 1)}
    return GradedMixedComplex.from_maps(mod, d_map, eps_map)


def tensor(e: GradedMixedComplex, f: GradedMixedComplex) -> GradedMixedComplex:
    """Tensor product: weights add, Koszul signs from degree only."""
    basis = {}
    at = {}  # (s, t) -> offset of the labels a (x) b, a in E(s), b in F(t)
    for s in e.module.support():
        for t in f.module.support():
            cell = basis.setdefault((s[0] + t[0], s[1] + t[1]), [])
            at[s, t] = len(cell)
            cell.extend(
                ((*s, a), (*t, b)) for a in e.module.labels(*s) for b in f.module.labels(*t)
            )
    mod = BiGradedModule(basis)

    def _assemble(e_blocks, f_blocks, dw):
        ent = {}
        for (s, t), col0 in at.items():
            out = ent.setdefault((s[0] + t[0], s[1] + t[1]), {})
            nt = f.module.dim(*t)
            # first factor: (D a) (x) b
            s2 = (s[0] + dw, s[1] + 1)
            if s in e_blocks:
                row0 = at[s2, t]
                for (i, ia), v in e_blocks[s].items():
                    for ib in range(nt):
                        out[row0 + i * nt + ib, col0 + ia * nt + ib] = v
            # second factor: (-1)^{m1} a (x) (D b)
            t2 = (t[0] + dw, t[1] + 1)
            if t in f_blocks:
                row0, nt2 = at[s, t2], f.module.dim(*t2)
                sign = -1 if s[1] % 2 else 1
                for (i, ib), v in f_blocks[t].items():
                    for ia in range(e.module.dim(*s)):
                        out[row0 + ia * nt2 + i, col0 + ia * nt + ib] = sign * v
        return {
            (p, m): SparseMatrix(mod.dim(p + dw, m + 1), mod.dim(p, m), vals)
            for (p, m), vals in ent.items()
            if vals
        }

    return GradedMixedComplex(mod, _assemble(e.d, f.d, 0), _assemble(e.eps, f.eps, 1))


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
    """Degreewise labelled complex with differential blocks deg -> deg+1."""

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

    def dim(self, m):
        return len(self.basis.get(m, ()))

    def degrees(self):
        return sorted(self.basis)

    def d_block(self, m) -> SparseMatrix:
        return self.diff.get(m, SparseMatrix.zero(self.dim(m + 1), self.dim(m)))

    def validate(self):
        for m in self.degrees():
            if not (self.d_block(m + 1) @ self.d_block(m)).is_zero():
                raise BidegreeMismatch(f"d^2 != 0 at degree {m}")

    def homology(self, m) -> exactlin.HomologyResult:
        return homology(self.d_block(m - 1), self.d_block(m))

    def homology_dim(self, m) -> int:
        """dim H^m by rank-nullity, after checking d^2 = 0 at m exactly."""
        d_in, d_out = self.d_block(m - 1), self.d_block(m)
        if not (d_out @ d_in).is_zero():
            raise CompositionNonzero("d_out o d_in != 0")
        return d_out.cols - d_out.rank() - d_in.rank()

    def homology_dims(self, degrees=None):
        if degrees is None:
            ds = self.degrees()
            degrees = range(min(ds), max(ds) + 1) if ds else range(0)
        return {m: self.homology_dim(m) for m in degrees}


def realization(e: GradedMixedComplex, wmax: int) -> ChainComplex:
    """Total complex of weights 0..wmax with differential d + eps.

    This is the finite truncation of the product realization; weights
    above wmax are projected away (a quotient complex, so d^2 = 0 holds
    on the nose).  For E supported in weights [0, wmax] it is exact.
    """
    return weight_window_total_complex(e, 0, wmax)


def tate_realization(e: GradedMixedComplex, stage: int, wmax: int):
    """Stage-`stage` Tate realization: weights -stage..wmax, plus comparison.

    Returns (complex, comparison) where comparison maps
    realization(e, wmax) into the stage complex degreewise (a subcomplex
    inclusion, since the total differential never lowers the weight).
    """
    if stage < 0:
        raise ValueError("stage must be >= 0")
    full = weight_window_total_complex(e, -stage, wmax)
    small = realization(e, wmax)
    comparison = {}
    for m in small.degrees():
        ent = []
        big_index = {lab: i for i, lab in enumerate(full.basis.get(m, []))}
        for j, lab in enumerate(small.basis[m]):
            ent.append((big_index[lab], j, 1))
        comparison[m] = SparseMatrix(full.dim(m), small.dim(m), ent)
    return full, comparison


def weight_window_total_complex(e: GradedMixedComplex, wmin: int, wmax: int) -> ChainComplex:
    """Total complex of the weights wmin..wmax with differential d + eps.

    Weights below wmin are cut (a subcomplex is removed: legitimate since
    d + eps never lowers weight); weights above wmax are projected away.
    """
    cells = {}
    at = {}  # (p, m) -> total index of each local index of E(p)^m
    for (p, m), labels in e.module.basis.items():
        if wmin <= p <= wmax:
            cells.setdefault(m, []).extend((p, lab, i) for i, lab in enumerate(labels))
            at[p, m] = [0] * len(labels)
    basis = {}
    for m, cell in cells.items():
        cell.sort(key=lambda t: (t[0], str(t[1])))
        basis[m] = [(p, lab) for p, lab, _ in cell]
        for k, (p, _, i) in enumerate(cell):
            at[p, m][i] = k
    ent = {}
    for blocks, dw in ((e.d, 0), (e.eps, 1)):
        for (p, m), blk in blocks.items():
            src, tgt = at.get((p, m)), at.get((p + dw, m + 1))
            if src is not None and tgt is not None:
                out = ent.setdefault(m, {})
                for (i, j), v in blk.items():
                    out[tgt[i], src[j]] = v
    diff = {m: SparseMatrix(len(basis[m + 1]), len(basis[m]), vals) for m, vals in ent.items()}
    cx = ChainComplex(basis, diff)
    cx.validate()
    return cx


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

    Basis per degree: a kernel basis of the mixed map on weight-0 homs;
    the differential is the hom differential expressed in that basis.
    """
    hom = enriched_hom(e, f, weights=(0, 1))
    degrees = sorted({n for (p, n) in hom.module.basis if p == 0})
    kernels = {}
    for n in degrees:
        eps_blk = hom.eps_block(0, n)
        kernels[n] = kernel_basis(eps_blk) if eps_blk.cols else []
    basis = {n: [f"z{n}_{i}" for i in range(len(kernels[n]))] for n in degrees}
    diff = {}
    for n in degrees:
        if not kernels[n] or not kernels.get(n + 1):
            continue
        dblk = hom.d_block(0, n)
        target_mat = SparseMatrix.from_columns(
            [list(v) for v in kernels[n + 1]], rows=hom.module.dim(0, n + 1)
        )
        cols = []
        for v in kernels[n]:
            image = dblk.mul_vec(v)
            # d preserves ker(eps) since d and eps anticommute
            coords, _ = solve_linear(target_mat, image)
            cols.append(list(coords))
        mat = SparseMatrix.from_columns(cols, rows=len(kernels[n + 1]))
        if not mat.is_zero():
            diff[n] = mat
    cx = ChainComplex({n: basis[n] for n in degrees if basis[n]}, diff)
    cx.validate()
    return cx


def realization_oracle_dims(e: GradedMixedComplex, wmax: int, degrees) -> dict:
    """Homology dims of Hom(cell_model(wmax), E): the realization oracle."""
    cx = dg_hom_complex(cell_model(wmax), e)
    return cx.homology_dims(degrees)
