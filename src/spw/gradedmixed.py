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

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())


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
        for j in range(mat.cols):
            col = [mat.entry(i, j) for i in range(mat.rows)]
            if any(col):
                violations.append((name, (p, m), e.module.labels(p, m)[j]))

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
    for (p1, m1) in e.module.support():
        for (p2, m2) in f.module.support():
            key = (p1 + p2, m1 + m2)
            for a in e.module.labels(p1, m1):
                for b in f.module.labels(p2, m2):
                    basis.setdefault(key, []).append(((p1, m1, a), (p2, m2, b)))
    mod = BiGradedModule(basis)
    index = {
        key: {lab: i for i, lab in enumerate(mod.labels(*key))} for key in mod.basis
    }

    def _assemble(which):
        blocks = {}
        for (p, m), labels in mod.basis.items():
            tgt = (p + 1, m + 1) if which == "eps" else (p, m + 1)
            if mod.dim(*tgt) == 0:
                continue
            ent = {}
            for j, ((p1, m1, a), (p2, m2, b)) in enumerate(labels):
                ia = e.module.labels(p1, m1).index(a)
                ib = f.module.labels(p2, m2).index(b)
                # first factor: (D a) (x) b
                blk1 = e.eps_block(p1, m1) if which == "eps" else e.d_block(p1, m1)
                np1 = p1 + 1 if which == "eps" else p1
                for i in range(blk1.rows):
                    v = blk1.entry(i, ia)
                    if v:
                        lab = ((np1, m1 + 1, e.module.labels(np1, m1 + 1)[i]), (p2, m2, b))
                        ent[index[tgt][lab], j] = ent.get((index[tgt][lab], j), Rat(0)) + v
                # second factor: (-1)^{m1} a (x) (D b)
                blk2 = f.eps_block(p2, m2) if which == "eps" else f.d_block(p2, m2)
                np2 = p2 + 1 if which == "eps" else p2
                sign = -1 if m1 % 2 else 1
                for i in range(blk2.rows):
                    v = blk2.entry(i, ib)
                    if v:
                        lab = ((p1, m1, a), (np2, m2 + 1, f.module.labels(np2, m2 + 1)[i]))
                        ent[index[tgt][lab], j] = ent.get((index[tgt][lab], j), Rat(0)) + sign * v
            ent = {k: v for k, v in ent.items() if v}
            if ent:
                blocks[p, m] = SparseMatrix(mod.dim(*tgt), len(labels), ent)
        return blocks

    return GradedMixedComplex(mod, _assemble("d"), _assemble("eps"))


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
                    ent[tgt_index[key], j] = ent.get((tgt_index[key], j), Rat(0)) + v
            eblk = e.eps_block(p, m)
            if p + 1 <= wmax:
                for i in range(eblk.rows):
                    v = eblk.entry(i, col)
                    if v:
                        key = (p + 1, e.module.labels(p + 1, m + 1)[i])
                        ent[tgt_index[key], j] = ent.get((tgt_index[key], j), Rat(0)) + v
        ent = {k: v for k, v in ent.items() if v}
        if ent:
            diff[m] = SparseMatrix(len(tgt), len(labels), ent)
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
    for p in weights:
        for (q, mu) in e.module.support():
            for (q2, nu) in f.module.support():
                if q2 != q + p:
                    continue
                n = nu - mu
                for a in e.module.labels(q, mu):
                    for b in f.module.labels(q2, nu):
                        basis.setdefault((p, n), []).append((q, mu, a, b))
    mod = BiGradedModule(basis)

    def _apply(p, n, j, which):
        """Image of the j-th basis map under delta (which='d') or eps."""
        q, mu, a, b = mod.labels(p, n)[j]
        ia = e.module.labels(q, mu).index(a)
        ib = f.module.labels(q + p, mu + n).index(b)
        out = {}
        sign = -1 if n % 2 else 1
        if which == "d":
            post = f.d_block(q + p, mu + n)  # F(q+p)^{mu+n} -> F(q+p)^{mu+n+1}
            for i in range(post.rows):
                v = post.entry(i, ib)
                if v:
                    key = (q, mu, a, f.module.labels(q + p, mu + n + 1)[i])
                    out[key] = out.get(key, Rat(0)) + v
            # - (-1)^n u d_E: precompose with d on E(q)^{mu-1}
            pre = e.d_block(q, mu - 1)
            for col in range(pre.cols):
                v = pre.entry(ia, col)
                if v:
                    key = (q, mu - 1, e.module.labels(q, mu - 1)[col], b)
                    out[key] = out.get(key, Rat(0)) - sign * v
        else:
            post = f.eps_block(q + p, mu + n)
            for i in range(post.rows):
                v = post.entry(i, ib)
                if v:
                    key = (q, mu, a, f.module.labels(q + p + 1, mu + n + 1)[i])
                    out[key] = out.get(key, Rat(0)) + v
            pre = e.eps_block(q - 1, mu - 1)
            for col in range(pre.cols):
                v = pre.entry(ia, col)
                if v:
                    key = (q - 1, mu - 1, e.module.labels(q - 1, mu - 1)[col], b)
                    out[key] = out.get(key, Rat(0)) - sign * v
        return {k: v for k, v in out.items() if v}

    d_blocks = {}
    eps_blocks = {}
    for (p, n), labels in mod.basis.items():
        tgt_d = mod.labels(p, n + 1)
        if tgt_d:
            tgt_index = {lab: i for i, lab in enumerate(tgt_d)}
            ent = {}
            for j in range(len(labels)):
                for key, v in _apply(p, n, j, "d").items():
                    if key in tgt_index:
                        ent[tgt_index[key], j] = v
                    elif v:
                        raise BidegreeMismatch(f"hom differential escapes window at {key}")
            if ent:
                d_blocks[p, n] = SparseMatrix(len(tgt_d), len(labels), ent)
        if p + 1 in weights:
            tgt_e = mod.labels(p + 1, n + 1)
            tgt_index = {lab: i for i, lab in enumerate(tgt_e)}
            ent = {}
            for j in range(len(labels)):
                for key, v in _apply(p, n, j, "eps").items():
                    if key in tgt_index:
                        ent[tgt_index[key], j] = v
                    elif v:
                        raise BidegreeMismatch(f"hom mixed map escapes window at {key}")
            if ent:
                eps_blocks[p, n] = SparseMatrix(len(tgt_e), len(labels), ent)
    return GradedMixedComplex(mod, d_blocks, eps_blocks)


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
