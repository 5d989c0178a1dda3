"""Finite-dimensional Lie algebras, Chevalley–Eilenberg mixed cdgas,
weak mixed structures, L-infinity data and invariant tensors.

The CE convention:  eps(xi^k) = - sum_{i<j} c_ij^k xi^i xi^j  on generators
xi^i of degree 1 and weight 1; eps^2 = 0 is exactly the Jacobi identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from itertools import combinations

from .errors import NotFreeOnV, NotInvariant
from .exactlin import SparseMatrix, _as_rat, kernel_basis
from .freecdga import (
    Elem,
    FreeCDGA,
    Generator,
    Window,
    _derivation_blocks,
    apply_derivation,
    graded_mixed_window,
)
from .gradedmixed import GradedMixedComplex
from .polyvec import MaurerCartanTower, PolyvectorAlgebra, mc_check


class LieAlgebra:
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    def __init__(self, c):
        n = len(c)
        self.dim = n
        self.c = tuple(
            tuple(tuple(_as_rat(c[i][j][k]) for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @classmethod
    def abelian(cls, n):
        zero = [[[0] * n for _ in range(n)] for _ in range(n)]
        return cls(zero)

    @classmethod
    def from_brackets(cls, n, brackets):
        """brackets: {(i, j): {k: coeff}} for i < j, zero elsewhere."""
        c = [[[Rat(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            for k, v in comps.items():
                c[i][j][k] = _as_rat(v)
                c[j][i][k] = -_as_rat(v)
        return cls(c)

    def bracket(self, i, j):
        return self.c[i][j]


@classmethod
def _sl2(cls):
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return cls.from_brackets(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


LieAlgebra.sl2 = _sl2


@classmethod
def _nonabelian2(cls):
    # [e_1, e_2] = e_1
    return cls.from_brackets(2, {(0, 1): {0: 1}})


LieAlgebra.nonabelian2 = _nonabelian2


@dataclass
class LieReport:
    violations: list

    @property
    def valid(self):
        return not self.violations


def validate_lie(g: LieAlgebra) -> LieReport:
    """Exact antisymmetry and Jacobi; witnesses are index tuples."""
    v = []
    n = g.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.c[i][j][k] != -g.c[j][i][k]:
                    v.append(("antisymmetry", (i, j, k)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    r = sum(
                        g.c[j][k][m] * g.c[i][m][l]
                        + g.c[k][i][m] * g.c[j][m][l]
                        + g.c[i][j][m] * g.c[k][m][l]
                        for m in range(n)
                    )
                    if r:
                        v.append(("jacobi", (i, j, k, l)))
    return LieReport(v)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg
# ---------------------------------------------------------------------------


def ce(g: LieAlgebra, weight_zero_duals=False) -> FreeCDGA:
    """The graded mixed cdga Sym(g_dual[-1]): xi^i of degree 1, weight 1,
    with eps the CE differential and zero cohomological differential.

    weight_zero_duals builds the realized variant (weight channel 0 and
    the CE differential installed as d) used for polyvector computations.
    """
    wt = 0 if weight_zero_duals else 1
    alg = FreeCDGA([Generator(f"xi{i+1}", 1, wt) for i in range(g.dim)])
    vals = {}
    for k in range(g.dim):
        img = alg.zero()
        for i, j in combinations(range(g.dim), 2):
            coeff = g.c[i][j][k]
            if coeff:
                img = img + (alg.gen(f"xi{i+1}") * alg.gen(f"xi{j+1}")).scale(-coeff)
        if not img.is_zero():
            vals[f"xi{k+1}"] = img
    if weight_zero_duals:
        alg.set_differential(vals)
    else:
        alg.set_mixed(vals)
    return alg


def ce_complex(g: LieAlgebra) -> GradedMixedComplex:
    """Basis-level view: weight-p part is wedge^p g_dual in degree p."""
    alg = ce(g)
    cx, _ = graded_mixed_window(
        alg, Window(wmin=0, wmax=g.dim, dmin=0, dmax=g.dim, max_len=g.dim)
    )
    return cx


def lie_from_mixed(b: FreeCDGA) -> LieAlgebra:
    """Read the bracket off the mixed differential of a CE-shaped cdga.

    Requires all generators of degree 1, weight 1 and zero differential;
    raises NotFreeOnV otherwise.  Validates Jacobi on the result.
    """
    if any(g.degree != 1 or g.weight != 1 for g in b.generators):
        raise NotFreeOnV("generators must sit in degree 1, weight 1")
    if any(not v.is_zero() for v in b.differential.values()):
        raise NotFreeOnV("cohomological differential must vanish")
    n = len(b.generators)
    c = [[[Rat(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        img = b.mixed.get(k, b.zero())
        for mono, coeff in img.terms.items():
            if len(mono) != 2:
                raise NotFreeOnV("mixed differential is not quadratic")
            i, j = mono
            c[i][j][k] = -coeff
            c[j][i][k] = coeff
    g = LieAlgebra(c)
    rep = validate_lie(g)
    if not rep.valid:
        raise NotFreeOnV(f"extracted bracket fails Jacobi: {rep.violations[:3]}")
    return g


# ---------------------------------------------------------------------------
# weak mixed structures
# ---------------------------------------------------------------------------


class WeakMixedStructure:
    """Graded complex E with maps eps_i : E(p) -> E(p+i+1)[1], i >= 0.

    Stored blockwise like GradedMixedComplex; eps[i][(p, m)] maps the
    (p, m) slot to (p+i+1, m+1).
    """

    def __init__(self, module, d, eps_list):
        self.module = module
        self.d = d
        self.eps_list = list(eps_list)

    def d_block(self, p, m):
        blk = self.d.get((p, m))
        if blk is None:
            blk = SparseMatrix.zero(self.module.dim(p, m + 1), self.module.dim(p, m))
        return blk

    def eps_block(self, i, p, m):
        if i >= len(self.eps_list):
            return SparseMatrix.zero(
                self.module.dim(p + i + 1, m + 1), self.module.dim(p, m)
            )
        blk = self.eps_list[i].get((p, m))
        if blk is None:
            blk = SparseMatrix.zero(
                self.module.dim(p + i + 1, m + 1), self.module.dim(p, m)
            )
        return blk

    def max_index(self):
        return len(self.eps_list) - 1


@dataclass
class WeakMixedReport:
    valid_within_bound: bool
    first_failure: tuple = None  # (i, (p, m))
    inconclusive_beyond_bound: bool = False

    @property
    def valid(self):
        return self.valid_within_bound


def weak_mixed_validate(w: WeakMixedStructure, bound=None) -> WeakMixedReport:
    """Check (d eps_{i+1} + eps_{i+1} d) + 1/2 sum_{a+b=i} [eps_a, eps_b] = 0
    blockwise for -1 <= i <= bound; all eps are odd, so the commutators are
    anticommutators and the halves cancel pairwise into whole terms."""
    imax = w.max_index()
    need = 2 * imax
    if bound is None:
        bound = need
    for i in range(-1, bound + 1):
        for (p, m) in w.module.support():
            tgt = (p + i + 2, m + 2)
            rows = w.module.dim(*tgt)
            cols = w.module.dim(p, m)
            if rows == 0 or cols == 0:
                continue
            acc = SparseMatrix.zero(rows, cols)
            # [d, eps_{i+1}] = d eps_{i+1} + eps_{i+1} d
            acc = acc + w.d_block(p + i + 2, m + 1) @ w.eps_block(i + 1, p, m)
            acc = acc + w.eps_block(i + 1, p, m + 1) @ w.d_block(p, m)
            for a in range(0, i + 1):
                b = i - a
                acc = acc + (
                    w.eps_block(a, p + b + 1, m + 1) @ w.eps_block(b, p, m)
                ).scale(Rat(1, 2))
                acc = acc + (
                    w.eps_block(b, p + a + 1, m + 1) @ w.eps_block(a, p, m)
                ).scale(Rat(1, 2))
            if not acc.is_zero():
                return WeakMixedReport(False, (i, (p, m)), bound < need)
    return WeakMixedReport(True, None, bound < need)


def weak_mixed_from_derivations(alg: FreeCDGA, eps_values, window: Window) -> WeakMixedStructure:
    """Assemble blocks of a weak mixed structure whose eps_i are the odd
    derivation extensions of the given generator values."""
    cx, mono_of = graded_mixed_window(alg, window)
    monos = {bideg: [mono_of[lab] for lab in labels] for bideg, labels in cx.module.basis.items()}
    eps_list = []
    for i, values in enumerate(eps_values):
        vals = {alg.index[name]: v for name, v in values.items()}

        def image(m, vals=vals):
            return apply_derivation(alg, Elem(alg, {m: Rat(1)}), vals, parity=1)

        eps_list.append(_derivation_blocks(alg, monos, image, i + 1))
    return WeakMixedStructure(cx.module, cx.d, eps_list)


# ---------------------------------------------------------------------------
# L-infinity structures
# ---------------------------------------------------------------------------


@dataclass
class LInftyStructure:
    """Brackets b_k : L -> Sym^k(L) of cohomological degree +1, k >= 2,
    on a finite complex L; `sym` is Sym(L) with the linear differential."""

    sym: FreeCDGA  # generators of weight 1: the basis of L
    brackets: dict  # k -> {generator name: Elem in Sym^k}

    def bracket_bound(self):
        return max(self.brackets, default=1)


def linfty_structure(generators, differential=None, brackets=None) -> LInftyStructure:
    """generators: [(name, degree)]; differential: {name: {name: coeff}}
    (linear); brackets: {k: {name: Elem-terms as {mono names tuple: coeff}}}."""
    alg = FreeCDGA([Generator(n, d, 1) for n, d in generators])
    d_vals = {}
    for name, row in (differential or {}).items():
        e = alg.zero()
        for tgt, coeff in row.items():
            e = e + alg.gen(tgt).scale(coeff)
        d_vals[name] = e
    alg.set_differential(d_vals)
    br = {}
    for k, mapping in (brackets or {}).items():
        br[k] = {}
        for name, terms in mapping.items():
            e = alg.zero()
            for names, coeff in terms.items():
                e = e + alg.monomial(names, coeff)
            br[k][name] = e
    return LInftyStructure(alg, br)


def linfty_to_weak_mixed(s: LInftyStructure, window: Window = None) -> WeakMixedStructure:
    """eps_i is the derivation extension of the (i+2)-ary bracket: a map
    into Sym^{i+2} raises the symmetric weight by i+1."""
    if window is None:
        window = Window(wmin=0, wmax=4, dmin=-6, dmax=8, max_len=4)
    bound = s.bracket_bound()
    eps_values = []
    for i in range(0, max(bound - 1, 1)):
        eps_values.append(s.brackets.get(i + 2, {}))
    return weak_mixed_from_derivations(s.sym, eps_values, window)


def linfty_validate(s: LInftyStructure, window: Window = None) -> WeakMixedReport:
    return weak_mixed_validate(linfty_to_weak_mixed(s, window))


# ---------------------------------------------------------------------------
# invariant tensors
# ---------------------------------------------------------------------------


@dataclass
class InvariantTensor:
    kind: str  # "sym2" or "wedge3"
    coeffs: dict  # sym2: {(i<=j): c}; wedge3: {(i<j<k): c}


def _sym2_basis(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _wedge3_basis(n):
    return list(combinations(range(n), 3))


def _ad_on_sym2(g, x, t):
    """Coefficients of ad_x(t) for t symmetric: {(i<=j): c}.

    Computed on the full symmetric matrix T (keys split off-diagonally)
    as C T + T C^T with C[a][m] = c[x][m][a], then folded back; this keeps
    the unordered-pair normalisation exact when slots collide.
    """
    n = g.dim
    full = [[Rat(0)] * n for _ in range(n)]
    for (i, j), c in t.items():
        full[i][j] += c
        if i != j:
            full[j][i] += c
    out_full = [[Rat(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            s = Rat(0)
            for m in range(n):
                s += g.c[x][m][a] * full[m][b] + g.c[x][m][b] * full[a][m]
            out_full[a][b] = s
    out = {}
    for i in range(n):
        for j in range(i, n):
            if out_full[i][j]:
                out[i, j] = out_full[i][j]
    return out


def _wedge_sort(idx):
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


def _ad_on_wedge3(g, x, t):
    out = {}
    for (i, j, k), c in t.items():
        for slot, orig in enumerate((i, j, k)):
            for m in range(g.dim):
                coeff = g.c[x][orig][m]
                if not coeff:
                    continue
                idx = [i, j, k]
                idx[slot] = m
                ws = _wedge_sort(idx)
                if ws is None:
                    continue
                sign, key = ws
                out[key] = out.get(key, Rat(0)) + sign * coeff * c
    return {k: v for k, v in out.items() if v}


def invariants(g: LieAlgebra, kind: str):
    """Exact kernel of the adjoint action on Sym^2 g or wedge^3 g."""
    if kind == "sym2":
        basis = _sym2_basis(g.dim)
        act = _ad_on_sym2
    elif kind == "wedge3":
        basis = _wedge3_basis(g.dim)
        act = _ad_on_wedge3
    else:
        raise ValueError("kind must be 'sym2' or 'wedge3'")
    index = {b: i for i, b in enumerate(basis)}
    # one block row per basis direction x of g
    ent = {}
    for xi, x in enumerate(range(g.dim)):
        for j, b in enumerate(basis):
            img = act(g, x, {b: Rat(1)})
            for key, v in img.items():
                ent[xi * len(basis) + index[key], j] = (
                    ent.get((xi * len(basis) + index[key], j), Rat(0)) + v
                )
    mat = SparseMatrix(g.dim * len(basis), len(basis), {k: v for k, v in ent.items() if v})
    out = []
    for vec in kernel_basis(mat):
        coeffs = {b: vec[i] for b, i in index.items() if vec[i]}
        out.append(InvariantTensor(kind, coeffs))
    return out


def is_invariant(g: LieAlgebra, tensor: InvariantTensor) -> bool:
    act = _ad_on_sym2 if tensor.kind == "sym2" else _ad_on_wedge3
    return all(not act(g, x, tensor.coeffs) for x in range(g.dim))


def killing_form(g: LieAlgebra) -> InvariantTensor:
    """The dual Killing tensor: K^{ij} read off the inverse Killing matrix.

    For the invariant-line checks only the span matters, so the inverse of
    k_{ij} = tr(ad_i ad_j) is returned as a sym2 tensor.
    """
    n = g.dim
    k = [[Rat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k[i][j] = sum(g.c[i][m][l] * g.c[j][l][m] for m in range(n) for l in range(n))
    from .exactlin import solve_linear

    mat = SparseMatrix.from_rows(k)
    cols = []
    for e in range(n):
        rhs = [Rat(1) if t == e else Rat(0) for t in range(n)]
        x, _ = solve_linear(mat, rhs)
        cols.append(list(x))
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            v = cols[j][i]
            if v:
                coeffs[i, j] = v
    return InvariantTensor("sym2", coeffs)


def z_from_t(g: LieAlgebra, t: InvariantTensor) -> InvariantTensor:
    """Z = [t^{1,2}, t^{2,3}], antisymmetrized into wedge^3 g; re-verifies
    invariance of both input and output."""
    if t.kind != "sym2":
        raise ValueError("t must be a sym2 tensor")
    if not is_invariant(g, t):
        raise NotInvariant("t is not g-invariant")
    n = g.dim

    def tt(i, j):
        if i <= j:
            return t.coeffs.get((i, j), Rat(0))
        return t.coeffs.get((j, i), Rat(0))

    raw = {}
    for a in range(n):
        for b in range(n):
            for c_ in range(n):
                for d in range(n):
                    for m in range(n):
                        coeff = tt(a, b) * tt(c_, d) * g.c[b][c_][m]
                        if coeff:
                            key = (a, m, d)
                            raw[key] = raw.get(key, Rat(0)) + coeff
    # antisymmetrize with the 1/6 projector, read off wedge coefficients
    coeffs = {}
    for key in _wedge3_basis(n):
        total = Rat(0)
        from itertools import permutations

        for perm in permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            idx = tuple(key[p] for p in perm)
            total += sign * raw.get(idx, Rat(0))
        v = total / 6
        if v:
            coeffs[key] = v
    z = InvariantTensor("wedge3", coeffs)
    if not is_invariant(g, z):
        raise NotInvariant("constructed Z failed the invariance re-check")
    return z


# ---------------------------------------------------------------------------
# semi-strict check
# ---------------------------------------------------------------------------


@dataclass
class SemiStrictReport:
    valid: bool
    invariant: bool
    closed: bool
    mc: object


def semi_strict_check(g: LieAlgebra, z: InvariantTensor) -> SemiStrictReport:
    """The weak 2-shifted structure on CE(g) with zero binary part and
    constant ternary part Z: validated by the actual MC machinery on
    Pol(CE(g), 2) plus the exact invariance and closedness checks."""
    if z.kind != "wedge3":
        raise ValueError("Z must be a wedge3 tensor")
    invariant = is_invariant(g, z)
    realized = ce(g, weight_zero_duals=True)
    pol = PolyvectorAlgebra(realized, 2)
    p1 = pol.algebra.zero()
    for (i, j, k), c in z.coeffs.items():
        p1 = p1 + (
            pol.theta(f"xi{i+1}") * pol.theta(f"xi{j+1}") * pol.theta(f"xi{k+1}")
        ).scale(c)
    closed = pol.d(p1).is_zero()
    tower = MaurerCartanTower(pol, 1, [pol.algebra.zero(), p1])
    mc = mc_check(tower)
    return SemiStrictReport(invariant and closed and mc.valid, invariant, closed, mc)
