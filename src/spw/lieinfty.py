"""Finite-dimensional Lie algebras, Chevalley–Eilenberg mixed cdgas and
invariant tensors.

The CE convention:  eps(xi^k) = - sum_{i<j} c_ij^k xi^i xi^j  on generators
xi^i of degree 1 and weight 1; eps^2 = 0 is exactly the Jacobi identity.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from itertools import combinations, permutations

from .errors import Degenerate, NoSolution, NotFreeOnV, NotInvariant
from .exactlin import SparseMatrix, _as_rat, kernel_basis, solve_linear
from .freecdga import Elem, FreeCDGA, Generator, Window, _box_words, _image, _term_table
from .freecdga import graded_mixed_window
from .gradedmixed import GradedMixedComplex
from .polyvec import MaurerCartanTower, PolyvectorAlgebra, mc_check
from .record import Record


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
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            for k, v in comps.items():
                c[i][j][k] = _as_rat(v)
                c[j][i][k] = -_as_rat(v)
        return cls(c)


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


class LieReport(Record):
    __slots__ = _fields = ("violations",)

    def __init__(self, violations: list):
        self.violations = violations

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
    gens = [Generator(f"xi{i+1}", 1, wt) for i in range(g.dim)]
    free = FreeCDGA(gens)
    vals = {}
    for k in range(g.dim):
        img = free.zero()
        for i, j in combinations(range(g.dim), 2):
            coeff = g.c[i][j][k]
            if coeff:
                img = img + (free.gen(f"xi{i+1}") * free.gen(f"xi{j+1}")).scale(-coeff)
        if not img.is_zero():
            vals[f"xi{k+1}"] = img
    if weight_zero_duals:
        return FreeCDGA(gens, differential=vals)
    return FreeCDGA(gens, mixed=vals)


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
    raises NotFreeOnV otherwise.  Jacobi is not checked: see validate_lie.
    """
    if any(g.degree != 1 or g.weight != 1 for g in b.generators):
        raise NotFreeOnV("generators must sit in degree 1, weight 1")
    if any(not v.is_zero() for v in b.differential.values()):
        raise NotFreeOnV("cohomological differential must vanish")
    n = len(b.generators)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        img = b.mixed.get(k, b.zero())
        for mono, coeff in img.terms.items():
            if len(mono) != 2:
                raise NotFreeOnV("mixed differential is not quadratic")
            i, j = mono
            c[i][j][k] = -coeff
            c[j][i][k] = coeff
    return LieAlgebra(c)


# ---------------------------------------------------------------------------
# invariant tensors
# ---------------------------------------------------------------------------


class InvariantTensor(Record):
    __slots__ = _fields = ("kind", "coeffs")

    def __init__(self, kind: str, coeffs: dict):
        self.kind = kind  # "sym2" or "wedge3"
        self.coeffs = coeffs  # sym2: {(i<=j): c}; wedge3: {(i<j<k): c}


def _action(g: LieAlgebra, kind: str):
    """(alg, tables): g's basis as letters e0.. of weight 1, even for sym2
    and odd for wedge3, and for each x the parity-0 term table of ad_x,
    e_i -> sum_a c[x][i][a] e_a.  A tensor's key is its word; the word's
    coefficient is the key's times _scale."""
    if kind not in ("sym2", "wedge3"):
        raise ValueError("kind must be 'sym2' or 'wedge3'")
    alg = FreeCDGA([Generator(f"e{i}", 0 if kind == "sym2" else 1, 1) for i in range(g.dim)])
    tables = []
    for cx in g.c:
        values = {i: Elem(alg, {(a,): c for a, c in enumerate(row)}) for i, row in enumerate(cx) if any(row)}
        tables.append(_term_table(alg, values, 0))
    return alg, tables


def _scale(word):
    """2 for an off-diagonal sym2 key, which stands for both (a, b) and (b, a)."""
    return 2 if len(word) == 2 and word[0] != word[1] else 1


def invariants(g: LieAlgebra, kind: str):
    """Exact kernel of the adjoint action on Sym^2 g or wedge^3 g, in the
    tensors' key coordinates: one block row per basis direction x of g."""
    alg, tables = _action(g, kind)
    length = 2 if kind == "sym2" else 3
    basis = sorted(_box_words(alg, length, length, length))
    index = {b: (i, _scale(b)) for i, b in enumerate(basis)}
    ent = {}
    for x, table in enumerate(tables):
        top = x * len(basis)
        for j, b in enumerate(basis):
            for key, v in _image(table, b, coeff=index[b][1]).items():
                i, r = index[key]
                ent[top + i, j] = v if r == 1 else Rat(v, r)  # SparseMatrix keeps an integral value an int
    mat = SparseMatrix(g.dim * len(basis), len(basis), ent)
    return [InvariantTensor(kind, {basis[i]: c for i, c in vec.items()}) for vec in kernel_basis(mat)]


def is_invariant(g: LieAlgebra, tensor: InvariantTensor) -> bool:
    return _is_invariant(_action(g, tensor.kind)[1], tensor)


def _is_invariant(tables, tensor: InvariantTensor) -> bool:
    """is_invariant on the action tables of g for tensor.kind (see _action)."""
    for table in tables:
        image = {}
        for key, c in tensor.coeffs.items():
            if c:
                _image(table, key, acc=image, coeff=c * _scale(key))
        if image:
            return False
    return True


def killing_form(g: LieAlgebra) -> InvariantTensor:
    """The dual Killing tensor: K^{ij} read off the inverse Killing matrix.

    For the invariant-line checks only the span matters, so the inverse of
    k_{ij} = tr(ad_i ad_j) is returned as a sym2 tensor.
    """
    n = g.dim
    k = {
        (i, j): sum(g.c[i][m][l] * g.c[j][l][m] for m in range(n) for l in range(n))
        for i in range(n)
        for j in range(n)
    }
    try:
        inv = solve_linear(SparseMatrix(n, n, k), SparseMatrix.identity(n))
    except NoSolution:
        raise Degenerate("the Killing form is degenerate: g is not semisimple") from None
    return InvariantTensor("sym2", {(i, j): v for (i, j), v in sorted(inv.items()) if i <= j})


def z_from_t(g: LieAlgebra, t: InvariantTensor) -> InvariantTensor:
    """Z = [t^{1,2}, t^{2,3}], antisymmetrized into wedge^3 g; re-verifies
    invariance of both input and output."""
    if t.kind != "sym2":
        raise ValueError("t must be a sym2 tensor")
    if not is_invariant(g, t):
        raise NotInvariant("t is not g-invariant")
    n = g.dim
    rows = {}  # t read symmetrically off its keys (i <= j): i -> [(j, t^{ij})], nonzero only
    for (i, j), v in t.coeffs.items():
        if i <= j and v:
            rows.setdefault(i, []).append((j, v))
            if i != j:
                rows.setdefault(j, []).append((i, v))
    # raw[a, m, d] = sum over b, c of t^{ab} c_{bc}^m t^{cd}
    raw = {}
    for a, row in rows.items():
        for b, tab in row:
            for c_, bracket in enumerate(g.c[b]):
                if c_ not in rows:
                    continue
                for m, cv in enumerate(bracket):
                    if cv:
                        for d, tcd in rows[c_]:
                            key = (a, m, d)
                            raw[key] = raw.get(key, 0) + tab * tcd * cv
    # antisymmetrize with the 1/6 projector, read off wedge coefficients
    coeffs = {}
    for key in combinations(range(n), 3):
        total = 0
        for perm in permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            idx = tuple(key[p] for p in perm)
            total += sign * raw.get(idx, 0)
        v = Rat(total, 6)
        if v:
            coeffs[key] = v
    z = InvariantTensor("wedge3", coeffs)
    if not is_invariant(g, z):
        raise NotInvariant("constructed Z failed the invariance re-check")
    return z


# ---------------------------------------------------------------------------
# semi-strict check
# ---------------------------------------------------------------------------


class SemiStrictReport(Record):
    __slots__ = _fields = ("valid", "invariant", "closed", "mc")

    def __init__(self, valid: bool, invariant: bool, closed: bool, mc):
        self.valid = valid
        self.invariant = invariant
        self.closed = closed
        self.mc = mc


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
