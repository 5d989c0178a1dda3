"""Shifted polyvector algebras with the Schouten–Nijenhuis bracket.

Pol(B, n) is modelled as the free graded-commutative algebra on the
generators of B together with dual symbols @g of cohomological degree
n - deg(g) and polyvector weight 1.  The bracket is the unique
biderivation of degree -n extending the tautological pairing

    [@g_i, g_j] = delta_ij ,

with the shifted antisymmetry  [P,Q] = -(-1)^{(|P|+n)(|Q|+n)} [Q,P]
and right Leibniz  [P, QR] = [P,Q] R + (-1)^{(|P|+n)|Q|} Q [P,R].
Implemented by structural recursion on monomials, so both Leibniz rules
hold by construction; the Jacobiator of an antisymmetric biderivation
is a triderivation and vanishes on generators, hence identically.

The differential induced from d_B acts on the duals by

    d(@g_i) = -(-1)^{deg g_i} sum_j [@g_i, d_B g_j] @g_j ,

the unique extension making d a derivation of the bracket (it is the
endomorphism-complex differential of the tangent module).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat

from .errors import BidegreeError, Degenerate, ShiftMismatch
from .exactlin import SparseMatrix
from .freecdga import Elem, FreeCDGA, Generator, enumerate_monomials


class PolyvectorAlgebra:
    """Handle for Pol(B, n): bases, product and Schouten bracket."""

    def __init__(self, base: FreeCDGA, shift: int):
        self.base = base
        self.shift = shift
        gens = list(base.generators)
        self.theta_names = []
        for g in base.generators:
            name = "@" + g.name
            if name in base.index:
                raise ValueError(f"dual symbol {name!r} collides with a generator")
            gens.append(Generator(name, shift - g.degree, 1, g.internal_weight))
            self.theta_names.append(name)
        self.algebra = FreeCDGA(gens)
        self._n_base = len(base.generators)
        self._bracket_cache = {}
        d_vals = {}
        for i, g in enumerate(base.generators):
            dg = base.differential.get(i)
            if dg is not None:
                d_vals[g.name] = self.include(dg)
        for i, g in enumerate(base.generators):
            theta = self.algebra.gen(self.theta_names[i])
            img = self.algebra.zero()
            for j, h in enumerate(base.generators):
                dh = base.differential.get(j)
                if dh is None:
                    continue
                coeff = self.bracket(theta, self.include(dh))
                if not coeff.is_zero():
                    img = img + coeff * self.algebra.gen(self.theta_names[j])
            if not img.is_zero():
                # -(-1)^{deg g_i}: forced by d[theta_i, g_j] = 0
                d_vals[self.theta_names[i]] = img.scale(1 if g.degree % 2 else -1)
        self.algebra.set_differential(d_vals)

    # -- elements ----------------------------------------------------------

    def include(self, e: Elem) -> Elem:
        """View an element of B inside the polyvector algebra."""
        return Elem(self.algebra, dict(e.terms))

    def theta(self, name) -> Elem:
        return self.algebra.gen("@" + name)

    def is_theta(self, i) -> bool:
        return i >= self._n_base

    def d(self, elem: Elem) -> Elem:
        return self.algebra.d(elem)

    # -- bracket -----------------------------------------------------------

    def _pair(self, a: int, b: int) -> Rat:
        n = self.shift
        if self.is_theta(a) and not self.is_theta(b) and a - self._n_base == b:
            return Rat(1)
        if self.is_theta(b) and not self.is_theta(a) and b - self._n_base == a:
            da = self.algebra.gen_degree(a)
            db = self.algebra.gen_degree(b)
            s = (da + n) * (db + n)
            return Rat(1) if s % 2 else Rat(-1)
        return Rat(0)

    def _bracket_mono(self, m1, m2) -> Elem:
        key = (m1, m2)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        alg = self.algebra
        n = self.shift
        if not m1 or not m2:
            out = alg.zero()
        elif len(m1) == 1 and len(m2) == 1:
            out = alg.scalar(self._pair(m1[0], m2[0]))
        elif len(m1) == 1:
            v = m1[0]
            w, rest = m2[0], m2[1:]
            t1 = self._bracket_mono((v,), (w,)) * Elem(alg, {rest: Rat(1)})
            sign = -1 if ((alg.gen_degree(v) + n) * alg.gen_degree(w)) % 2 else 1
            t2 = (Elem(alg, {(w,): Rat(1)}) * self._bracket_mono((v,), rest)).scale(sign)
            out = t1 + t2
        else:
            v, rest = m1[0], m1[1:]
            deg_rest = sum(alg.gen_degree(i) for i in rest)
            deg_m2 = sum(alg.gen_degree(i) for i in m2)
            t1 = Elem(alg, {(v,): Rat(1)}) * self._bracket_mono(rest, m2)
            sign = -1 if (deg_rest * (deg_m2 + n)) % 2 else 1
            t2 = (self._bracket_mono((v,), m2) * Elem(alg, {rest: Rat(1)})).scale(sign)
            out = t1 + t2
        self._bracket_cache[key] = out
        return out

    def bracket(self, p: Elem, q: Elem) -> Elem:
        if not p.algebra.compatible(self.algebra) or not q.algebra.compatible(self.algebra):
            raise ShiftMismatch("polyvectors from a different algebra or shift")
        out = self.algebra.zero()
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                out = out + self._bracket_mono(m1, m2).scale(c1 * c2)
        return out

    # -- bases -------------------------------------------------------------

    def basis(self, weight: int, degree: int, max_len: int):
        """Monomials of the given polyvector weight and degree (word window)."""
        out = []
        for m in enumerate_monomials(self.algebra, max_len):
            w = sum(self.algebra.gen_weight(i) for i in m)
            d = sum(self.algebra.gen_degree(i) for i in m)
            if w == weight and d == degree:
                out.append(m)
        return sorted(out)

    def basis_dims(self, max_weight: int, max_len: int):
        dims = {}
        for m in enumerate_monomials(self.algebra, max_len):
            w = sum(self.algebra.gen_weight(i) for i in m)
            d = sum(self.algebra.gen_degree(i) for i in m)
            if w <= max_weight:
                dims[w, d] = dims.get((w, d), 0) + 1
        return dims

    # -- constant parts ------------------------------------------------------

    def constant_part(self, elem: Elem) -> Elem:
        """Drop every monomial containing a base generator (augmentation)."""
        return Elem(
            self.algebra,
            {m: c for m, c in elem.terms.items() if all(self.is_theta(i) for i in m)},
        )


def polyvectors(base: FreeCDGA, shift: int, max_weight: int, max_len: int = 6):
    """Polyvector algebra handle plus basis dimensions per (weight, degree)."""
    handle = PolyvectorAlgebra(base, shift)
    return handle, handle.basis_dims(max_weight, max_len)


def schouten(pol: PolyvectorAlgebra, p: Elem, q: Elem) -> Elem:
    return pol.bracket(p, q)


# ---------------------------------------------------------------------------
# strict Poisson structures
# ---------------------------------------------------------------------------


@dataclass
class StrictPoissonReport:
    valid: bool
    d_pi: Elem
    self_bracket: Elem
    bracket_table: dict  # (name, name) -> Elem of B-included algebra

    def __repr__(self):
        return f"StrictPoissonReport(valid={self.valid})"


def induced_bracket(pol: PolyvectorAlgebra, pi: Elem, f: Elem, g: Elem) -> Elem:
    """{f, g} := (-1)^{|f|+1} [[pi, f], g].

    The parity twist normalises the double bracket so that the classical
    bivector @x@y gives {x, y} = +1 and a constant pairing t on odd
    generators gives {xi_a, xi_b} = t(xi_a, xi_b).
    """
    out = pol.bracket(pol.bracket(pi, f), g)
    sign = 1 if (f.degree() or 0) % 2 else -1
    return out.scale(sign)


def check_strict_poisson(base: FreeCDGA, n: int, pi: Elem, pol=None) -> StrictPoissonReport:
    """Verify d pi = 0 and [pi, pi] = 0 for pi of weight 2, degree n+2
    in Pol(B, n+1); on success also tabulate the induced bracket."""
    pol = pol or PolyvectorAlgebra(base, n + 1)
    if not pi.is_zero() and (pi.weight() != 2 or pi.degree() != n + 2):
        raise BidegreeError(
            f"pi must be pure weight 2, degree {n + 2}; got weight {pi.weight()}, degree {pi.degree()}"
        )
    d_pi = pol.d(pi)
    self_bracket = pol.bracket(pi, pi)
    valid = d_pi.is_zero() and self_bracket.is_zero()
    table = {}
    if valid:
        for g in base.generators:
            for h in base.generators:
                table[g.name, h.name] = induced_bracket(
                    pol, pi, pol.include(base.gen(g.name)), pol.include(base.gen(h.name))
                )
    return StrictPoissonReport(valid, d_pi, self_bracket, table)


# ---------------------------------------------------------------------------
# Maurer-Cartan towers
# ---------------------------------------------------------------------------


@dataclass
class MaurerCartanTower:
    """Weight-indexed components p_0, p_1, .. of a weak shifted Poisson
    structure: p_i has polyvector weight i+2 and degree n+2 in Pol(B, n+1)."""

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

    def component(self, i) -> Elem:
        if 0 <= i < len(self.components):
            return self.components[i]
        return self.pol.algebra.zero()

    def total(self) -> Elem:
        out = self.pol.algebra.zero()
        for p in self.components:
            out = out + p
        return out


@dataclass
class MCReport:
    valid: bool
    first_failure: int = None
    residual: Elem = None

    def __repr__(self):
        if self.valid:
            return "MCReport(valid)"
        return f"MCReport(fails at i={self.first_failure})"


def mc_check(tower: MaurerCartanTower) -> MCReport:
    """Verify  d p_{i+1} + 1/2 sum_{a+b=i} [p_a, p_b] = 0  for -1 <= i <= bound."""
    pol = tower.pol
    for i in range(-1, tower.bound + 1):
        eq = pol.d(tower.component(i + 1))
        for a in range(0, i + 1):
            b = i - a
            eq = eq + pol.bracket(tower.component(a), tower.component(b)).scale(Rat(1, 2))
        if not eq.is_zero():
            return MCReport(False, i, eq)
    return MCReport(True)


def strict_tower(pol: PolyvectorAlgebra, n: int, pi: Elem) -> MaurerCartanTower:
    return MaurerCartanTower(pol, n, [pi])


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------


@dataclass
class NondegeneracyReport:
    nondegenerate: bool
    theta: SparseMatrix  # generator-indexed pairing matrix
    blocks: dict  # degree -> (rows, cols, rank)


def nondegeneracy(arg, pol: PolyvectorAlgebra = None, n: int = None) -> NondegeneracyReport:
    """Pairing matrix of the constant leading term at the augmentation.

    Theta[i][j] is the @g_j-coefficient of [q, g_i] for q the constant
    part of p_0; invertibility is tested degree by degree (the block for
    degree d pairs generators of degree d with generators of degree n-d,
    n the underlying Poisson shift).
    """
    if isinstance(arg, MaurerCartanTower):
        pol = arg.pol
        n = arg.n
        p0 = arg.component(0)
    else:
        p0 = arg
        if pol is None:
            raise ValueError("nondegeneracy of a bare element needs its algebra")
        if n is None:
            n = pol.shift - 1
    q = pol.constant_part(p0)
    gens = pol.base.generators
    m = len(gens)
    ent = {}
    for i, g in enumerate(gens):
        br = pol.bracket(q, pol.include(pol.base.gen(g.name)))
        for j in range(m):
            c = br.coefficient((pol._n_base + j,))
            if c:
                ent[i, j] = c
    theta = SparseMatrix(m, m, ent)
    blocks = pairing_blocks(theta, gens, n)
    ok = all(r == c == k for r, c, k in blocks.values())
    return NondegeneracyReport(ok, theta, blocks)


def pairing_blocks(theta: SparseMatrix, gens, n: int) -> dict:
    """{d: (rows, cols, rank)} of the blocks of theta pairing the generators
    of degree d (rows) with those of degree n - d (columns)."""
    blocks = {}
    for d in sorted({g.degree for g in gens}):
        rows = {i: a for a, i in enumerate(i for i, g in enumerate(gens) if g.degree == d)}
        cols = {j: b for b, j in enumerate(j for j, g in enumerate(gens) if g.degree == n - d)}
        sub = SparseMatrix(
            len(rows),
            len(cols),
            [(rows[i], cols[j], v) for (i, j), v in theta.items() if i in rows and j in cols],
        )
        blocks[d] = (len(rows), len(cols), sub.rank())
    return blocks


def require_nondegenerate(arg, pol=None, n=None) -> NondegeneracyReport:
    rep = nondegeneracy(arg, pol, n)
    if not rep.nondegenerate:
        raise Degenerate(f"pairing not invertible at the augmentation: {rep.blocks}")
    return rep
