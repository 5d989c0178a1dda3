"""Shifted polyvector algebras with the Schouten–Nijenhuis bracket.

Pol(B, n) is modelled as the free graded-commutative algebra on the
generators of B together with dual symbols @g of cohomological degree
n - deg(g) and polyvector weight 1.  The bracket is the unique
biderivation of degree -n extending the tautological pairing

    [@g_i, g_j] = delta_ij ,

with the shifted antisymmetry  [P,Q] = -(-1)^{(|P|+n)(|Q|+n)} [Q,P]
and right Leibniz  [P, QR] = [P,Q] R + (-1)^{(|P|+n)|Q|} Q [P,R].
For p of parity P = |p| + n, [p, -] is the derivation of parity P whose
value on a letter g is [p, g] = -(-1)^{P(|g|+n)} [g, h] d_h p, h the
partner of g; the bracket images q through that derivation's term table
(freecdga's one routine), one table per parity of p.  The Jacobiator of
an antisymmetric biderivation is a triderivation and vanishes on
generators, hence identically.

The differential induced from d_B acts on the duals by

    d(@g_i) = -(-1)^{deg g_i} sum_j [@g_i, d_B g_j] @g_j ,

the unique extension making d a derivation of the bracket (it is the
endomorphism-complex differential of the tangent module).

A two-tensor is read one way: `pairing_matrix` takes its second partials at
the augmentation and `pairing_report` judges the result degree by degree.
Non-degeneracy here and the symplectic forms of `compare` both use them.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction as Rat

from .errors import BidegreeError, Degenerate, ShiftMismatch
from .exactlin import SparseMatrix
from .freecdga import Elem, FreeCDGA, Generator, _box_words, _derive, apply_derivation
from .record import Record


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
            gens.append(Generator(name, shift - g.degree, 1))
            self.theta_names.append(name)
        self.algebra = FreeCDGA(gens)
        n_base = self._n_base = len(base.generators)
        # per letter: its partner (@g for g, g for @g), the pairing sign
        # [letter, partner] and the parity of |letter| + n
        self._partners = tuple(
            (i + n_base, 1 if (g.degree + shift) * g.degree % 2 else -1, (g.degree + shift) % 2)
            for i, g in enumerate(base.generators)
        ) + tuple((i, 1, g.degree % 2) for i, g in enumerate(base.generators))
        d_vals = {}
        for i, g in enumerate(base.generators):
            dg = base.differential.get(i)
            if dg is not None:
                d_vals[g.name] = self.include(dg)
        for i, g in enumerate(base.generators):
            img = self.algebra.zero()
            for j, h in enumerate(base.generators):
                dh = base.differential.get(j)
                if dh is None:
                    continue
                coeff = self.algebra.partial(g.name, self.include(dh))  # [@g_i, d h] = d/dg_i (d h)
                if not coeff.is_zero():
                    img = img + coeff * self.algebra.gen(self.theta_names[j])
            if not img.is_zero():
                # -(-1)^{deg g_i}: forced by d[theta_i, g_j] = 0
                d_vals[self.theta_names[i]] = img.scale(1 if g.degree % 2 else -1)
        # the partials above need only the generators: the maps come last
        self.algebra = FreeCDGA(gens, differential=d_vals)

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

    def bracket(self, p: Elem, q: Elem) -> Elem:
        """[p, q]: for each parity P of |p| + n, [p_P, -] is the derivation
        of parity P with value -(-1)^{P(|g|+n)} [g, h] d_h p_P on a letter g,
        h its partner (see _partners), imaged through q."""
        alg = self.algebra
        if not p.algebra.compatible(alg) or not q.algebra.compatible(alg):
            raise ShiftMismatch("polyvectors from a different algebra or shift")
        parts = {}
        for m, c in p.terms.items():
            parts.setdefault((p.mono_degree(m) + self.shift) % 2, {})[m] = c
        letters = {i for m in q.terms for i in m}
        out = alg.zero()
        for parity, terms in parts.items():
            part = Elem(alg, terms)
            values = {}
            for g in letters:
                h, pair, odd = self._partners[g]
                v = _derive(alg, alg._partials[h], part)
                if not v.is_zero():
                    values[g] = v.scale(pair if parity and odd else -pair)
            out = out + apply_derivation(alg, q, values, parity)
        return out

    # -- bases -------------------------------------------------------------

    def basis(self, weight: int, degree: int, max_len: int):
        """Monomials of the given polyvector weight and degree (word window)."""
        return sorted(_box_words(self.algebra, max_len, weight, weight, degree, degree))

    # -- constant parts ------------------------------------------------------

    def constant_part(self, elem: Elem) -> Elem:
        """Drop every monomial containing a base generator (augmentation)."""
        return Elem(
            self.algebra,
            {m: c for m, c in elem.terms.items() if all(self.is_theta(i) for i in m)},
        )


# ---------------------------------------------------------------------------
# strict Poisson structures
# ---------------------------------------------------------------------------


class StrictPoissonReport(Record):
    # no __slots__: bracket_table is cached in the instance __dict__
    _fields = ("valid", "d_pi", "self_bracket", "pol", "pi")

    def __init__(self, valid: bool, d_pi: Elem, self_bracket: Elem, pol: PolyvectorAlgebra, pi: Elem):
        self.valid = valid
        self.d_pi = d_pi
        self.self_bracket = self_bracket
        self.pol = pol
        self.pi = pi

    def __repr__(self):
        return f"StrictPoissonReport(valid={self.valid})"

    @cached_property
    def bracket_table(self) -> dict:
        """(name, name) -> {g, h} in the B-included algebra, built on first
        read; empty when pi is not strict Poisson."""
        if not self.valid:
            return {}
        pol = self.pol
        gens = [(g.name, pol.include(pol.base.gen(g.name))) for g in pol.base.generators]
        return {(a, b): induced_bracket(pol, self.pi, f, g) for a, f in gens for b, g in gens}


def induced_bracket(pol: PolyvectorAlgebra, pi: Elem, f: Elem, g: Elem) -> Elem:
    """{f, g} := (-1)^{|f|+1} [[pi, f], g].

    The parity twist normalises the double bracket so that the classical
    bivector @x@y gives {x, y} = +1 and a constant pairing t on odd
    generators gives {xi_a, xi_b} = t(xi_a, xi_b).
    """
    out = pol.bracket(pol.bracket(pi, f), g)
    sign = 1 if (f.degree() or 0) % 2 else -1
    return out.scale(sign)


def check_strict_poisson(pol: PolyvectorAlgebra, pi: Elem) -> StrictPoissonReport:
    """Verify d pi = 0 and [pi, pi] = 0 for pi of weight 2, degree n+2
    in Pol(B, n+1); the induced bracket table is built on first read."""
    n = pol.shift - 1
    if not pi.is_zero() and (pi.weight() != 2 or pi.degree() != n + 2):
        raise BidegreeError(
            f"pi must be pure weight 2, degree {n + 2}; got weight {pi.weight()}, degree {pi.degree()}"
        )
    d_pi = pol.d(pi)
    self_bracket = pol.bracket(pi, pi)
    return StrictPoissonReport(d_pi.is_zero() and self_bracket.is_zero(), d_pi, self_bracket, pol, pi)


# ---------------------------------------------------------------------------
# Maurer-Cartan towers
# ---------------------------------------------------------------------------


class MaurerCartanTower(Record):
    """Weight-indexed components p_0, p_1, .. of a weak shifted Poisson
    structure: p_i has polyvector weight i+2 and degree n+2 in Pol(B, n+1)."""

    __slots__ = _fields = ("pol", "n", "components", "bound")

    def __init__(self, pol: PolyvectorAlgebra, n: int, components: list, bound: int = None):
        self.pol = pol
        self.n = n
        self.components = components  # of Elem
        self.bound = len(components) + 1 if bound is None else bound
        for i, p in enumerate(components):
            if p.is_zero():
                continue
            if p.weight() != i + 2 or p.degree() != n + 2:
                raise BidegreeError(f"p_{i} must have weight {i + 2} and degree {n + 2}")

    def component(self, i) -> Elem:
        if 0 <= i < len(self.components):
            return self.components[i]
        return self.pol.algebra.zero()


class MCReport(Record):
    __slots__ = _fields = ("valid", "first_failure", "residual")

    def __init__(self, valid: bool, first_failure: int = None, residual: Elem = None):
        self.valid = valid
        self.first_failure = first_failure
        self.residual = residual

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


def pairing_matrix(alg: FreeCDGA, symbols, elem: Elem) -> SparseMatrix:
    """M[i][j] = (d/d s_j)(d/d s_i) elem at the augmentation."""
    m = len(symbols)
    ent = {}
    for i, si in enumerate(symbols):
        first = alg.partial(si, elem)
        if first.is_zero():
            continue
        for j, sj in enumerate(symbols):
            c = alg.partial(sj, first).constant_term()
            if c:
                ent[i, j] = c
    return SparseMatrix(m, m, ent)


class NondegeneracyReport(Record):
    __slots__ = _fields = ("nondegenerate", "theta", "blocks")

    def __init__(self, nondegenerate: bool, theta: SparseMatrix, blocks: dict):
        self.nondegenerate = nondegenerate
        self.theta = theta  # generator-indexed pairing matrix
        self.blocks = blocks  # degree -> (rows, cols, rank)


def pairing_report(theta: SparseMatrix, gens, n: int) -> NondegeneracyReport:
    """Judge a pairing matrix degree by degree: the block for degree d pairs
    the generators of degree d (rows) with those of degree n - d (columns),
    and theta is non-degenerate when every block is square of full rank."""
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
    return NondegeneracyReport(all(r == c == k for r, c, k in blocks.values()), theta, blocks)


def nondegeneracy(pol: PolyvectorAlgebra, p0: Elem) -> NondegeneracyReport:
    """The pairing of p0 at the augmentation, judged at the Poisson shift
    n = pol.shift - 1.

    Theta[i][j] is the second partial of p0 in @g_i, then @g_j, at the
    augmentation, so only the constant part q of p0 enters; since
    [q, g_i] = +-d_{@g_i} q with a sign that depends on i only, row i is
    +-1 times the @g_j-coefficients of [q, g_i] and every block rank is the
    same as the bracket's.
    """
    theta = pairing_matrix(pol.algebra, pol.theta_names, p0)
    return pairing_report(theta, pol.base.generators, pol.shift - 1)


def require_nondegenerate(pol: PolyvectorAlgebra, p0: Elem) -> NondegeneracyReport:
    rep = nondegeneracy(pol, p0)
    if not rep.nondegenerate:
        raise Degenerate(f"pairing not invertible at the augmentation: {rep.blocks}")
    return rep
