"""Strict Poisson <-> symplectic comparison at the affine level.

The dualization sign convention is fixed operationally: a two-tensor is
identified with its matrix of second left partial derivatives at the
augmentation, and both directions invert that matrix.  Round trips are
then exact identities by construction, which is the only
convention-independent normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat

from .errors import Degenerate, GaugeNotFound, IdentityViolated, NotMinimal
from .exactlin import SparseMatrix, maybe_solve
from .freecdga import (
    ClosedFormTower,
    DeRhamAlgebra,
    Elem,
    FreeCDGA,
    Window,
    _closure,
    _window_monomials,
    de_rham,
)
from .polyvec import (
    MaurerCartanTower,
    PolyvectorAlgebra,
    check_strict_poisson,
    mc_check,
    pairing_blocks,
    require_nondegenerate,
)


# ---------------------------------------------------------------------------
# two-tensor <-> matrix translation
# ---------------------------------------------------------------------------


def _second_partials(alg: FreeCDGA, symbols, elem: Elem) -> SparseMatrix:
    """M[i][j] = (d/d s_j)(d/d s_i) elem at the augmentation."""
    m = len(symbols)
    ent = {}
    for i, si in enumerate(symbols):
        first = alg.partial(si, elem)
        for j, sj in enumerate(symbols):
            c = alg.partial(sj, first).constant_term()
            if c:
                ent[i, j] = c
    return SparseMatrix(m, m, ent)


def _reconstruct_two_tensor(alg: FreeCDGA, symbols, mat: SparseMatrix) -> Elem:
    """The two-tensor in the given symbols whose second partials equal mat.

    Calibrated monomial by monomial, so no global sign convention enters;
    raises Degenerate if mat is not graded-symmetric for these symbols.
    """
    out = alg.zero()
    m = len(symbols)
    for i in range(m):
        for j in range(i, m):
            mono_elem = alg.gen(symbols[i]) * alg.gen(symbols[j])
            if mono_elem.is_zero():
                if mat.entry(i, j) or mat.entry(j, i):
                    raise Degenerate(
                        f"matrix hits the vanishing slot {symbols[i]}*{symbols[j]}"
                    )
                continue
            probe = _second_partials(alg, symbols, mono_elem)
            t = probe.entry(i, j)
            if t == 0:
                continue
            out = out + mono_elem.scale(mat.entry(i, j) / t)
    check = _second_partials(alg, symbols, out)
    if check != mat:
        raise Degenerate("matrix is not graded-symmetric for these symbols")
    return out


def _invert(mat: SparseMatrix) -> SparseMatrix:
    n = mat.rows
    cols = []
    for e in range(n):
        rhs = [Rat(1) if t == e else Rat(0) for t in range(n)]
        sol = maybe_solve(mat, rhs)
        if sol is None:
            raise Degenerate("pairing matrix is singular")
        cols.append(list(sol[0]))
    return SparseMatrix.from_columns(cols, rows=n)


# ---------------------------------------------------------------------------
# symplectic forms
# ---------------------------------------------------------------------------


@dataclass
class SymplecticForm:
    """Strict weight-2 form of total degree n+2 with invertible pairing."""

    de_rham: DeRhamAlgebra
    n: int
    omega: Elem
    theta: SparseMatrix

    @classmethod
    def build(cls, dr: DeRhamAlgebra, n: int, omega: Elem) -> "SymplecticForm":
        alg = dr.algebra
        if not omega.is_zero():
            if omega.weight() != 2 or omega.degree() != n + 2:
                raise Degenerate(
                    f"omega must be weight 2, degree {n + 2}; got "
                    f"({omega.weight()}, {omega.degree()})"
                )
        if not alg.d(omega).is_zero():
            raise Degenerate("omega is not d-closed")
        if not alg.eps(omega).is_zero():
            raise Degenerate("omega is not strictly de Rham closed")
        theta = _second_partials(alg, dr.symbols, omega)
        form = cls(dr, n, omega, theta)
        if not form._blocks_invertible():
            raise Degenerate("underlying pairing not invertible at the augmentation")
        return form

    def _blocks_invertible(self) -> bool:
        blocks = pairing_blocks(self.theta, self.de_rham.base.generators, self.n)
        return all(r == c == k for r, c, k in blocks.values())


# ---------------------------------------------------------------------------
# phi_pi
# ---------------------------------------------------------------------------


@dataclass
class PhiPiResult:
    pol: PolyvectorAlgebra
    de_rham: DeRhamAlgebra
    images: dict  # generator/symbol name -> Elem of the polyvector algebra
    chain_map_ok: bool
    iso_blocks: dict  # (weight, degree) -> (dim, rank)
    bidegree_iso: bool

    def apply(self, e: Elem) -> Elem:
        """Multiplicative extension of the generator images."""
        out = self.pol.algebra.zero()
        for mono, c in e.terms.items():
            term = self.pol.algebra.one()
            for letter in mono:
                term = term * self.images[self.de_rham.algebra.generators[letter].name]
            out = out + term.scale(c)
        return out


def phi_pi(base: FreeCDGA, pi: Elem, n: int, window: Window = None) -> PhiPiResult:
    """The comparison map DR^str(B) -> (Pol(B, n+1), [pi, -]).

    Identity on weight 0, pi-contraction dg -> [pi, g] on weight 1,
    extended multiplicatively.  The chain-map identity ford and for the
    mixed differentials is verified on every monomial in the window.
    Raises Degenerate when pi fails non-degeneracy (Def-level flag; the
    map itself is still constructible via the returned images).
    """
    pol = PolyvectorAlgebra(base, n + 1)
    rep = check_strict_poisson(base, n, pi, pol)
    if not rep.valid:
        raise Degenerate("pi is not a strict Poisson structure")
    require_nondegenerate(pi, pol, n)
    dr = de_rham(base)
    window = window or Window(0, 3, -8, 8, 4)
    images = {}
    for g in base.generators:
        images[g.name] = pol.include(base.gen(g.name))
        images["d" + g.name] = pol.bracket(pi, pol.include(base.gen(g.name)))
    result = PhiPiResult(pol, dr, images, True, {}, True)
    inside, dr_images = _closure(dr.algebra, window)
    chain_ok = True
    for (p, m), monos in _window_monomials(inside).items():
        ent = []
        targets = {}
        for j, mono in enumerate(monos):
            phi_x = result.apply(Elem(dr.algebra, {mono: Rat(1)}))
            dx, ex = dr_images[mono]
            if result.apply(dx) != pol.d(phi_x) or result.apply(ex) != pol.bracket(pi, phi_x):
                chain_ok = False
            ent += [(targets.setdefault(mm, len(targets)), j, c) for mm, c in phi_x.terms.items()]
        # bidegree-wise rank: images must stay independent
        rank = SparseMatrix(len(targets), len(monos), ent).rank()
        result.iso_blocks[p, m] = (len(monos), rank)
        if rank < len(monos):
            result.bidegree_iso = False
    result.chain_map_ok = chain_ok
    return result


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------


def poisson_to_form(base: FreeCDGA, pi: Elem, n: int) -> SymplecticForm:
    """omega with pairing matrix the inverse of pi's; round-trip exact."""
    pol = PolyvectorAlgebra(base, n + 1)
    rep = check_strict_poisson(base, n, pi, pol)
    if not rep.valid:
        raise Degenerate("pi is not a strict Poisson structure")
    require_nondegenerate(pi, pol, n)
    theta_names = ["@" + g.name for g in base.generators]
    m_pi = _second_partials(pol.algebra, theta_names, pi)
    dr = de_rham(base)
    m_omega = _invert(m_pi)
    omega = _reconstruct_two_tensor(dr.algebra, dr.symbols, m_omega)
    return SymplecticForm.build(dr, n, omega)


def symplectic_to_poisson(form: SymplecticForm) -> Elem:
    """The strict Poisson structure dual to a constant symplectic form."""
    base = form.de_rham.base
    pol = PolyvectorAlgebra(base, form.n + 1)
    theta_names = ["@" + g.name for g in base.generators]
    m_pi = _invert(form.theta)
    pi = _reconstruct_two_tensor(pol.algebra, theta_names, m_pi)
    rep = check_strict_poisson(base, form.n, pi, pol)
    if not rep.valid:
        raise Degenerate("dual bivector fails the strict Poisson identities")
    return pi


# ---------------------------------------------------------------------------
# strictification of closed 2-forms
# ---------------------------------------------------------------------------


@dataclass
class StrictificationResult:
    eta: Elem  # weight-1 potential: strict form = eps(eta)
    strict_form: Elem
    gauge: Elem  # h with omega - strict = (d + eps) h in the window
    window: Window


def strictify_closed_two_form(
    b: FreeCDGA, tower: ClosedFormTower, window: Window = None
) -> StrictificationResult:
    """Find eta and a gauge h with  tower - eps(eta) = (d+eps) h  exactly.

    Requires the differential of B to vanish at the augmentation to first
    order (minimality); the search is a bounded linear solve, and failure
    raises GaugeNotFound carrying the in-window residual class dimension.
    """
    for i, g in enumerate(b.generators):
        dg = b.differential.get(i)
        if dg is not None and any(len(m) < 2 for m in dg.terms):
            raise NotMinimal(f"d({g.name}) has a constant or linear part")
    dr = tower.de_rham
    alg = dr.algebra
    n = tower.n
    deg = n + 2
    window = window or Window(wmin=1, wmax=6, dmin=deg - 2, dmax=deg + 2, max_len=6)
    omega = tower.total()

    # unknowns: eta monomials (weight 1, degree n+1), h monomials
    # (weights >= 2, degree n+1); equations per monomial:
    #   eps(eta) + (d + eps)(h) = omega            (degree n+2)
    #   d(eps(eta)) = 0                            (degree n+3)
    basis, images = _closure(alg, window)
    eta_monos = [
        m for m, (w, d) in basis.items() if w == 1 and d == n + 1
    ]
    h_monos = [m for m, (w, d) in basis.items() if 2 <= w and d == n + 1]

    def image(e, k):
        """d (k = 0) or eps (k = 1) of e, from the closure's images where it has them."""
        out = alg.zero()
        for m, c in e.terms.items():
            img = images[m][k] if m in images else (alg.d, alg.eps)[k](Elem(alg, {m: Rat(1)}))
            out = out + img.scale(c)
        return out

    def drop_overflow(e):
        return Elem(
            alg,
            {
                m: c
                for m, c in e.terms.items()
                if sum(alg.gen_weight(i) for i in m) <= window.wmax
            },
        )

    unknowns = [("eta", m) for m in eta_monos] + [("h", m) for m in h_monos]
    targets = {}
    side_targets = {}
    main_ent = []
    side_ent = []
    for j, (kind, mono) in enumerate(unknowns):
        d_x, eps_x = images[mono]
        if kind == "eta":
            main = drop_overflow(eps_x)
            side = drop_overflow(image(eps_x, 0))  # strictness: must vanish
            side_ent += [(side_targets.setdefault(mm, len(side_targets)), j, c) for mm, c in side.terms.items()]
        else:
            main = drop_overflow(d_x + eps_x)
        main_ent += [(targets.setdefault(mm, len(targets)), j, c) for mm, c in main.terms.items()]
    for mm in omega.terms:
        targets.setdefault(mm, len(targets))
    n_main = len(targets)
    rhs = [Rat(0)] * (n_main + len(side_targets))
    for mm, c in omega.terms.items():
        rhs[targets[mm]] = c
    mat = SparseMatrix(
        len(rhs), len(unknowns), main_ent + [(n_main + i, j, c) for i, j, c in side_ent]
    )
    sol = maybe_solve(mat, rhs)
    if sol is None:
        res_dim = _residual_class_dim(mat, rhs)
        raise GaugeNotFound(
            "no gauge in the window", residual_class_dim=res_dim
        )
    x, _ = sol
    eta = Elem(alg, {m: c for (kind, m), c in zip(unknowns, x) if kind == "eta" and c})
    h = Elem(alg, {m: c for (kind, m), c in zip(unknowns, x) if kind == "h" and c})
    strict = image(eta, 1)
    if not (image(strict, 0).is_zero() and image(strict, 1).is_zero()):
        raise IdentityViolated("strictified form is not d- and eps-closed")
    if not drop_overflow(omega - strict - image(h, 0) - image(h, 1)).is_zero():
        raise IdentityViolated("omega - strict != (d + eps) h in the window")
    return StrictificationResult(eta, strict, h, window)


def _residual_class_dim(mat, rhs):
    """1 if rhs is outside the column span (genuine in-window obstruction)."""
    ent = [(i, j, v) for (i, j), v in mat.items()]
    ent += [(i, mat.cols, v) for i, v in enumerate(rhs) if v]
    return SparseMatrix(mat.rows, mat.cols + 1, ent).rank() - mat.rank()


# ---------------------------------------------------------------------------
# Darboux leading term
# ---------------------------------------------------------------------------


@dataclass
class DarbouxReport:
    q: Elem
    residual: list  # components of pi' = tower - q
    q_closed: bool
    q_self_bracket_zero: bool
    rewritten_mc_ok: bool

    @property
    def valid(self):
        return self.q_closed and self.q_self_bracket_zero and self.rewritten_mc_ok


def darboux_leading_term(tower: MaurerCartanTower) -> DarbouxReport:
    """Extract the constant bivector q from p_0 and verify the rewritten
    Maurer-Cartan equation d pi' + [q, pi'] + 1/2 [pi', pi'] = 0."""
    mc = mc_check(tower)
    if not mc.valid:
        raise ValueError(f"tower fails its own MC equations at i={mc.first_failure}")
    require_nondegenerate(tower)
    pol = tower.pol
    q = pol.constant_part(tower.component(0))
    residual = [tower.component(0) - q] + [
        tower.component(i) for i in range(1, len(tower.components))
    ]
    pi_prime = pol.algebra.zero()
    for c in residual:
        pi_prime = pi_prime + c
    q_closed = pol.d(q).is_zero()
    q_sq = pol.bracket(q, q).is_zero()
    rewritten = (
        pol.d(pi_prime)
        + pol.bracket(q, pi_prime)
        + pol.bracket(pi_prime, pi_prime).scale(Rat(1, 2))
    )
    return DarbouxReport(q, residual, q_closed, q_sq, rewritten.is_zero())
