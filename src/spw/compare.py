"""Strict Poisson <-> symplectic comparison at the affine level.

The dualization sign convention is fixed operationally: a two-tensor is
identified with its matrix of second left partial derivatives at the
augmentation, and both directions invert that matrix.  Round trips are
then exact identities by construction, which is the only
convention-independent normalisation.
"""

from __future__ import annotations

from fractions import Fraction as Rat

from .errors import Degenerate, GaugeNotFound, IdentityViolated, NoSolution, NotMinimal, WindowTooSmall
from .exactlin import SparseMatrix, solve_linear
from .freecdga import (
    ClosedFormTower,
    DeRhamAlgebra,
    Elem,
    FreeCDGA,
    Window,
    _closure,
    _window_monomials,
    de_rham,
    window_basis,
)
from .polyvec import (
    MaurerCartanTower,
    PolyvectorAlgebra,
    check_strict_poisson,
    mc_check,
    pairing_matrix,
    pairing_report,
    require_nondegenerate,
)
from .record import Record


# ---------------------------------------------------------------------------
# two-tensor <-> matrix translation
# ---------------------------------------------------------------------------


def _reconstruct_two_tensor(alg: FreeCDGA, symbols, mat: SparseMatrix) -> Elem:
    """The two-tensor in the given symbols whose second partials equal mat.

    Calibrated slot by slot over mat's nonzero entries folded to i <= j:
    s_i s_j gets mat[i][j] over its own (i, j) second partial, so no global
    sign convention enters; raises Degenerate if mat is not
    graded-symmetric for these symbols.
    """
    out = alg.zero()
    for i, j in sorted({(min(ij), max(ij)) for ij, _ in mat.items()}):
        mono_elem = alg.gen(symbols[i]) * alg.gen(symbols[j])
        if mono_elem.is_zero():
            raise Degenerate(f"matrix hits the vanishing slot {symbols[i]}*{symbols[j]}")
        t = alg.partial(symbols[j], alg.partial(symbols[i], mono_elem)).constant_term()
        out = out + mono_elem.scale(Rat(mat.entry(i, j)) / t)
    check = pairing_matrix(alg, symbols, out)
    if check != mat:
        raise Degenerate("matrix is not graded-symmetric for these symbols")
    return out


def _invert(mat: SparseMatrix) -> SparseMatrix:
    try:
        return solve_linear(mat, SparseMatrix.identity(mat.rows))
    except NoSolution:
        raise Degenerate("pairing matrix is singular") from None


# ---------------------------------------------------------------------------
# symplectic forms
# ---------------------------------------------------------------------------


class SymplecticForm(Record):
    """Strict weight-2 form of total degree n+2 with invertible pairing."""

    __slots__ = _fields = ("de_rham", "n", "omega", "theta")

    def __init__(self, de_rham: DeRhamAlgebra, n: int, omega: Elem, theta: SparseMatrix):
        self.de_rham = de_rham
        self.n = n
        self.omega = omega
        self.theta = theta

    @classmethod
    def build(cls, dr: DeRhamAlgebra, n: int, omega: Elem, theta: SparseMatrix) -> "SymplecticForm":
        """The form omega, given its pairing matrix theta (`pairing_matrix`)."""
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
        if not pairing_report(theta, dr.base.generators, n).nondegenerate:
            raise Degenerate("underlying pairing not invertible at the augmentation")
        return cls(dr, n, omega, theta)


# ---------------------------------------------------------------------------
# phi_pi
# ---------------------------------------------------------------------------


class PhiPiResult(Record):
    __slots__ = _fields = ("pol", "de_rham", "images", "chain_map_ok", "iso_blocks", "bidegree_iso")

    def __init__(self, pol: PolyvectorAlgebra, de_rham: DeRhamAlgebra, images: dict,
                 chain_map_ok: bool, iso_blocks: dict, bidegree_iso: bool):
        self.pol = pol
        self.de_rham = de_rham
        self.images = images  # generator/symbol name -> Elem of the polyvector algebra
        self.chain_map_ok = chain_map_ok
        self.iso_blocks = iso_blocks  # (weight, degree) -> (dim, rank)
        self.bidegree_iso = bidegree_iso


def phi_pi(base: FreeCDGA, pi: Elem, n: int, window: Window = None) -> PhiPiResult:
    """The comparison map DR^str(B) -> (Pol(B, n+1), [pi, -]).

    Identity on weight 0, pi-contraction dg -> [pi, g] on weight 1,
    extended multiplicatively.  Each generator image has its generator's
    parity, so phi d - d phi and phi eps - [pi, phi(-)] are phi-derivations,
    and a phi-derivation vanishes if it vanishes on generators: checked on
    the generators of DR(B), both identities hold on every monomial, inside
    the window and outside it.  Window words are imaged as prefix products.
    Raises Degenerate when pi fails non-degeneracy (Def-level flag; the
    map itself is still constructible via the returned images).
    """
    pol, _ = _strict_nondegenerate(base, pi, n)
    dr = de_rham(base)
    alg = dr.algebra
    window = window or Window(0, 3, -8, 8, 4)
    images = {}
    for g in base.generators:
        images[g.name] = pol.include(base.gen(g.name))
        images["d" + g.name] = pol.bracket(pi, pol.include(base.gen(g.name)))
    phi = {(i,): images[g.name] for i, g in enumerate(alg.generators)}
    phi[()] = pol.algebra.one()

    def image(word):
        if word not in phi:
            phi[word] = image(word[:-1]) * phi[word[-1:]]
        return phi[word]

    def apply(e):
        return sum((image(word).scale(c) for word, c in e.terms.items()), pol.algebra.zero())

    chain_ok = all(
        apply(alg.differential.get(i, alg.zero())) == pol.d(phi[i,])
        and apply(alg.mixed.get(i, alg.zero())) == pol.bracket(pi, phi[i,])
        for i in range(len(alg.generators))
    )
    iso_blocks = {}
    for bideg, words in _window_monomials(window_basis(alg, window))[0].items():
        ent = []
        targets = {}
        for j, word in enumerate(words):
            ent += [(targets.setdefault(m, len(targets)), j, c) for m, c in image(word).terms.items()]
        # bidegree-wise rank: images must stay independent
        iso_blocks[bideg] = (len(words), SparseMatrix(len(targets), len(words), ent).rank())
    bidegree_iso = all(dim == rank for dim, rank in iso_blocks.values())
    return PhiPiResult(pol, dr, images, chain_ok, iso_blocks, bidegree_iso)


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------


def _strict_nondegenerate(base: FreeCDGA, pi: Elem, n: int):
    """(Pol(B, n+1), pi's pairing matrix), once pi is checked strict
    Poisson and non-degenerate; raises Degenerate otherwise."""
    pol = PolyvectorAlgebra(base, n + 1)
    if not check_strict_poisson(pol, pi).valid:
        raise Degenerate("pi is not a strict Poisson structure")
    return pol, require_nondegenerate(pol, pi).theta


def poisson_to_form(base: FreeCDGA, pi: Elem, n: int) -> SymplecticForm:
    """omega with pairing matrix the inverse of pi's; round-trip exact."""
    _, m_pi = _strict_nondegenerate(base, pi, n)
    dr = de_rham(base)
    theta = _invert(m_pi)
    # _reconstruct_two_tensor checks that omega's pairing matrix is theta
    omega = _reconstruct_two_tensor(dr.algebra, dr.symbols, theta)
    return SymplecticForm.build(dr, n, omega, theta)


def symplectic_to_poisson(form: SymplecticForm) -> Elem:
    """The strict Poisson structure dual to a constant symplectic form."""
    pol = PolyvectorAlgebra(form.de_rham.base, form.n + 1)
    pi = _reconstruct_two_tensor(pol.algebra, pol.theta_names, _invert(form.theta))
    if not check_strict_poisson(pol, pi).valid:
        raise Degenerate("dual bivector fails the strict Poisson identities")
    return pi


# ---------------------------------------------------------------------------
# strictification of closed 2-forms
# ---------------------------------------------------------------------------


class StrictificationResult(Record):
    __slots__ = _fields = ("eta", "strict_form", "gauge", "window")

    def __init__(self, eta: Elem, strict_form: Elem, gauge: Elem, window: Window):
        self.eta = eta  # weight-1 potential: strict form = eps(eta)
        self.strict_form = strict_form
        self.gauge = gauge  # h with omega - strict = (d + eps) h in the window
        self.window = window


def strictify_closed_two_form(
    b: FreeCDGA, tower: ClosedFormTower, window: Window = None
) -> StrictificationResult:
    """Find eta and a gauge h with  tower - eps(eta) = (d+eps) h  exactly.

    Requires the differential of B to vanish at the augmentation to first
    order (minimality); the search is a bounded linear solve, and failure
    raises GaugeNotFound when the window holds no solution.  Raises
    WindowTooSmall when the window cannot hold omega: its max weight is
    below 2, or a term of omega of weight <= max weight is not a window
    word (the least such word is the witness).
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
    if window.wmax < 2:
        raise WindowTooSmall(f"max weight {window.wmax} is below the form degree p = 2")
    omega = tower.total()

    # unknowns: eta monomials (weight 1, degree n+1), h monomials
    # (weights >= 2, degree n+1); equations per monomial:
    #   eps(eta) + (d + eps)(h) = omega            (degree n+2)
    #   d(eps(eta)) = 0                            (degree n+3)
    # the unknowns are sorted, so the solution does not depend on the order
    # in which the closure met its words
    basis, images = _closure(alg, window)
    eta_monos = sorted(m for m, (w, d) in basis.items() if w == 1 and d == n + 1)
    h_monos = sorted(m for m, (w, d) in basis.items() if 2 <= w and d == n + 1)

    def image(e, k):
        """d (k = 0) or eps (k = 1) of e, from the closure's images where it has them."""
        out = alg.zero()
        for m, c in e.terms.items():
            img = Elem(alg, images[m][k]) if m in images else (alg.d, alg.eps)[k](Elem(alg, {m: 1}))
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

    outside = [m for m in drop_overflow(omega).terms if m not in basis]
    if outside:
        word = alg.mono_str(min(outside))
        raise WindowTooSmall(f"the form's term {word} is not a window word", witness=word)
    unknowns = [("eta", m) for m in eta_monos] + [("h", m) for m in h_monos]
    targets = {}
    side_targets = {}
    main_ent = []
    side_ent = []
    for j, (kind, mono) in enumerate(unknowns):
        d_x, eps_x = (Elem(alg, img) for img in images[mono])
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
    n_rows = n_main + len(side_targets)
    rhs = SparseMatrix(n_rows, 1, [(targets[mm], 0, c) for mm, c in omega.terms.items()])
    mat = SparseMatrix(
        n_rows, len(unknowns), main_ent + [(n_main + i, j, c) for i, j, c in side_ent]
    )
    try:
        sol = solve_linear(mat, rhs)
    except NoSolution:
        raise GaugeNotFound("no gauge in the window") from None
    parts = {"eta": {}, "h": {}}
    for (j, _), c in sol.items():
        kind, m = unknowns[j]
        parts[kind][m] = c
    eta, h = Elem(alg, parts["eta"]), Elem(alg, parts["h"])
    strict = image(eta, 1)
    if not (image(strict, 0).is_zero() and image(strict, 1).is_zero()):
        raise IdentityViolated("strictified form is not d- and eps-closed")
    if not drop_overflow(omega - strict - image(h, 0) - image(h, 1)).is_zero():
        raise IdentityViolated("omega - strict != (d + eps) h in the window")
    return StrictificationResult(eta, strict, h, window)


# ---------------------------------------------------------------------------
# Darboux leading term
# ---------------------------------------------------------------------------


class DarbouxReport(Record):
    __slots__ = _fields = ("q", "residual", "q_closed", "q_self_bracket_zero", "rewritten_mc_ok")

    def __init__(self, q: Elem, residual: list, q_closed: bool, q_self_bracket_zero: bool,
                 rewritten_mc_ok: bool):
        self.q = q
        self.residual = residual  # components of pi' = tower - q
        self.q_closed = q_closed
        self.q_self_bracket_zero = q_self_bracket_zero
        self.rewritten_mc_ok = rewritten_mc_ok

    @property
    def valid(self):
        return self.q_closed and self.q_self_bracket_zero and self.rewritten_mc_ok


def darboux_leading_term(tower: MaurerCartanTower) -> DarbouxReport:
    """Extract the constant bivector q from p_0 and verify the rewritten
    Maurer-Cartan equation d pi' + [q, pi'] + 1/2 [pi', pi'] = 0."""
    mc = mc_check(tower)
    if not mc.valid:
        raise ValueError(f"tower fails its own MC equations at i={mc.first_failure}")
    return _darboux_report(tower)


def _darboux_report(tower: MaurerCartanTower) -> DarbouxReport:
    """darboux_leading_term on a tower whose MC equations hold."""
    pol = tower.pol
    require_nondegenerate(pol, tower.component(0))
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
