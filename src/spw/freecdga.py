"""Free graded-commutative dg-algebras over Q with exact coefficients.

A monomial is a sorted tuple of generator indices; odd-degree generators
square to zero and Koszul signs come from the cohomological degree only.
All sign bookkeeping is transposition counting against the fixed index
order of the generators.

Derivations are given on generators and extended by graded Leibniz, so
d^2 = 0 and the mixed identities only ever need to be verified on
generators (the square of an odd derivation is again a derivation).

Conventions fixed here:

* the de Rham symbol of a generator g is called  d<g>  and has
  cohomological degree deg(g) + 1 and weight wt(g) + 1 (the [-1] shift
  of the Kaehler module, so the mixed differential has degree +1);
* the cohomological differential of the de Rham algebra satisfies
  d(dg) = -dR(d g), forced by  d eps + eps d = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat

from .errors import BidegreeMismatch, DuplicateName, NotRegular, SignError, WindowTooSmall
from .gradedmixed import (
    BiGradedModule,
    ChainComplex,
    GradedMixedComplex,
    weight_window_total_complex,
)
from .exactlin import SparseMatrix, _as_rat, kernel_basis


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    weight: int = 0
    internal_weight: int = 0


class FreeCDGA:
    """Free graded-commutative algebra with optional d and mixed eps."""

    def __init__(self, generators, base_names=()):
        gens = []
        for g in generators:
            if isinstance(g, Generator):
                gens.append(g)
            else:
                gens.append(Generator(*g))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise DuplicateName("duplicate generator names")
        self.generators = tuple(gens)
        self.signature = tuple((g.name, g.degree, g.weight, g.internal_weight) for g in gens)
        self.index = {g.name: i for i, g in enumerate(gens)}
        self.base_names = frozenset(base_names)
        for b in self.base_names:
            if b not in self.index:
                raise ValueError(f"base generator {b!r} not among generators")
        self.differential = {}  # gen index -> Elem
        self.mixed = {}  # gen index -> Elem

    # -- identity ------------------------------------------------------

    def compatible(self, other) -> bool:
        return self.signature == other.signature

    def gen_degree(self, i) -> int:
        return self.generators[i].degree

    def gen_weight(self, i) -> int:
        return self.generators[i].weight

    # -- element constructors -------------------------------------------

    def zero(self) -> "Elem":
        return Elem(self, {})

    def one(self) -> "Elem":
        return Elem(self, {(): Rat(1)})

    def scalar(self, c) -> "Elem":
        c = _as_rat(c)
        return Elem(self, {(): c} if c else {})

    def gen(self, name) -> "Elem":
        return Elem(self, {(self.index[name],): Rat(1)})

    def monomial(self, names, coeff=1) -> "Elem":
        e = self.scalar(coeff)
        for n in names:
            e = e * self.gen(n)
        return e

    # -- structure maps --------------------------------------------------

    def set_differential(self, values):
        """Install d on generators; values is {name: Elem}.  Returns self."""
        self.differential = {
            self.index[name]: v for name, v in values.items() if not v.is_zero()
        }
        return self

    def set_mixed(self, values):
        self.mixed = {
            self.index[name]: v for name, v in values.items() if not v.is_zero()
        }
        return self

    def d(self, elem: "Elem") -> "Elem":
        return apply_derivation(self, elem, self.differential, parity=1)

    def eps(self, elem: "Elem") -> "Elem":
        return apply_derivation(self, elem, self.mixed, parity=1)

    def partial(self, name, elem: "Elem") -> "Elem":
        """Left graded partial derivative with respect to one generator."""
        i = self.index[name]
        return apply_derivation(
            self, elem, {i: self.one()}, parity=self.gen_degree(i) % 2
        )

    # -- display ----------------------------------------------------------

    def mono_str(self, mono) -> str:
        if not mono:
            return "1"
        parts = []
        run = None
        for i in mono:
            if run and run[0] == i:
                run[1] += 1
            else:
                if run:
                    parts.append(run)
                run = [i, 1]
        parts.append(run)
        return "*".join(
            self.generators[i].name + (f"^{e}" if e > 1 else "") for i, e in parts
        )

    def __repr__(self):
        gens = ", ".join(f"{g.name}({g.degree})" for g in self.generators)
        return f"FreeCDGA[{gens}]"


class Elem:
    """Exact polynomial in the generators of a FreeCDGA."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            other = self.algebra.scalar(other)
        return (
            isinstance(other, Elem)
            and self.algebra.compatible(other.algebra)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Rat)):
            other = self.algebra.scalar(other)
        if not self.algebra.compatible(other.algebra):
            raise ValueError("elements of different algebras")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Rat(0)) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Elem(self.algebra, terms)

    __radd__ = __add__

    def __neg__(self):
        return Elem(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Rat)):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = _as_rat(c)
        if not c:
            return self.algebra.zero()
        return Elem(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return self.scale(other)
        if not self.algebra.compatible(other.algebra):
            raise ValueError("elements of different algebras")
        alg = self.algebra
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sm = mono_mul(alg, m1, m2)
                if sm is None:
                    continue
                sign, m = sm
                v = acc.get(m, Rat(0)) + sign * c1 * c2
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return Elem(alg, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Rat)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def mono_degree(self, mono) -> int:
        return sum(self.algebra.gen_degree(i) for i in mono)

    def degree(self):
        """Cohomological degree if homogeneous, else None."""
        degs = {self.mono_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else (0 if not degs else None)

    def weight(self):
        wts = {sum(self.algebra.gen_weight(i) for i in m) for m in self.terms}
        return wts.pop() if len(wts) == 1 else (0 if not wts else None)

    def constant_term(self) -> Rat:
        return self.terms.get((), Rat(0))

    def augmentation(self) -> "Elem":
        """Image under all generators -> 0: the constant part."""
        return self.algebra.scalar(self.constant_term())

    def coefficient(self, mono) -> Rat:
        return self.terms.get(tuple(mono), Rat(0))

    def __repr__(self):
        if self.is_zero():
            return "0"
        alg = self.algebra
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            cs = "" if c == 1 and m else ("-" if c == -1 and m else f"{c}" + ("*" if m else ""))
            parts.append(f"{cs}{alg.mono_str(m) if m else ('' if cs else str(c))}")
        return " + ".join(parts).replace("+ -", "- ")


def mono_mul(alg, m1, m2):
    """Merge two canonical words; None if an odd generator repeats.

    Sign: one transposition per crossing pair of odd letters.
    """
    sign_exp = 0
    odd1 = [i for i in m1 if alg.gen_degree(i) % 2]
    for b in m2:
        if alg.gen_degree(b) % 2:
            if b in odd1:
                return None
            sign_exp += sum(1 for a in odd1 if a > b)
    merged = tuple(sorted(m1 + m2))
    return (-1 if sign_exp % 2 else 1), merged


def apply_derivation(alg, elem, values, parity):
    """Extend generator values to a graded derivation of the given parity.

    values: {gen index: Elem}.  On a word l_1..l_k the j-th term carries
    the sign (-1)^(parity * (deg l_1 + .. + deg l_{j-1})).
    """
    acc = {}
    for mono, coeff in elem.terms.items():
        pre_parity = 0
        for j, letter in enumerate(mono):
            val = values.get(letter)
            if val is not None:
                c0 = -coeff if parity and pre_parity % 2 else coeff
                head, tail = mono[:j], mono[j + 1:]
                for t, c in val.terms.items():
                    left = mono_mul(alg, head, t)
                    if left is None:
                        continue
                    right = mono_mul(alg, left[1], tail)
                    if right is None:
                        continue
                    m = right[1]
                    v = c0 * c if left[0] == right[0] else -(c0 * c)
                    if m in acc:
                        v += acc[m]
                        if not v:
                            del acc[m]
                            continue
                    acc[m] = v
            pre_parity += alg.gen_degree(letter)
    return Elem(alg, acc)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class CdgaReport:
    __slots__ = ("violations",)

    def __init__(self, violations):
        self.violations = violations

    @property
    def valid(self):
        return not self.violations

    def __repr__(self):
        return "CdgaReport(valid)" if self.valid else f"CdgaReport({self.violations})"


def validate_cdga(alg: FreeCDGA, check_mixed=True) -> CdgaReport:
    """Check bidegrees and d^2 = 0 on generators, plus Leibniz consistency
    on all quadratic monomials; with check_mixed also eps^2 and d eps + eps d.
    """
    violations = []
    for i, g in enumerate(alg.generators):
        dg = alg.differential.get(i)
        if dg is not None:
            if dg.degree() not in (None, g.degree + 1) and not dg.is_zero():
                violations.append(("d degree", g.name))
            if dg.weight() not in (None, g.weight) and not dg.is_zero():
                violations.append(("d weight", g.name))
            if dg.degree() is None:
                violations.append(("d inhomogeneous", g.name))
        ddg = alg.d(alg.d(alg.gen(g.name)))
        if not ddg.is_zero():
            violations.append(("d^2", g.name))
    # Leibniz consistency of the extension on quadratic monomials
    for i, g in enumerate(alg.generators):
        for h in alg.generators[i:]:
            x, y = alg.gen(g.name), alg.gen(h.name)
            lhs = alg.d(x * y)
            rhs = alg.d(x) * y + (x * alg.d(y)).scale(-1 if g.degree % 2 else 1)
            if lhs != rhs:
                raise SignError("Leibniz failure", witness=f"{g.name}*{h.name}")
    if check_mixed and alg.mixed:
        for i, g in enumerate(alg.generators):
            eg = alg.mixed.get(i)
            if eg is not None and not eg.is_zero():
                if eg.degree() != g.degree + 1:
                    violations.append(("eps degree", g.name))
                if eg.weight() != g.weight + 1:
                    violations.append(("eps weight", g.name))
            if not alg.eps(alg.eps(alg.gen(g.name))).is_zero():
                violations.append(("eps^2", g.name))
            anti = alg.d(alg.eps(alg.gen(g.name))) + alg.eps(alg.d(alg.gen(g.name)))
            if not anti.is_zero():
                violations.append(("d eps + eps d", g.name))
    return CdgaReport(violations)


# ---------------------------------------------------------------------------
# windows: finite exact slices of an algebra
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """Truncation window: weights and degrees inclusive, word length seed.

    The basis is the d/eps-closure of all monomials of word length
    <= max_len inside the bidegree box.  Images above wmax or dmax are
    projected away (quotient complex, still exact); an image inside the
    box that the closure cannot absorb within `closure_rounds` raises
    WindowTooSmall.
    """

    wmin: int = 0
    wmax: int = 6
    dmin: int = -8
    dmax: int = 8
    max_len: int = 6
    closure_rounds: int = 64


def enumerate_monomials(alg: FreeCDGA, max_len: int):
    """All canonical words of length <= max_len (odd letters at most once)."""
    n = len(alg.generators)

    def rec(start, budget):
        yield ()
        for i in range(start, n):
            cap = 1 if alg.gen_degree(i) % 2 else budget
            if budget == 0:
                return
            word = ()
            for e in range(1, min(cap, budget) + 1):
                word = word + (i,)
                for rest in rec(i + 1, budget - e):
                    yield word + rest

    seen = set()
    for w in rec(0, max_len):
        if w not in seen:
            seen.add(w)
            yield w


def _mono_bidegree(alg, mono):
    return (
        sum(alg.gen_weight(i) for i in mono),
        sum(alg.gen_degree(i) for i in mono),
    )


def _closure(alg: FreeCDGA, window: Window):
    """The window basis {mono: (w, d)} and {mono: (d mono, eps mono)}.

    Each basis monomial's two images are computed once, as the closure
    reaches it; see Window.
    """
    inside = {}
    for m in enumerate_monomials(alg, window.max_len):
        w, d = _mono_bidegree(alg, m)
        if window.wmin <= w <= window.wmax and window.dmin <= d <= window.dmax:
            inside[m] = (w, d)
    images = {}
    frontier = list(inside)
    for _ in range(window.closure_rounds):
        new = []
        for m in frontier:
            x = Elem(alg, {m: Rat(1)})
            images[m] = (alg.d(x), alg.eps(x))
            for image in images[m]:
                for m2 in image.terms:
                    if m2 in inside:
                        continue
                    w, d = _mono_bidegree(alg, m2)
                    if w > window.wmax or d > window.dmax:
                        continue  # quotient truncation
                    if w < window.wmin or d < window.dmin:
                        raise WindowTooSmall(
                            "differential image below the window", witness=alg.mono_str(m2)
                        )
                    inside[m2] = (w, d)
                    new.append(m2)
        if not new:
            break
        frontier = new
    else:
        raise WindowTooSmall(
            "window closure did not terminate", witness=alg.mono_str(frontier[0])
        )
    return inside, images


def window_basis(alg: FreeCDGA, window: Window):
    """Monomial basis of the window, closed under d and eps (see Window)."""
    return _closure(alg, window)[0]


def _window_monomials(inside):
    """The window monomials grouped by bidegree, in sorted order."""
    monos = {}
    for m, bideg in sorted(inside.items(), key=lambda kv: (kv[1], kv[0])):
        monos.setdefault(bideg, []).append(m)
    return monos


def _derivation_blocks(alg, monos, image, k):
    """Blocks of a map of bidegree (k, 1) given by image(mono) -> Elem.

    Rows are keyed by monomial.  Image terms outside the window are
    projected away; a term inside it at another bidegree raises
    BidegreeMismatch.
    """
    at = {m: (bideg, i) for bideg, ms in monos.items() for i, m in enumerate(ms)}
    out = {}
    for (w, d), ms in monos.items():
        tgt = (w + k, d + 1)
        ent = {}
        for j, m in enumerate(ms):
            for m2, c in image(m).terms.items():
                pos = at.get(m2)
                if pos is None:
                    continue
                if pos[0] != tgt:
                    raise BidegreeMismatch(
                        f"image of {alg.mono_str(m)} has the term {alg.mono_str(m2)} "
                        f"in bidegree {pos[0]}, expected {tgt}"
                    )
                ent[pos[1], j] = c
        if ent:
            out[w, d] = SparseMatrix(len(monos[tgt]), len(ms), ent)
    return out


def graded_mixed_window(alg: FreeCDGA, window: Window):
    """Finite GradedMixedComplex slice of a (mixed) cdga plus monomial index.

    Returns (complex, mono_of_label) where labels are canonical monomial
    strings sorted deterministically inside each bidegree.  Images above
    the window are projected away.
    """
    inside, images = _closure(alg, window)
    monos = _window_monomials(inside)
    mod = BiGradedModule({bideg: [alg.mono_str(m) for m in ms] for bideg, ms in monos.items()})
    mono_of = {lab: m for bideg, ms in monos.items() for lab, m in zip(mod.labels(*bideg), ms)}
    d = _derivation_blocks(alg, monos, lambda m: images[m][0], 0)
    eps = _derivation_blocks(alg, monos, lambda m: images[m][1], 1)
    return GradedMixedComplex(mod, d, eps), mono_of


def total_complex_window(alg: FreeCDGA, window: Window) -> ChainComplex:
    """Total (d + eps) complex of the window, weights wmin..wmax."""
    cx, _ = graded_mixed_window(alg, window)
    return weight_window_total_complex(cx, window.wmin, window.wmax)


# ---------------------------------------------------------------------------
# Kaehler differentials and de Rham algebras
# ---------------------------------------------------------------------------


@dataclass
class KaehlerModule:
    """Omega^1_{B/A}: free B-module on unshifted symbols d<g>.

    Realized inside the auxiliary algebra `ambient` = B[d<g>] where the
    symbol has the same degree as g and weight wt(g)+1; `symbols` lists
    the module generators (base generators contribute none).
    """

    base: FreeCDGA
    ambient: FreeCDGA
    symbols: tuple

    def rank(self):
        return len(self.symbols)

    def d_symbol(self, sym) -> Elem:
        return self.ambient.d(self.ambient.gen(sym))


def _with_symbols(b: FreeCDGA, shift):
    """B[d<g>] on a symbol d<g> of degree deg(g) + shift and weight
    wt(g) + 1 for each non-base generator g, and the universal derivation
    u: g -> d<g> of parity `shift` as {gen index: Elem}.

    The differential of B is carried over, with d(d<g>) = (-1)^shift u(d g).
    Raises BidegreeMismatch when some d g is not of bidegree
    (wt(g), deg(g) + 1).
    """
    gens = list(b.generators)
    for g in b.generators:
        if g.name in b.base_names:
            continue
        if "d" + g.name in b.index:
            raise DuplicateName(f"symbol name {'d' + g.name!r} collides with a generator")
        gens.append(Generator("d" + g.name, g.degree + shift, g.weight + 1, g.internal_weight))
    alg = FreeCDGA(gens, base_names=b.base_names)
    u = {
        alg.index[g.name]: alg.gen("d" + g.name)
        for g in b.generators
        if g.name not in b.base_names
    }
    d_vals = {}
    for i, g in enumerate(b.generators):
        dg = b.differential.get(i)
        if dg is None:
            continue
        want = (g.weight, g.degree + 1)
        for m in dg.terms:
            if _mono_bidegree(b, m) != want:
                raise BidegreeMismatch(
                    f"d({g.name}) has the term {b.mono_str(m)} outside bidegree {want}"
                )
        d_vals[g.name] = Elem(alg, dg.terms)
    for i, g in enumerate(b.generators):
        if g.name not in b.base_names and i in b.differential:
            val = apply_derivation(alg, d_vals[g.name], u, parity=shift)
            d_vals["d" + g.name] = val.scale(-1) if shift % 2 else val
    alg.set_differential(d_vals)
    return alg, u


def kaehler(b: FreeCDGA) -> KaehlerModule:
    """Kaehler module on d<g> for non-base generators; d(dg) = dR(d g)."""
    amb, _ = _with_symbols(b, 0)
    symbols = tuple(g.name for g in amb.generators[len(b.generators):])
    return KaehlerModule(base=b, ambient=amb, symbols=symbols)


@dataclass
class DeRhamAlgebra:
    """Sym_B(Omega^1_{B/A}[-1]) with the de Rham differential as eps.

    d<g> has degree deg(g)+1, weight wt(g)+1; eps(g) = d<g>, eps(d<g>) = 0,
    and d(d<g>) = -dR(d g) so that d eps + eps d = 0.
    """

    base: FreeCDGA
    algebra: FreeCDGA
    symbols: tuple

    def weight_dim_window(self, j, max_len):
        """Dimension of the weight-j part per degree within the word window."""
        dims = {}
        for m in enumerate_monomials(self.algebra, max_len):
            w, d = _mono_bidegree(self.algebra, m)
            if w == j:
                dims[d] = dims.get(d, 0) + 1
        return dims


def de_rham(b: FreeCDGA) -> DeRhamAlgebra:
    """Strict de Rham graded mixed cdga of B (relative to its base)."""
    alg, u = _with_symbols(b, 1)
    alg.mixed = u
    symbols = tuple(g.name for g in alg.generators[len(b.generators):])
    return DeRhamAlgebra(base=b, algebra=alg, symbols=symbols)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@dataclass
class ClosedFormTower:
    """Components omega_j in DR(B)(j)^{n+p} for j = p..top satisfying
    d omega_j + eps omega_{j-1} = 0 (omega_{p-1} = 0) in the window."""

    de_rham: DeRhamAlgebra
    p: int
    n: int
    components: dict  # weight -> Elem

    def total(self) -> Elem:
        out = self.de_rham.algebra.zero()
        for e in self.components.values():
            out = out + e
        return out

    def underlying_form(self) -> Elem:
        return self.components.get(self.p, self.de_rham.algebra.zero())

    def is_strict(self) -> bool:
        return all(
            e.is_zero() for w, e in self.components.items() if w != self.p
        )

    def check_cocycle(self, wmax) -> bool:
        alg = self.de_rham.algebra
        total = self.total()
        image = alg.d(total) + alg.eps(total)
        for m in image.terms:
            w = sum(alg.gen_weight(i) for i in m)
            if w <= wmax:
                return False
        return True


def underlying_form(tower: ClosedFormTower) -> Elem:
    return tower.underlying_form()


@dataclass
class ClosedFormReport:
    dimension: int
    representatives: list  # of ClosedFormTower
    stage_dims: dict  # m -> dim at Hodge stage weights p..m
    fiber_dims: dict  # m -> dim of the weight-(m+1) fiber term
    modulo_exact_dimension: int = None


def closed_form_classes(
    b: FreeCDGA, p: int, n: int, wmax: int, max_len=6, modulo_exact=False
) -> ClosedFormReport:
    """pi_0 of the space of closed p-forms of degree n, truncated at wmax.

    Computes H^{n+p} of the total complex of DR(B) in weights p..wmax
    (a genuine subquotient: weights >= p form a subcomplex since d and
    eps never lower weight).  Also reports the Hodge-stage dimensions
    and the fibration-sequence fiber dimensions.

    With modulo_exact the report additionally quotients by the de Rham
    images of d-closed weight-(p-1) elements: the class of the
    underlying form in de Rham cohomology rather than the Hodge piece.
    """
    dr = de_rham(b)
    deg = n + p
    stage_dims = {}
    reps = []
    dim = 0
    for top in range(p, wmax + 1):
        window = Window(wmin=p, wmax=top, dmin=deg - 2, dmax=deg + 2, max_len=max_len)
        cx, mono_of = graded_mixed_window(dr.algebra, window)
        total = weight_window_total_complex(cx, p, top)
        h = total.homology(deg)
        stage_dims[top] = h.dimension
        if top == wmax:
            dim = h.dimension
            labels = total.basis.get(deg, [])
            for v in h.representatives:
                comps = {}
                for coeff, (w, lab) in zip(v, labels):
                    if coeff:
                        e = comps.get(w, dr.algebra.zero())
                        comps[w] = e + Elem(dr.algebra, {mono_of[lab]: coeff})
                reps.append(ClosedFormTower(dr, p, n, comps))
    fiber_dims = {}
    for m in range(p, wmax):
        # fiber of stage m+1 -> stage m: H^{n+p} of the weight-(m+1) column
        window = Window(wmin=m + 1, wmax=m + 1, dmin=deg - 2, dmax=deg + 2, max_len=max_len)
        cx, _ = graded_mixed_window(dr.algebra, window)
        col = weight_window_total_complex(cx, m + 1, m + 1)
        fiber_dims[m] = col.homology_dim(deg)
    mod_dim = None
    if modulo_exact:
        mod_dim = _modulo_exact_dimension(dr, p, deg, wmax, max_len)
    return ClosedFormReport(dim, reps, stage_dims, fiber_dims, mod_dim)


def _modulo_exact_dimension(dr, p, deg, wmax, max_len):
    """Cocycles in weights p..wmax at degree `deg`, modulo total boundaries
    and de Rham images of d-closed weight-(p-1) elements."""
    window = Window(wmin=max(p - 1, 0), wmax=wmax, dmin=deg - 2, dmax=deg + 2, max_len=max_len)
    cx, mono_of = graded_mixed_window(dr.algebra, window)
    total = weight_window_total_complex(cx, p, wmax)
    labels = total.basis.get(deg, [])
    if not labels:
        return 0
    index = {mono_of[lab]: i for i, (_, lab) in enumerate(labels)}
    boundary = [(i, j, v) for (i, j), v in total.d_block(deg - 1).items()]
    n_bdry = total.dim(deg - 1)
    # de Rham images of d-closed weight-(p-1) elements of degree deg-1
    low = [mono_of[lab] for lab in cx.module.labels(p - 1, deg - 1)] if p >= 1 else []
    if low:
        d_targets = {}
        d_ent = [
            (d_targets.setdefault(m2, len(d_targets)), j, c)
            for j, m in enumerate(low)
            for m2, c in dr.algebra.d(Elem(dr.algebra, {m: Rat(1)})).terms.items()
        ]
        for v in kernel_basis(SparseMatrix(len(d_targets), len(low), d_ent)):
            eta = Elem(dr.algebra, {m: c for c, m in zip(v, low) if c})
            img = dr.algebra.eps(eta)
            if all(m2 in index for m2 in img.terms):
                boundary += [(index[m2], n_bdry, c) for m2, c in img.terms.items()]
                n_bdry += 1
    cocycles = kernel_basis(total.d_block(deg))
    full = SparseMatrix(
        len(labels),
        n_bdry + len(cocycles),
        boundary + [(i, n_bdry + t, x) for t, z in enumerate(cocycles) for i, x in enumerate(z) if x],
    )
    return full.rank() - SparseMatrix(len(labels), n_bdry, boundary).rank()


# ---------------------------------------------------------------------------
# Koszul complexes and the affine D-functor
# ---------------------------------------------------------------------------


@dataclass
class KoszulComplex:
    base: FreeCDGA
    algebra: FreeCDGA
    odd_gens: tuple
    relations: tuple  # the f_i^{n_i} as base elements

    def homotopy_dims(self, max_len=6, min_degree=-4):
        """H^0, H^{-1}, ... dims of the Koszul algebra in a word window."""
        window = Window(
            wmin=0, wmax=0, dmin=min_degree - 1, dmax=1, max_len=max_len
        )
        total = total_complex_window(self.algebra, window)
        return {(-m): total.homology_dim(m) for m in range(0, min_degree, -1)}


def koszul(b: FreeCDGA, fs, powers=None) -> KoszulComplex:
    """K(B, f_1^{n_1}, .., f_p^{n_p}): odd X_i in degree -1 with dX_i = f_i^{n_i}."""
    if any(g.degree != 0 for g in b.generators):
        raise ValueError("Koszul base must be a discrete polynomial ring")
    if powers is None:
        powers = [1] * len(fs)
    gens = list(b.generators)
    odd = []
    for i, _ in enumerate(fs):
        name = f"X{i+1}"
        while name in b.index:
            name = "_" + name
        gens.append(Generator(name, -1, 0, 0))
        odd.append(name)
    alg = FreeCDGA(gens)
    rels = []
    d_vals = {}
    for name, f, k in zip(odd, fs, powers):
        fk = Elem(alg, dict((f ** k).terms))
        if fk.constant_term():
            raise ValueError("Koszul relations must be non-units")
        d_vals[name] = fk
        rels.append(f ** k)
    alg.set_differential(d_vals)
    return KoszulComplex(base=b, algebra=alg, odd_gens=tuple(odd), relations=tuple(rels))


@dataclass
class CotangentTowerReport:
    """Pro-system of relative cotangent modules of K(B, f^n) after base change."""

    stages: int
    transition_matrices: list  # entries are base Elems, stage n+1 -> stage n
    raw_nonzero: bool
    zero_after_base_change: bool


def koszul_tower_cotangent(b: FreeCDGA, fs, stages: int) -> CotangentTowerReport:
    """Transitions X_i -> f_i X_i induce diag(f_i) on Omega^1 over B; every
    entry lies in (f) so the pro-system is zero after base change to B/(f)."""
    for f in fs:
        if f.constant_term():
            raise ValueError("relations must be non-units")
    mats = []
    for _ in range(1, stages + 1):
        mat = [
            [fs[i] if i == j else b.zero() for j in range(len(fs))]
            for i in range(len(fs))
        ]
        mats.append(mat)
    raw_nonzero = all(
        any(not mat[i][i].is_zero() for i in range(len(fs))) for mat in mats
    )
    # each diagonal entry is f_i * 1: an explicit member of the ideal (f)
    zero_after = all(
        all(
            mat[i][j].is_zero() or (i == j and (mat[i][j] - fs[i]).is_zero())
            for i in range(len(fs))
            for j in range(len(fs))
        )
        for mat in mats
    )
    return CotangentTowerReport(stages, mats, raw_nonzero, zero_after)


@dataclass
class DFunctorResult:
    koszul: KoszulComplex
    de_rham: DeRhamAlgebra
    weight0_h0_dims: dict
    realization_h0_dims: dict  # wmax -> dim of H^0 in the window


def d_functor(b: FreeCDGA, ideal_gens, wmax: int, max_len=5) -> DFunctorResult:
    """DR^str(K(B, I)/B): the affine formal-completion mixed cdga.

    The user asserts B/I reduced with I generated by a regular sequence;
    a probe window checks the higher Koszul homotopy and raises NotRegular
    on a nonzero group.
    """
    if not ideal_gens:
        dr = de_rham(b)
        h0 = {
            w: total_complex_window(dr.algebra, Window(0, w, -2, 2, max_len)).homology_dim(0)
            for w in range(0, wmax + 1)
        }
        return DFunctorResult(None, dr, {0: 1}, h0)
    k = koszul(b, ideal_gens)
    probe = k.homotopy_dims(max_len=max_len, min_degree=-3)
    if any(v for i, v in probe.items() if i >= 1):
        raise NotRegular(f"higher Koszul homotopy in probe window: {probe}")
    rel = FreeCDGA(k.algebra.generators, base_names=[g.name for g in b.generators])
    rel.set_differential(
        {k.algebra.generators[i].name: Elem(rel, dict(v.terms)) for i, v in k.algebra.differential.items()}
    )
    dr = de_rham(rel)
    weight0 = {}
    w0 = total_complex_window(dr.algebra, Window(0, 0, -3, 1, max_len))
    for m in range(-2, 1):
        weight0[m] = w0.homology_dim(m)
    h0 = {}
    for w in range(0, wmax + 1):
        total = total_complex_window(dr.algebra, Window(0, w, -2, 2, max_len))
        h0[w] = total.homology_dim(0)
    return DFunctorResult(k, dr, weight0, h0)
