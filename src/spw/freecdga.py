"""Free graded-commutative dg-algebras over Q with exact coefficients.

A monomial is a sorted tuple of generator indices; odd-degree generators
square to zero and Koszul signs come from the cohomological degree only.
All sign bookkeeping is transposition counting against the fixed index
order of the generators.

Derivations are given on generators and extended by graded Leibniz, so
d^2 = 0 and the mixed identities only ever need to be verified on
generators (the square of an odd derivation is again a derivation).
An algebra's d and eps are fixed at construction, so each of their term
tables, like those of the partial derivatives, is built once per algebra,
on first use.

Conventions fixed here:

* the de Rham symbol of a generator g is called  d<g>  and has
  cohomological degree deg(g) + 1 and weight wt(g) + 1 (the [-1] shift
  of the Kaehler module, so the mixed differential has degree +1);
* the cohomological differential of the de Rham algebra satisfies
  d(dg) = -dR(d g), forced by  d eps + eps d = 0.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction as Rat
from functools import cached_property
from types import MappingProxyType

from .errors import (
    BidegreeError,
    BidegreeMismatch,
    DuplicateName,
    NotRegular,
    SignError,
    WindowTooSmall,
)
from .gradedmixed import (
    BiGradedModule,
    ChainComplex,
    GradedMixedComplex,
    stage_homology_dims,
    weight_window_total_complex,
)
from .exactlin import SparseMatrix, _as_rat
from .record import FrozenRecord, Record


class Generator(FrozenRecord):
    """Generator(name, degree[, weight]): a free generator; weight 0 unless given."""

    __slots__ = _fields = ("name", "degree", "weight")

    def __init__(self, name: str, degree: int, weight: int = 0):
        self.name = name
        self.degree = degree
        self.weight = weight


class FreeCDGA:
    """Free graded-commutative algebra with optional d and mixed eps, given
    once as {name: Elem on the same generators}; zero values are dropped."""

    def __init__(self, generators, base_names=(), differential=None, mixed=None):
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
        # per-letter data, indexed by generator index on the hot paths
        self.degrees = tuple(g.degree for g in gens)
        self.parities = tuple(g.degree % 2 for g in gens)
        self.weights = tuple(g.weight for g in gens)
        self.signature = tuple((g.name, g.degree, g.weight) for g in gens)
        self.index = {g.name: i for i, g in enumerate(gens)}
        self.base_names = frozenset(base_names)
        for b in self.base_names:
            if b not in self.index:
                raise ValueError(f"base generator {b!r} not among generators")
        self.differential = self._on_generators(differential)  # read-only, gen index -> Elem
        self.mixed = self._on_generators(mixed)

    def _on_generators(self, values):
        return MappingProxyType({
            self.index[name]: Elem(self, v.terms) for name, v in (values or {}).items() if not v.is_zero()
        })

    @cached_property
    def _tables(self):
        """The term tables (see _term_table) of d and of eps."""
        return _term_table(self, self.differential, 1), _term_table(self, self.mixed, 1)

    @cached_property
    def _partials(self):
        """The term table of the left partial derivative by each letter."""
        one = self.one()
        return tuple(_term_table(self, {i: one}, p) for i, p in enumerate(self.parities))

    # -- identity ------------------------------------------------------

    def compatible(self, other) -> bool:
        return self.signature == other.signature

    def gen_degree(self, i) -> int:
        return self.degrees[i]

    def gen_weight(self, i) -> int:
        return self.weights[i]

    # -- element constructors -------------------------------------------

    def zero(self) -> "Elem":
        return Elem(self, {})

    def one(self) -> "Elem":
        return Elem(self, {(): 1})

    def scalar(self, c) -> "Elem":
        c = _as_rat(c)
        return Elem(self, {(): c} if c else {})

    def gen(self, name) -> "Elem":
        return Elem(self, {(self.index[name],): 1})

    # -- structure maps --------------------------------------------------

    def d(self, elem: "Elem") -> "Elem":
        return _derive(self, self._tables[0], elem)

    def eps(self, elem: "Elem") -> "Elem":
        return _derive(self, self._tables[1], elem)

    def partial(self, name, elem: "Elem") -> "Elem":
        """Left graded partial derivative with respect to one generator."""
        return _derive(self, self._partials[self.index[name]], elem)

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

    def __add__(self, other):
        if isinstance(other, (int, Rat)):
            other = self.algebra.scalar(other)
        if not self.algebra.compatible(other.algebra):
            raise ValueError("elements of different algebras")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
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
                sm = mono_mul(alg.parities, m1, m2)
                if sm is None:
                    continue
                sign, m = sm
                v = acc.get(m, 0) + sign * c1 * c2
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return Elem(alg, acc)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def mono_degree(self, mono) -> int:
        degrees = self.algebra.degrees
        return sum(degrees[i] for i in mono)

    def degree(self):
        """Cohomological degree if homogeneous, else None."""
        degs = {self.mono_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else (0 if not degs else None)

    def weight(self):
        weights = self.algebra.weights
        wts = {sum(weights[i] for i in m) for m in self.terms}
        return wts.pop() if len(wts) == 1 else (0 if not wts else None)

    def constant_term(self):
        return self.terms.get((), 0)

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


def mono_mul(parities, m1, m2):
    """Merge two canonical words; None if an odd letter repeats.

    Sign: one transposition per crossing pair of odd letters.  `parities`
    maps each letter to its parity, the only thing read of an algebra, so
    the letters may be any that compare in word order, not only a
    FreeCDGA's generator indices.
    """
    sign_exp = 0
    odd1 = [i for i in m1 if parities[i]]
    if odd1:
        for b in m2:
            if parities[b]:
                if b in odd1:
                    return None
                sign_exp += sum(1 for a in odd1 if a > b)
    merged = tuple(sorted(m1 + m2))
    return (-1 if sign_exp % 2 else 1), merged


def apply_derivation(alg, elem, values, parity):
    """Extend generator values {gen index: Elem} to a graded derivation of
    the given parity and apply it to elem: `_image` images each word of
    elem into one shared dict.  The term table holds only the letters of
    elem."""
    table = _term_table(alg, {i: values[i] for mono in elem.terms for i in mono if i in values}, parity)
    return _derive(alg, table, elem)


def _derive(alg, table, elem):
    """The derivation of `table` (see _term_table) on elem."""
    acc = {}
    for mono, coeff in elem.terms.items():
        _image(table, mono, acc=acc, coeff=coeff)
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


def validate_cdga(alg: FreeCDGA) -> CdgaReport:
    """Check bidegrees, d^2 = 0, eps^2 = 0 and d eps + eps d = 0 on
    generators, plus Leibniz consistency on the quadratic monomials with a
    letter that d acts on: on the others both sides are 0."""
    violations = []
    for i, g in enumerate(alg.generators):
        dg = alg.differential.get(i)
        if dg is not None:
            if dg.degree() not in (None, g.degree + 1) and not dg.is_zero():
                violations.append(("d degree", g.name))
            if dg.weight() != g.weight:
                violations.append(("d weight", g.name))
            if dg.degree() is None:
                violations.append(("d inhomogeneous", g.name))
        ddg = alg.d(alg.d(alg.gen(g.name)))
        if not ddg.is_zero():
            violations.append(("d^2", g.name))
    # Leibniz consistency of the extension on quadratic monomials
    for i, g in enumerate(alg.generators):
        for j, h in enumerate(alg.generators[i:], i):
            if i not in alg.differential and j not in alg.differential:
                continue
            x, y = alg.gen(g.name), alg.gen(h.name)
            lhs = alg.d(x * y)
            rhs = alg.d(x) * y + (x * alg.d(y)).scale(-1 if g.degree % 2 else 1)
            if lhs != rhs:
                raise SignError("Leibniz failure", witness=f"{g.name}*{h.name}")
    if alg.mixed:
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

# rounds of the window closure before an image that stays inside the box
# raises WindowTooSmall
_CLOSURE_ROUNDS = 64


class Window(Record):
    """Truncation window: weights and degrees inclusive, word length seed.

    The basis is the d/eps-closure of all monomials of word length
    <= max_len inside the bidegree box.  Images above wmax or dmax are
    projected away (quotient complex, still exact); an image inside the
    box that the closure cannot absorb within `_CLOSURE_ROUNDS` rounds
    raises WindowTooSmall.  When d and eps raise the degree by one on every
    term, the words of degree dmax are not imaged: their images lie
    above the window.
    """

    __slots__ = _fields = ("wmin", "wmax", "dmin", "dmax", "max_len")

    def __init__(self, wmin: int = 0, wmax: int = 6, dmin: int = -8, dmax: int = 8,
                 max_len: int = 6):
        self.wmin = wmin
        self.wmax = wmax
        self.dmin = dmin
        self.dmax = dmax
        self.max_len = max_len


def _mono_bidegree(alg, mono):
    return sum(map(alg.weights.__getitem__, mono)), sum(map(alg.degrees.__getitem__, mono))


def _box_words(alg: FreeCDGA, max_len, wmin=None, wmax=None, dmin=None, dmax=None):
    """{word: (w, d)}: the canonical words of length <= max_len (odd
    letters at most once) whose bidegree lies in the box; None is an open
    bound.  The order is depth first: a word, then for each later letter
    in turn its extensions by one, two, .. copies of that letter, each
    followed by its own extensions.  The oracle `enumerate_monomials` in
    tests/helpers.py lists all words in this order.

    The bidegree is carried down the recursion, and a subtree is left out
    once its remaining letters cannot bring it back into the box: from
    letter s on, a word of budget b can still gain between b * (the least
    weight among letters s.., or 0) and b * (the greatest, or 0), and the
    same for degree, so negative weights and degrees are bounded too.
    """
    weights, degrees, parities = alg.weights, alg.degrees, alg.parities
    span = max(max_len, 0) * max(map(abs, weights + degrees), default=0)
    wmin = -span if wmin is None else wmin
    wmax = span if wmax is None else wmax
    dmin = -span if dmin is None else dmin
    dmax = span if dmax is None else dmax
    # runs[budget]: the budgets left after 1, 2, .. copies of a letter, up
    # to its cap (1 if odd, else max_len)
    top = max(max_len, 0) + 1
    even_runs = [range(b - 1, -1, -1) for b in range(top)]
    odd_runs = [range(b - 1, b - 2, -1) for b in range(top)]
    # one record per letter, with the least/greatest weight and degree of
    # the letters after it (or 0) and the records of those letters
    after = ()
    lw = hw = ld = hd = 0
    for i in range(len(weights) - 1, -1, -1):
        wi, di = weights[i], degrees[i]
        runs = odd_runs if parities[i] else even_runs
        after = ((i,), wi, di, lw, hw, ld, hd, runs, after), *after
        lw, hw, ld, hd = min(lw, wi), max(hw, wi), min(ld, di), max(hd, di)
    out = {}

    def rec(letters, budget, word, w, d):
        if wmin <= w <= wmax and dmin <= d <= dmax:
            out[word] = (w, d)
        if budget <= 0:
            return
        for letter, wi, di, lw, hw, ld, hd, runs, later in letters:
            ww, dd, grown = w, d, word
            for b in runs[budget]:
                ww += wi
                dd += di
                grown += letter
                if ww + b * lw <= wmax and ww + b * hw >= wmin and dd + b * ld <= dmax and dd + b * hd >= dmin:
                    rec(later, b, grown, ww, dd)

    rec(after, max_len, (), 0, 0)
    del rec  # rec's own cell holds rec: end that cycle, so `out` is freed by refcount
    return out


def _term_table(alg, values, parity):
    """The generator values {gen index: Elem} of a derivation of the given
    parity, unpacked for `_image`:
    (parities, {letter: [(t, c, b, odd letters of t, keep, dw, dd)]}).
    b is t's one letter or None; keep = (parity + odd letters of t) % 2
    is 1 when the term's sign flips with each odd letter before its
    letter; and (dw, dd) = bideg(t) - bideg(letter) is the shift from a
    word's bidegree to that of the term."""
    weights, degrees, parities = alg.weights, alg.degrees, alg.parities
    table = {}
    for letter, val in values.items():
        rows = table[letter] = []
        for t, c in val.terms.items():
            odd_t = tuple(filter(parities.__getitem__, t))
            rows.append((
                t, c, t[0] if len(t) == 1 else None, odd_t, (parity + len(odd_t)) % 2,
                sum(map(weights.__getitem__, t)) - weights[letter],
                sum(map(degrees.__getitem__, t)) - degrees[letter],
            ))
    return parities, table


def _image(table, mono, inside=None, fresh=None, w=0, d=0, acc=None, coeff=1):
    """The derivation of `table` (see _term_table) on coeff * mono, added
    into `acc` (a new dict by default) and returned; a word whose
    coefficient sums to 0 is deleted.

    On the j-th letter, a value term c * t gives (-1)^s coeff c t * rest,
    rest the word without that letter, where s is keep times the number of
    odd letters before j, plus the number of pairs of an odd letter of t
    and a smaller odd letter of rest, found by bisecting the word's odd
    letters; a term with an odd letter of rest gives nothing.  Given
    `inside` and the word's bidegree (w, d), each term not in `inside`
    gets its bidegree, the word's plus the term's shift, in `fresh`.

    A run of e equal letters is imaged once: its copies share the rest of
    the word and (being even when e > 1) the sign, so each term is added
    once with e times its coefficient.
    """
    parities, by_letter = table
    if acc is None:
        acc = {}
    if not by_letter:
        return acc
    pre = 0  # odd letters of mono before position j
    odds = None
    last = None
    for letter in mono:
        if letter == last:
            continue  # imaged with the first letter of its run
        last = letter
        odd_letter = parities[letter]
        terms = by_letter.get(letter)
        if terms is not None:
            j = mono.index(letter)  # where the run starts
            rest = mono[:j] + mono[j + 1:]
            e = 1 if odd_letter else mono.count(letter)
            for t, c, b, odd_t, keep, dw, dd in terms:
                cross = 0
                if odd_t:
                    if odds is None:
                        # the word's odd letters, then a bound above every letter
                        odds = [a for a in mono if parities[a]]
                        odds.append(len(parities))
                    squared = False
                    for o in odd_t:
                        # odds[pre] is the letter itself when it is odd
                        k = bisect_left(odds, o)
                        if odds[k] == o and not (odd_letter and k == pre):
                            squared = True
                            break
                        cross += k - (odd_letter and k > pre)
                    if squared:
                        continue  # an odd letter squared
                if b is None:
                    m = tuple(sorted(t + rest))
                else:
                    p = bisect_left(rest, b)
                    m = rest[:p] + t + rest[p:]
                v = (-c if (pre & keep) ^ (cross & 1) else c) * coeff
                run = v * e if e > 1 else v
                prev = acc.get(m)
                if prev is None:
                    acc[m] = run
                    if fresh is not None and m not in inside:
                        fresh[m] = (w + dw, d + dd)
                    continue
                s = prev + run
                if not s:
                    del acc[m]
                elif e > 1 and (prev < 0) != (s < 0) and not prev % v:
                    # copy by copy the sum reaches 0 and starts again from
                    # v: the coefficient takes v's type
                    acc[m] = v * (e + prev // v)
                else:
                    acc[m] = s
        pre += odd_letter
    return acc


def _closure(alg: FreeCDGA, window: Window):
    """The window basis {mono: (w, d)} and {mono: (d mono, eps mono)}, the
    images as {mono: coeff} dicts.

    The basis starts from the words of length <= max_len in the box.
    Each basis monomial's two images are computed once, as the closure
    reaches it.
    When every term of d and eps raises the degree by one, a word of
    degree dmax has no term of its images inside the window and gets no
    entry in the images; otherwise (a d of another degree) every word is
    imaged, so that the blocks can raise BidegreeMismatch.  See Window.
    """
    wmin, wmax, dmin, dmax = window.wmin, window.wmax, window.dmin, window.dmax
    inside = _box_words(alg, window.max_len, wmin, wmax, dmin, dmax)
    # a zero derivation (e.g. d on a free algebra's de Rham algebra) images
    # every word to {}
    d_table, eps_table = (table if table[1] else None for table in alg._tables)
    # rows are (t, c, b, odd_t, keep, dw, dd): see _term_table
    top = dmax if all(
        row[6] == 1 for _, by_letter in alg._tables for rows in by_letter.values() for row in rows
    ) else None
    images = {}
    frontier = list(inside)
    for _ in range(_CLOSURE_ROUNDS):
        new = []
        for m in frontier:
            w, d = inside[m]
            if d == top:
                continue  # every image term lies at degree dmax + 1
            fresh = {}
            pair = images[m] = (
                {} if d_table is None else _image(d_table, m, inside, fresh, w, d),
                {} if eps_table is None else _image(eps_table, m, inside, fresh, w, d),
            )
            if not fresh:
                continue
            for image in pair:
                for m2 in image:
                    bideg = fresh.pop(m2, None)
                    if bideg is None:
                        continue
                    if bideg[0] > wmax or bideg[1] > dmax:
                        continue  # quotient truncation
                    if bideg[0] < wmin or bideg[1] < dmin:
                        raise WindowTooSmall(
                            "differential image below the window", witness=alg.mono_str(m2)
                        )
                    inside[m2] = bideg
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
    """(monos, at): the window monomials grouped by bidegree, bidegrees
    ascending and each group sorted, and the map mono -> (bidegree, index
    in its group) that every block of the window shares."""
    groups = {}
    for m, bideg in inside.items():
        groups.setdefault(bideg, []).append(m)
    monos, at = {}, {}
    for bideg in sorted(groups):
        ms = monos[bideg] = sorted(groups[bideg])
        for i, m in enumerate(ms):
            at[m] = (bideg, i)
    return monos, at


def _derivation_blocks(alg, monos, at, images, k):
    """Blocks of the map of bidegree (k, 1) whose image of each window word
    m is images[m][k], a {mono: coeff} dict (k = 0 for d, 1 for eps), on
    the window `_window_monomials` gives as (monos, at).

    Rows are keyed by monomial.  Image terms outside the window are
    projected away, and so is the image of a word with no entry in
    `images` (see _closure); a term inside the window at another bidegree
    raises BidegreeMismatch.
    """
    out = {}
    for (w, d), ms in monos.items():
        tgt = (w + k, d + 1)
        ent = {}
        for j, m in enumerate(ms):
            pair = images.get(m)
            if pair is None:
                continue
            for m2, c in pair[k].items():
                pos = at.get(m2)
                if pos is None:
                    continue
                if pos[0] != tgt:
                    raise BidegreeMismatch(
                        f"image of {alg.mono_str(m)} has the term {alg.mono_str(m2)} "
                        f"in bidegree {pos[0]}, expected {tgt}"
                    )
                ent[pos[1], j] = c if type(c) is int else _as_rat(c)
        if ent:
            # in range by `at`, nonzero as _image keeps them, one per cell
            out[w, d] = SparseMatrix._owned(len(monos[tgt]), len(ms), ent)
    return out


def graded_mixed_window(alg: FreeCDGA, window: Window):
    """Finite GradedMixedComplex slice of a (mixed) cdga, and its basis.

    Returns (complex, basis): the labels of the complex are the window's
    monomial tuples, sorted inside each bidegree, and basis is the window
    basis {mono: (w, d)}.  Images above the window are projected away.
    """
    inside, images = _closure(alg, window)
    return _mixed_complex(alg, inside, images), inside


def _mixed_complex(alg, inside, images):
    """The complex on the monomials of `inside` from the stored (d, eps)
    images; image terms outside `inside` are projected away."""
    monos, at = _window_monomials(inside)
    # a zero derivation images every word to {} (see _closure): no blocks
    d = _derivation_blocks(alg, monos, at, images, 0) if alg.differential else {}
    eps = _derivation_blocks(alg, monos, at, images, 1) if alg.mixed else {}
    return GradedMixedComplex(BiGradedModule(monos), d, eps)


def total_complex_window(alg: FreeCDGA, window: Window) -> ChainComplex:
    """Total (d + eps) complex of the window, weights wmin..wmax."""
    cx, _ = graded_mixed_window(alg, window)
    return weight_window_total_complex(cx, window.wmin, window.wmax)


# ---------------------------------------------------------------------------
# de Rham algebras
# ---------------------------------------------------------------------------


def _with_symbols(b: FreeCDGA):
    """B[d<g>] on a symbol d<g> of degree deg(g) + 1 and weight wt(g) + 1
    for each non-base generator g, with the odd universal derivation
    u: g -> d<g> as eps.

    The differential of B is carried over, with d(d<g>) = -u(d g).
    Raises BidegreeMismatch when some d g is not of bidegree
    (wt(g), deg(g) + 1).
    """
    gens = list(b.generators)
    for g in b.generators:
        if g.name in b.base_names:
            continue
        if "d" + g.name in b.index:
            raise DuplicateName(f"symbol name {'d' + g.name!r} collides with a generator")
        gens.append(Generator("d" + g.name, g.degree + 1, g.weight + 1))
    free = FreeCDGA(gens, base_names=b.base_names)
    u = {g.name: free.gen("d" + g.name) for g in b.generators if g.name not in b.base_names}
    u_at = {free.index[name]: v for name, v in u.items()}
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
        d_vals[g.name] = Elem(free, dg.terms)
    for i, g in enumerate(b.generators):
        if g.name not in b.base_names and i in b.differential:
            d_vals["d" + g.name] = apply_derivation(free, d_vals[g.name], u_at, parity=1).scale(-1)
    return FreeCDGA(gens, base_names=b.base_names, differential=d_vals, mixed=u)


class DeRhamAlgebra(Record):
    """Sym_B(Omega^1_{B/A}[-1]) with the de Rham differential as eps.

    d<g> has degree deg(g)+1, weight wt(g)+1; eps(g) = d<g>, eps(d<g>) = 0,
    and d(d<g>) = -dR(d g) so that d eps + eps d = 0.
    """

    __slots__ = _fields = ("base", "algebra", "symbols")

    def __init__(self, base: FreeCDGA, algebra: FreeCDGA, symbols: tuple):
        self.base = base
        self.algebra = algebra
        self.symbols = symbols

    def weight_dim_window(self, wmin, wmax, max_len):
        """{j: {degree: dimension of the weight-j part}} for j = wmin..wmax
        within the word window, from one enumeration."""
        dims = {j: {} for j in range(wmin, wmax + 1)}
        for w, d in _box_words(self.algebra, max_len, wmin, wmax).values():
            per = dims[w]
            per[d] = per.get(d, 0) + 1
        return dims


def de_rham(b: FreeCDGA) -> DeRhamAlgebra:
    """Strict de Rham graded mixed cdga of B (relative to its base)."""
    alg = _with_symbols(b)
    symbols = tuple(g.name for g in alg.generators[len(b.generators):])
    return DeRhamAlgebra(base=b, algebra=alg, symbols=symbols)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class ClosedFormTower(Record):
    """Components omega_j in DR(B)(j)^{n+p} for j = p..top satisfying
    d omega_j + eps omega_{j-1} = 0 (omega_{p-1} = 0) in the window.

    `images`, when given, holds the (d, eps) images of words, {word:
    (d word, eps word)} as `_closure` stores them: `closed_form_classes`
    hands its window's images to the towers it builds.  It is neither
    compared nor shown."""

    __slots__ = ("de_rham", "p", "n", "components", "images")
    _fields = ("de_rham", "p", "n", "components")

    def __init__(self, de_rham: DeRhamAlgebra, p: int, n: int, components: dict, images: dict = None):
        self.de_rham = de_rham
        self.p = p
        self.n = n
        self.components = components  # weight -> Elem
        self.images = images

    def total(self) -> Elem:
        out = self.de_rham.algebra.zero()
        for e in self.components.values():
            out = out + e
        return out

    def check_cocycle(self, wmax) -> bool:
        """(d + eps) of the tower has no term of weight <= wmax.

        Each component word's d- and eps-images are read from `images`,
        or imaged by the algebra's term tables when the word has no entry
        there, and added with the word's coefficient into one dict; a word
        whose coefficient sums to 0 is deleted, so the words left do not
        depend on the order."""
        alg = self.de_rham.algebra
        images = self.images or {}
        image = {}
        for e in self.components.values():
            for m, c in e.terms.items():
                for part in images.get(m) or [_image(table, m) for table in alg._tables]:
                    for m2, v in part.items():
                        s = image.get(m2, 0) + c * v
                        if s:
                            image[m2] = s
                        else:
                            del image[m2]
        weights = alg.weights
        return all(sum(weights[i] for i in m) > wmax for m in image)


class ClosedFormReport(Record):
    __slots__ = _fields = ("dimension", "representatives", "stage_dims", "fiber_dims")

    def __init__(self, dimension: int, representatives: list, stage_dims: dict, fiber_dims: dict):
        self.dimension = dimension
        self.representatives = representatives  # of ClosedFormTower
        self.stage_dims = stage_dims  # m -> dim at Hodge stage weights p..m
        self.fiber_dims = fiber_dims  # m -> dim of the weight-(m+1) fiber term


def closed_form_classes(b: FreeCDGA, p: int, n: int, wmax: int, max_len=6) -> ClosedFormReport:
    """pi_0 of the space of closed p-forms of degree n, truncated at wmax.

    Computes H^{n+p} of the total complex of DR(B) in weights p..wmax
    (a genuine subquotient: weights >= p form a subcomplex since d and
    eps never lower weight).  Also reports the Hodge-stage dimensions
    and the fibration-sequence fiber dimensions.  Raises WindowTooSmall
    when wmax < p: the window holds no p-forms.

    H^{n+p} reads the degrees n+p-1..n+p+1, so the window ends at n+p+1;
    the words there are not imaged (see _closure).  It starts at n+p-2,
    not n+p-1: longer words of degree n+p-1 enter the window as the
    images of the seed words one degree below.

    Everything is read off this one window: one closure, one graded mixed
    complex and one total complex.  The towers carry the closure's images,
    which hold the full images of their words (degree n+p, below the
    top), for `ClosedFormTower.check_cocycle`.  A fibre's dimension is its
    column's word count at degree n+p less the ranks of the window's d
    blocks at n+p-1 and n+p on the column's words (see _column_rank); the
    total complex's d^2 check covers the fibres' d^2.
    """
    if wmax < p:
        raise WindowTooSmall(f"max weight {wmax} is below the form degree p = {p}")
    dr = de_rham(b)
    deg = n + p
    # one closure serves every stage and fibre: d and eps never lower
    # weight, so the weights <= top of this window are the window of
    # weights p..top, and every stage is read off the top one
    window = Window(wmin=p, wmax=wmax, dmin=deg - 2, dmax=deg + 1, max_len=max_len)
    inside, images = _closure(dr.algebra, window)
    cx = _mixed_complex(dr.algebra, inside, images)
    total, stage_dims = stage_homology_dims(cx, p, wmax, deg)
    # the towers are read off the top stage only
    h = total.homology(deg)
    labels = total.basis.get(deg, [])
    reps = []
    for v in h.representatives:
        comps = {}
        for i, coeff in v.items():
            w, mono = labels[i]
            comps.setdefault(w, {})[mono] = coeff
        comps = {w: Elem(dr.algebra, terms) for w, terms in comps.items()}
        reps.append(ClosedFormTower(dr, p, n, comps, images))
    fiber_dims = {}
    for m in range(p, wmax):
        # fiber of stage m+1 -> stage m: H^{n+p} of the weight-(m+1) column
        column = _column(inside, images, m + 1, max_len)
        fiber_dims[m] = (
            sum(1 for bideg in column.values() if bideg[1] == deg)
            - _column_rank(cx, column, m + 1, deg - 1)
            - _column_rank(cx, column, m + 1, deg)
        )
    return ClosedFormReport(h.dimension, reps, stage_dims, fiber_dims)


def _column_rank(cx, column, w, k):
    """The rank of d on the words of `column` of bidegree (w, k): the
    columns of cx's d block at (w, k) at those words.  The column is closed
    under d in the window, so the block's other rows are zero there; a
    missing block has rank 0."""
    blk = cx.d.get((w, k))
    if blk is None:
        return 0
    keep = {j for j, m in enumerate(cx.module.labels(w, k)) if m in column}
    ent = {ij: v for ij, v in blk.items() if ij[1] in keep}
    return SparseMatrix._owned(blk.rows, blk.cols, ent).rank() if ent else 0


def _column(inside, images, w, max_len):
    """The basis of the one-weight window at weight w: the window words of
    weight w and length <= max_len, closed under their d-images inside the
    window.  Not the weight-w slice, which also holds the eps-images of
    longer words of weight w - 1."""
    column = {m: bideg for m, bideg in inside.items() if bideg[0] == w and len(m) <= max_len}
    frontier = list(column)
    while frontier:
        new = []
        for m in frontier:
            # a word with no images (see _closure) has none in the window
            for m2 in images[m][0] if m in images else ():
                if m2 in inside and m2 not in column:
                    column[m2] = inside[m2]
                    new.append(m2)
        frontier = new
    return column


# ---------------------------------------------------------------------------
# Koszul complexes and the affine D-functor
# ---------------------------------------------------------------------------


class KoszulComplex(Record):
    __slots__ = _fields = ("base", "algebra", "odd_gens", "relations")

    def __init__(self, base: FreeCDGA, algebra: FreeCDGA, odd_gens: tuple, relations: tuple):
        self.base = base
        self.algebra = algebra
        self.odd_gens = odd_gens
        self.relations = relations  # the f_i^{n_i} as base elements

    def homotopy_dims(self, max_len=6, min_degree=-4):
        """H^0, H^{-1}, ... dims of the Koszul algebra in a word window."""
        window = Window(
            wmin=0, wmax=0, dmin=min_degree - 1, dmax=1, max_len=max_len
        )
        total = total_complex_window(self.algebra, window)
        return {(-m): total.homology_dim(m) for m in range(0, min_degree, -1)}


def koszul(b: FreeCDGA, fs, powers=None) -> KoszulComplex:
    """K(B, f_1^{n_1}, .., f_p^{n_p}): odd X_i in degree -1 with dX_i = f_i^{n_i},
    on B's generators and then the X_i.  B's generators are its base names,
    so de_rham(k.algebra) is DR(K/B), with a symbol d<X_i> for each X_i only."""
    for g in b.generators:
        if g.degree != 0:
            raise BidegreeError(
                f"Koszul base generator {g.name} has degree {g.degree}: "
                "the base must be a discrete polynomial ring"
            )
    if powers is None:
        powers = [1] * len(fs)
    gens = list(b.generators)
    d_vals = {}
    for i, (f, k) in enumerate(zip(fs, powers, strict=True)):
        name = f"X{i+1}"
        while name in b.index:
            name = "_" + name
        gens.append(Generator(name, -1))
        fk = f ** k
        if fk.constant_term():
            raise BidegreeError(
                f"Koszul relation {fk} has a (0, 0) component: it must be a non-unit"
            )
        d_vals[name] = fk  # B's words are K's: its letters come first
    alg = FreeCDGA(gens, base_names=b.index, differential=d_vals)
    return KoszulComplex(base=b, algebra=alg, odd_gens=tuple(d_vals), relations=tuple(d_vals.values()))


class CotangentTowerReport(Record):
    """Pro-system of relative cotangent modules of K(B, f^n) after base change."""

    __slots__ = _fields = ("stages", "transition_matrices", "raw_nonzero", "zero_after_base_change")

    def __init__(self, stages: int, transition_matrices: list, raw_nonzero: bool,
                 zero_after_base_change: bool):
        self.stages = stages
        self.transition_matrices = transition_matrices  # entries are base Elems, stage n+1 -> stage n
        self.raw_nonzero = raw_nonzero
        self.zero_after_base_change = zero_after_base_change


def koszul_tower_cotangent(b: FreeCDGA, fs, stages: int) -> CotangentTowerReport:
    """Transitions X_i -> f_i X_i induce diag(f_i) on Omega^1 over B; every
    entry lies in (f) so the pro-system is zero after base change to B/(f)."""
    for f in fs:
        if f.constant_term():
            raise BidegreeError(f"relation {f} has a (0, 0) component: it must be a non-unit")
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


class DFunctorResult(Record):
    __slots__ = _fields = ("koszul", "de_rham", "weight0_h0_dims", "realization_h0_dims")

    def __init__(self, koszul: KoszulComplex, de_rham: DeRhamAlgebra, weight0_h0_dims: dict,
                 realization_h0_dims: dict):
        self.koszul = koszul
        self.de_rham = de_rham
        self.weight0_h0_dims = weight0_h0_dims
        self.realization_h0_dims = realization_h0_dims  # wmax -> dim of H^0 in the window


def d_functor(b: FreeCDGA, ideal_gens, wmax: int, max_len=5) -> DFunctorResult:
    """DR^str(K(B, I)/B): the affine formal-completion mixed cdga.

    The user asserts B/I reduced with I generated by a regular sequence;
    a probe window on K checks the higher Koszul homotopy and raises
    NotRegular on a nonzero group.  The weight-0 part of DR(K/B) is K,
    each symbol d<X_i> having weight 1, so the weight-0 table {m: dim H^m}
    for m = -2..0 is read off the probe, whose window starts two degrees
    below H^-2, the lowest it reads (see closed_form_classes).  (On a base
    with a generator of negative weight, the weight-0 slice of DR(K/B)
    also holds words with symbols; the table is H(K) all the same.)  Two
    windows in all: the probe and the one of the H^0 sequence.
    """
    if not ideal_gens:
        dr = de_rham(b)
        return DFunctorResult(None, dr, {0: 1}, _h0_by_weight(dr, wmax, max_len))
    k = koszul(b, ideal_gens)
    probe = k.homotopy_dims(max_len=max_len, min_degree=-3)
    if any(v for i, v in probe.items() if i >= 1):
        raise NotRegular(f"higher Koszul homotopy in probe window: {probe}")
    dr = de_rham(k.algebra)
    return DFunctorResult(k, dr, {-i: probe[i] for i in (2, 1, 0)}, _h0_by_weight(dr, wmax, max_len))


def _h0_by_weight(dr, wmax, max_len):
    """{w: dim H^0 of the total complex in weights 0..w} for w = 0..wmax,
    from one window: d and eps never lower weight, so the words of weight
    <= w of the weight-wmax window are the weight-w window, and every
    stage is read off the top one (see stage_homology_dims).  H^0 reads
    the degrees -1..1, so the window ends at 1 (see closed_form_classes)."""
    cx, _ = graded_mixed_window(dr.algebra, Window(0, wmax, -2, 1, max_len))
    return stage_homology_dims(cx, 0, wmax, 0)[1]
