"""Arity-indexed operad computations: As, Lie, P_n multilinear bases,
the hbar-Rees model of BD_1, BD_0, Arnold algebras of configuration-space
cohomology, and Weyl structure maps.

Multilinear Lie elements are normalised to the left-normed basis with the
minimal label first (dimension (|I|-1)!).  The BD_1 model is P_1 over
Q[hbar] with the straightening rule  u v = v u + hbar {u, v}  on PBW block
monomials in place of the commutative product.

Each product is that of a free graded-commutative algebra on named
letters, one merge of two canonical words by `freecdga.mono_mul`, which
gives every Koszul sign of a reordering: P_n's letters are Lie blocks,
the Arnold algebra's the a_ij and the Weyl maps' those of B^(x)k.

Elements are linear combinations {key: coeff}; `_add` and `_bilinear`
are the only places that accumulate them.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from itertools import combinations, permutations, product

from .errors import ArityTooLarge
from .exactlin import QPoly, SparseMatrix
from .freecdga import Elem, FreeCDGA, Generator, _image, mono_mul
from .record import Record


def _check_arity(labels):
    if len(labels) > 4:
        raise ArityTooLarge("operad computations are capped at arity 4")
    return tuple(sorted(labels))


def _add(out, key, c):
    """out[key] += c, dropping the key when the sum cancels."""
    v = out.get(key, 0) + c
    if v != 0:
        out[key] = v
    else:
        out.pop(key, None)


def _bilinear(e1, e2, f):
    """Bilinear extension of f(m1, m2) -> {m: c} to linear combinations."""
    out = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            for m, c in f(m1, m2).items():
                _add(out, m, c * c1 * c2)
    return out


def _merge(parities, words):
    """(sign, word): canonical words multiplied in order by `mono_mul`, or None."""
    sign, out = 1, (words[0] if words else ())
    for word in words[1:]:
        merged = mono_mul(parities, out, word)
        if merged is None:
            return None
        sign *= merged[0]
        out = merged[1]
    return sign, out


def _check_disjoint(m1, m2):
    """Raise unless the block monomials m1 and m2 share no label."""
    labels = sum(m1 + m2, ())
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be disjoint")


# ---------------------------------------------------------------------------
# graded multilinear Lie normal form
# ---------------------------------------------------------------------------


class LieWords:
    """Rewriting of multilinear bracket words with bracket degree b.

    Basis: left-normed sequences (l_1, .., l_k), l_1 minimal.  The degree
    of a k-letter word is (k-1) b; antisymmetry and Jacobi carry the
    shifted signs  [u,v] = -(-1)^{(|u|+b)(|v|+b)} [v,u]  and
    [u,[v,w]] = [[u,v],w] + (-1)^{(|u|+b)(|v|+b)} [v,[u,w]].
    """

    def __init__(self, bracket_degree: int):
        self.b = bracket_degree % 2

    def word_degree(self, seq) -> int:
        return (len(seq) - 1) * self.b

    def _koszul(self, du, dv) -> int:
        return -1 if ((du + self.b) * (dv + self.b)) % 2 else 1

    def bracket_seqs(self, s, t):
        """[s, t] as {basis sequence: coeff} for basis sequences s, t.

        Terminating orientation of Jacobi (right argument shrinks):
        [s, [t', c]] = [[s, t'], c] - (-1)^{(|t'|+b)(|c|+b)} [[s, c], t'].
        """
        if set(s) & set(t):
            raise ValueError("labels must be disjoint")
        if len(t) == 1:
            if len(s) == 1:
                a, c = s[0], t[0]
                if a < c:
                    return {(a, c): 1}
                return {(c, a): -self._koszul(0, 0)}
            if t[0] > s[0]:
                return {s + t: 1}
            # t holds the global minimum: flip once; the singleton-left
            # recursion below only shrinks its right argument
            flip = -self._koszul(self.word_degree(s), 0)
            return {
                seq: flip * c for seq, c in self.bracket_seqs(t, s).items()
            }
        tp, c = t[:-1], (t[-1],)
        out = {}
        for seq, co in self.bracket_seqs(s, tp).items():
            for seq2, co2 in self.bracket_seqs(seq, c).items():
                _add(out, seq2, co * co2)
        sign = -self._koszul(self.word_degree(tp), 0)
        for seq, co in self.bracket_seqs(s, c).items():
            for seq2, co2 in self.bracket_seqs(seq, tp).items():
                _add(out, seq2, sign * co * co2)
        return out

    def basis(self, labels):
        labels = tuple(sorted(labels))
        if not labels:
            return []
        first, rest = labels[0], labels[1:]
        return [(first,) + p for p in permutations(rest)]


# ---------------------------------------------------------------------------
# P_n multilinear algebra: monomials are tuples of Lie blocks
# ---------------------------------------------------------------------------


class _BlockParities:
    """The parity lookup of Lie blocks as letters: (len - 1) b mod 2."""

    __slots__ = ("b",)

    def __init__(self, b: int):
        self.b = b

    def __getitem__(self, block) -> int:
        return (len(block) - 1) * self.b % 2


class PnSpace:
    """Multilinear part of the P_n operad on a label set.  A monomial is a
    word of Lie blocks, which sort by their first label, the minimal one."""

    one = 1

    def __init__(self, n: int, labels):
        self.labels = _check_arity(labels)
        self.n = n
        self.b = (1 - n) % 2
        self.lie = LieWords(1 - n)
        self.parities = _BlockParities(self.b)

    def block_degree(self, block) -> int:
        return (len(block) - 1) * self.b

    def mono_degree(self, blocks) -> int:
        return sum(self.block_degree(bl) for bl in blocks)

    def mono_weight(self, blocks) -> int:
        return len(blocks) - sum(len(bl) for bl in blocks)

    def basis(self):
        """All products of Lie-basis blocks over set partitions."""
        return sorted(
            tuple(sorted(combo))
            for part in _set_partitions(list(self.labels))
            for combo in product(*(self.lie.basis(bl) for bl in part))
        )

    def product_mono(self, m1, m2):
        _check_disjoint(m1, m2)
        sign, mono = mono_mul(self.parities, m1, m2)
        return {mono: sign}

    def product(self, e1, e2):
        return _bilinear(e1, e2, self.product_mono)

    def bracket_mono(self, m1, m2):
        """Biderivation extension of the block-level Lie bracket."""
        if not m1 or not m2:
            return {}
        if len(m1) == 1 and len(m2) == 1:
            return {
                (seq,): c for seq, c in self.lie.bracket_seqs(m1[0], m2[0]).items()
            }
        one = self.one
        if len(m1) == 1:
            # {a, w rest} = {a, w} rest + (-1)^{(|a|+b)|w|} w {a, rest}
            head, rest = m2[:1], m2[1:]
            odd = (self.mono_degree(m1) + self.b) * self.mono_degree(head) % 2
            out = self.product(self.bracket_mono(m1, head), {rest: one})
            second = self.product({head: one}, self.bracket_mono(m1, rest))
        else:
            # {v rest, X} = v {rest, X} + (-1)^{|rest|(|X|+b)} {v, X} rest
            head, rest = m1[:1], m1[1:]
            odd = self.mono_degree(rest) * (self.mono_degree(m2) + self.b) % 2
            out = self.product({head: one}, self.bracket_mono(rest, m2))
            second = self.product(self.bracket_mono(head, m2), {rest: one})
        for mono, c in second.items():
            _add(out, mono, -c if odd else c)
        return out

    def bracket(self, e1, e2):
        return _bilinear(e1, e2, self.bracket_mono)

    def compose(self, e1, label, e2):
        """Operadic substitution of e2 into the slot `label` of e1: the
        block holding the label is a left-normed bracket, rebuilt around
        e2 by the bracket, and multiplied back between its neighbours."""
        one = self.one

        def substitute(seq, value):
            if len(seq) == 1:
                return value
            prefix, last = seq[:-1], seq[-1]
            if last == label:
                return self.bracket({(prefix,): one}, value)
            return self.bracket(substitute(prefix, value), {((last,),): one})

        def compose_mono(m1, m2):
            target = next((i for i, bl in enumerate(m1) if label in bl), None)
            if target is None:
                raise ValueError("label not in monomial")
            pieces = substitute(m1[target], {m2: one})
            acc = self.product({m1[:target]: one}, pieces)
            return self.product(acc, {m1[target + 1:]: one})

        return _bilinear(e1, e2, compose_mono)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + [list(bl) for bl in part]
        for i in range(len(part)):
            yield [list(bl) if j != i else [first] + list(bl) for j, bl in enumerate(part)]


# ---------------------------------------------------------------------------
# multilinear bases
# ---------------------------------------------------------------------------


class MultilinearSpace(Record):
    __slots__ = _fields = ("operad", "labels", "basis", "bigrading")

    def __init__(self, operad: str, labels: tuple, basis: list, bigrading: dict):
        self.operad = operad
        self.labels = labels
        self.basis = basis
        self.bigrading = bigrading  # basis element -> (degree, weight)

    @property
    def dimension(self):
        return len(self.basis)

    def weight_distribution(self):
        dist = {}
        for el in self.basis:
            _, w = self.bigrading[el]
            dist[w] = dist.get(w, 0) + 1
        return dict(sorted(dist.items(), reverse=True))


def multilinear_basis(operad: str, labels, n: int = 1) -> MultilinearSpace:
    """Bases of As(I) (words), Lie(I) (left-normed), P_n(I) (partitioned).

    Degrees and weights: the product has weight 0 and degree 0, the
    bracket weight -1 and degree 1-n.
    """
    labels = _check_arity(labels)
    if operad == "As":
        basis = [tuple(p) for p in permutations(labels)]
        grading = {b: (0, 0) for b in basis}
    elif operad == "Lie":
        basis = LieWords(1 - n).basis(labels)
        grading = {b: ((len(labels) - 1) * (1 - n), -(len(labels) - 1)) for b in basis}
    elif operad == "Pn":
        space = PnSpace(n, labels)
        basis = space.basis()
        # each monomial uses -weight many brackets
        grading = {
            m: ((1 - n) * (-space.mono_weight(m)), space.mono_weight(m)) for m in basis
        }
    else:
        raise ValueError("operad must be 'As', 'Lie' or 'Pn'")
    return MultilinearSpace(operad, labels, sorted(basis), grading)


# ---------------------------------------------------------------------------
# BD_1: the Rees model over Q[hbar]
# ---------------------------------------------------------------------------


class BD1Space(PnSpace):
    """P_1 over Q[hbar] on PBW block monomials, with the product
    u v = v u + hbar {u, v}: bracket and composition are P_1's."""

    one = QPoly.const(1)

    def __init__(self, labels):
        super().__init__(1, labels)

    def straighten(self, blocks):
        """Canonical form of a tuple of blocks as {monomial: QPoly}."""
        for i in range(len(blocks) - 1):
            if min(blocks[i]) > min(blocks[i + 1]):
                swapped = blocks[:i] + (blocks[i + 1], blocks[i]) + blocks[i + 2:]
                out = self.straighten(swapped)
                br = self.lie.bracket_seqs(blocks[i], blocks[i + 1])
                for seq, c in br.items():
                    merged = blocks[:i] + (seq,) + blocks[i + 2:]
                    for mono, poly in self.straighten(merged).items():
                        _add(out, mono, poly * QPoly.hbar() * c)
                return out
        return {blocks: self.one}

    def product_mono(self, m1, m2):
        _check_disjoint(m1, m2)
        return self.straighten(m1 + m2)

    mul = PnSpace.product

    def specialize(self, elem, value):
        return {k: v.evaluate(value) for k, v in elem.items() if v.evaluate(value)}


class ReesOperad(Record):
    __slots__ = _fields = ("labels", "space", "basis")

    def __init__(self, labels: tuple, space: BD1Space, basis: list):
        self.labels = labels
        self.space = space
        self.basis = basis

    def dimension(self):
        return len(self.basis)


def rees_bd1(labels) -> ReesOperad:
    space = BD1Space(labels)
    return ReesOperad(_check_arity(labels), space, space.basis())


# -- independent specialization targets --------------------------------------


def as_compose(word1, label, word2):
    """Substitution in As: replace the letter by the word."""
    out = []
    for letter in word1:
        if letter == label:
            out.extend(word2)
        else:
            out.append(letter)
    return tuple(out)


def expand_to_words(mono, lie):
    """Commutator expansion of a PBW monomial at hbar = 1 into As words."""
    def expand_seq(seq):
        if len(seq) == 1:
            return {seq: 1}
        last = seq[-1:]
        out = {}
        for w, c in expand_seq(seq[:-1]).items():
            _add(out, w + last, c)
            _add(out, last + w, -c)
        return out

    acc = {(): 1}
    for bl in mono:
        acc = _bilinear(acc, expand_seq(bl), lambda w1, w2: {w1 + w2: 1})
    return acc


def pn_compose(n, e1, label, e2, labels_out):
    """Operadic substitution in P_n via Leibniz/biderivation expansion."""
    return PnSpace(n, labels_out).compose(e1, label, e2)


# ---------------------------------------------------------------------------
# BD_0
# ---------------------------------------------------------------------------


class BD0Report(Record):
    __slots__ = _fields = ("d_bracket_zero", "d_product_is_hbar_bracket", "d_squared_zero_on_words",
                           "derivation_respects_relations")

    def __init__(self, d_bracket_zero: bool, d_product_is_hbar_bracket: bool,
                 d_squared_zero_on_words: bool, derivation_respects_relations: bool):
        self.d_bracket_zero = d_bracket_zero
        self.d_product_is_hbar_bracket = d_product_is_hbar_bracket
        self.d_squared_zero_on_words = d_squared_zero_on_words
        self.derivation_respects_relations = derivation_respects_relations

    @property
    def valid(self):
        return all(self._values())


def _degree(tree):
    """The degree of an operad word: a label, or (kind, left, right) with
    kind 'm' (the product, degree 0) or 'b' (the odd P_0 bracket)."""
    if not isinstance(tree, tuple):
        return 0
    kind, left, right = tree
    return (kind == "b") + _degree(left) + _degree(right)


def _eval_tree(space: PnSpace, tree):
    if not isinstance(tree, tuple):
        return {((tree,),): 1}
    kind, left, right = tree
    op = space.product if kind == "m" else space.bracket
    return op(_eval_tree(space, left), _eval_tree(space, right))


def _eval_sum(space: PnSpace, summands):
    """sum of c * tree over [(key, c, tree)], as {(key, monomial): coeff}."""
    out = {}
    for key, c, tree in summands:
        for mono, cc in _eval_tree(space, tree).items():
            _add(out, (key, mono), c * cc)
    return out


def _bd0_differential(tree):
    """d(m) = hbar b, d(b) = 0, extended as an odd operadic derivation:
    d(kappa(L, R)) = (d kappa)(L, R) + (-1)^{|kappa|} kappa(dL, R)
    + (-1)^{|kappa| + |L|} kappa(L, dR).  Returns [(hbar_power, sign, tree)].
    """
    if not isinstance(tree, tuple):
        return []
    kind, left, right = tree
    out = []
    if kind == "m":
        out.append((1, 1, ("b", left, right)))
    kappa = kind == "b"
    ldeg = _degree(left)
    for power, sign, replaced in _bd0_differential(left):
        s = sign * (-1 if kappa else 1)
        out.append((power, s, (kind, replaced, right)))
    for power, sign, replaced in _bd0_differential(right):
        s = sign * (-1 if (kappa + ldeg) % 2 else 1)
        out.append((power, s, (kind, left, replaced)))
    return out


def bd0_check() -> BD0Report:
    """BD_0 on generators (product, odd bracket) with d(product) = hbar
    bracket: verify d^2 = 0 and that d descends to the P_0 relations at
    arity <= 3."""
    space = PnSpace(0, (1, 2, 3))

    def d_of_summands(summands):
        return [
            (power + p2, sign * s2, t2)
            for power, sign, tree in summands
            for p2, s2, t2 in _bd0_differential(tree)
        ]

    # d{,} = 0 and d(.) = hbar {,} at arity 2
    ok_db = not _bd0_differential(("b", 1, 2))
    ok_dm = _eval_sum(space, _bd0_differential(("m", 1, 2))) == _eval_sum(space, [(1, 1, ("b", 1, 2))])

    # d^2 on all two-node words at arity 3
    two_node_words = []
    for k1 in "mb":
        for k2 in "mb":
            two_node_words.append((k1, (k2, 1, 2), 3))
            two_node_words.append((k1, 1, (k2, 2, 3)))
    dd_ok = all(
        not _eval_sum(space, d_of_summands(_bd0_differential(t))) for t in two_node_words
    )

    # d of the associativity relation word reduces to zero in P_0(3)[hbar]
    assoc = [(0, 1, ("m", ("m", 1, 2), 3)), (0, -1, ("m", 1, ("m", 2, 3)))]
    relations_ok = not _eval_sum(space, d_of_summands(assoc))
    return BD0Report(ok_db, ok_dm, dd_ok, relations_ok)


# ---------------------------------------------------------------------------
# Arnold algebras
# ---------------------------------------------------------------------------


class ArnoldAlgebra:
    """H^*(FM_{n+1}(I)): classes a_ij of degree n with a_ji = (-1)^{n+1}
    a_ij, a_ij^2 = 0 and the Arnold relation
    a_ij a_jk + a_jk a_ki + a_ki a_ij = 0.

    Basis: products a_{i_1 j_1} .. a_{i_k j_k} with i_t < j_t and
    j_1 < j_2 < .. strictly.  The letters a_ij, i < j, of parity n, are
    indexed in (j, i) order.
    """

    def __init__(self, n: int, labels):
        self.labels = _check_arity(labels)
        self.n = n
        self.pairs = list(combinations(self.labels, 2))
        self.letters = self.canonical_word(self.pairs)
        self.index = {pair: k for k, pair in enumerate(self.letters)}
        self.parities = (n % 2,) * len(self.letters)

    def orient(self, i, j):
        """(sign, (min, max)) for a_ij."""
        if i == j:
            raise ValueError("a_ii is not a class")
        if i < j:
            return 1, (i, j)
        return (1 if (self.n + 1) % 2 == 0 else -1), (j, i)

    def _sorted_word(self, letters):
        """(sign, word): the letters oriented by `orient`, then put in (j, i)
        order by merging their ascending runs with `mono_mul`.  None if a
        letter repeats: a_ij^2 = 0 for even n too.  Raises ValueError for a
        letter whose labels are not the algebra's."""
        sign, runs = 1, []
        for i, j in letters:
            s, pair = self.orient(i, j)
            sign *= s
            try:
                k = self.index[pair]
            except KeyError:
                raise ValueError(f"a_{i}{j} is not a class of the algebra on {self.labels}") from None
            if runs and k > runs[-1][-1]:
                runs[-1] += (k,)
            else:
                runs.append((k,))
        merged = _merge(self.parities, runs)
        if merged is None or len(set(merged[1])) < len(merged[1]):
            return None
        return sign * merged[0], tuple(self.letters[k] for k in merged[1])

    def reduce_word(self, letters, coeff=1):
        """Normalise a product of a_xy letters to {basis word: coeff}."""
        sorted_word = self._sorted_word(letters)
        if sorted_word is None:
            return {}
        sign, word = sorted_word
        # duplicate larger index: Arnold rewrite on the first offending pair
        for t in range(len(word) - 1):
            (i1, j1), (i2, j2) = word[t], word[t + 1]
            if j1 == j2:
                out = {}
                # a_{i1 j} a_{i2 j} = a_{i1 i2} a_{i2 j} + (-1)^{n+1} a_{i1 j} a_{i1 i2}
                for repl, extra_sign in (
                    (((i1, i2), (i2, j1)), 1),
                    (((i1, j1), (i1, i2)), self.orient(i2, i1)[0]),
                ):
                    sub = self.reduce_word(
                        word[:t] + repl + word[t + 2:], coeff * sign * extra_sign
                    )
                    for k, v in sub.items():
                        _add(out, k, v)
                return out
        return {word: coeff * sign}

    @staticmethod
    def canonical_word(pairs):
        return tuple(sorted(pairs, key=lambda p: (p[1], p[0])))

    def basis(self, length=None):
        out = []
        # a word has at most one letter a_ij per j > min(labels)
        for k in range(max(len(self.labels), 1)) if length is None else (length,):
            for combo in combinations(self.pairs, k):
                if len({p[1] for p in combo}) == k:
                    out.append(self.canonical_word(combo))
        return sorted(out) if length is None else out

    def hilbert_series(self):
        """{cohomological degree: dimension}."""
        out = {}
        for w in self.basis():
            d = self.n * len(w)
            out[d] = out.get(d, 0) + 1
        return out

    def rank_certificate(self, length):
        """Independent check that the normal forms are a linear basis:
        dim = (square-free words) - rank(Arnold relation multiples).

        One relation row per 3-subset i < k < j and multiplier: the three
        cyclic rotations of (i, k, j) give the same relation and a reversal
        its negative, so the other five orderings only repeat rows up to
        sign and cannot change the rank. Shares orientation and sorting
        with `reduce_word`, not its rewrite; each sorted relation term is
        merged with each multiplier, a word of letter indices, except the
        empty one of length 2, where the term is the row's word.  Below
        length 2 nothing is sorted: there are no rows."""
        index = self.index.__getitem__
        # the square-free words, in the order of their combinations
        column = {tuple(sorted(map(index, c))): col for col, c in enumerate(combinations(self.pairs, length))}
        rel_rows = []
        # below length 2 there are no relation multiples
        multipliers = list(combinations(range(len(self.letters)), length - 2)) if length >= 2 else []
        for i, k, j in combinations(self.labels, 3) if multipliers else ():
            terms = []
            for term in (((i, k), (k, j)), ((k, j), (j, i)), ((j, i), (i, k))):
                sign, word = self._sorted_word(term)
                terms.append((sign, tuple(map(index, word))))
            for mult in multipliers:
                row = {}
                for sign, word in terms:
                    merged = mono_mul(self.parities, word, mult) if mult else (1, word)
                    # a word with a repeated letter is not a column
                    if merged is not None and merged[1] in column:
                        _add(row, column[merged[1]], sign * merged[0])
                if row:
                    rel_rows.append(row)
        mat = SparseMatrix(
            len(rel_rows),
            len(column),
            [(r, c, v) for r, row in enumerate(rel_rows) for c, v in row.items()],
        )
        quotient_dim = len(column) - mat.rank()
        return quotient_dim, len(self.basis(length))


def arnold_algebra(n: int, labels) -> ArnoldAlgebra:
    return ArnoldAlgebra(n, labels)


# ---------------------------------------------------------------------------
# Weyl structure maps
# ---------------------------------------------------------------------------


class WeylMap:
    """m o exp(a) with a = sum_{i != j} d_t^{i,j} (x) a_{ij}.

    States are {arnold word: {word of `tensor`: coeff}}: `tensor` is B^(x)k,
    whose letter s m + g is B's letter g in slot s (B has m letters).  The
    Arnold letter is multiplied on the left of the accumulated word after
    passing the B-factors to its right.
    """

    def __init__(self, base: FreeCDGA, t_matrix, labels, n: int):
        self.base = base
        self.t = t_matrix  # dict (k, l) -> coefficient over generator indices
        self.labels = _check_arity(labels)
        self.arity = len(self.labels)
        self.arnold = ArnoldAlgebra(n, self.labels)
        self.n = n
        self.tensor = FreeCDGA([
            Generator(f"{g.name}@{s}", g.degree) for s in range(self.arity) for g in base.generators
        ])

    def apply_a(self, state):
        """One application of a; slots are 0-based positions of labels.

        The operator carries the bivector normalisation 1/2 (the ordered
        sum over (i, j) and (j, i) double-counts), and the i-slot
        derivative acts first; this pins the arity-2 a_12 coefficient to
        the t-bracket itself.
        """
        m = len(self.base.generators)
        tensor = self.tensor
        out = {}
        for word, tensors in state.items():
            for (si, li), (sj, lj) in permutations(enumerate(self.labels), 2):
                terms = {}
                for tensor_word, coeff in tensors.items():
                    for (k, l), tv in self.t.items():
                        for w1, c1 in _image(tensor._partials[si * m + k], tensor_word).items():
                            _image(tensor._partials[sj * m + l], w1, acc=terms, coeff=c1 * tv * coeff)
                if not terms:
                    continue
                # multiply a_{li lj} into the word; it passes the
                # B-factors (degree D) first
                prefixed = self.arnold.reduce_word(((li, lj),) + word)
                for tensor_word, c in terms.items():
                    s = -1 if (self.n % 2 and sum(tensor.parities[x] for x in tensor_word) % 2) else 1
                    for w2, cw in prefixed.items():
                        _add(out.setdefault(w2, {}), tensor_word, s * cw * c * Rat(1, 2))
        return {w: t for w, t in out.items() if t}

    def structure_map(self, inputs):
        """inputs: list of Elems of B, one per label; returns
        {arnold word: Elem of B} after exp(a) then multiplication."""
        if len(inputs) != self.arity:
            raise ValueError("one input per label")
        m = len(self.base.generators)
        # slot s's letters shifted by s m, in slot order: a canonical word
        base_tensors = {(): 1}
        for s, e in enumerate(inputs):
            base_tensors = {
                tensor_word + tuple(x + s * m for x in mono): c * ce
                for tensor_word, c in base_tensors.items()
                for mono, ce in e.terms.items()
            }
        # exp(a): arnold words are nilpotent beyond arity-1 letters
        power = {(): base_tensors}
        total = dict(power)
        factorial = 1
        for k in range(1, self.arity * (self.arity - 1) + 1):
            power = self.apply_a(power)
            if not power:
                break
            factorial *= k
            for w, tensors in power.items():
                tgt = total.setdefault(w, {})
                for tensor_word, c in tensors.items():
                    _add(tgt, tensor_word, Rat(c) / factorial)
        # multiply the slots together, in slot order, reading s m + g as g
        out = {}
        for w, tensors in total.items():
            acc = {}
            for tensor_word, c in tensors.items():
                slots = [() for _ in range(self.arity)]
                for x in tensor_word:
                    slots[x // m] += (x % m,)
                merged = _merge(self.base.parities, slots)
                if merged is not None:
                    _add(acc, merged[1], merged[0] * c)
            if acc:
                out[w] = Elem(self.base, acc)
        return out


def weyl_structure_map(base: FreeCDGA, t_matrix, labels, n: int) -> WeylMap:
    return WeylMap(base, t_matrix, labels, n)
