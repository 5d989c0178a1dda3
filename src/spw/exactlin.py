"""Exact sparse linear algebra over the rationals and over Q[hbar].

Coefficients are `int` while integral and `Fraction` otherwise; never
`float`.  One sparse, fraction-free elimination serves rank, pivot
columns, kernels, solving and homology: rows are kept as primitive
integer dicts and inserted one at a time, sparsest first, each reduced
at its leading column against the pivot rows found so far until it
vanishes or becomes the pivot row of a new column.  Matrices are
immutable and cache the forward echelon form, and the reduced echelon
form once a kernel is asked for.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import IdentityViolated, NoSolution

Rat = Fraction


def _as_rat(x):
    """An exact coefficient: an `int` when integral, else a `Fraction`.

    A `bool` becomes the `int` it stands for; a `float` raises TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, Rat):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


class SparseMatrix:
    """Immutable sparse matrix over Q, stored as {(row, col): coeff}; see
    `_as_rat` for the coefficient types."""

    __slots__ = ("rows", "cols", "_entries", "_fwd", "_rref")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        data = {}
        if isinstance(entries, dict):  # a dict cannot repeat a position
            for (i, j), v in entries.items():
                if type(v) is not int:
                    v = _as_rat(v)
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if v:
                    data[i, j] = v
        elif entries:
            for i, j, v in entries:
                if type(v) is not int:
                    v = _as_rat(v)
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if (i, j) in data:
                    raise ValueError(f"duplicate entry at ({i},{j})")
                if v:
                    data[i, j] = v
        self._entries = data
        self._fwd = None
        self._rref = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _owned(cls, rows: int, cols: int, entries: dict) -> "SparseMatrix":
        """A matrix that takes over `entries`, {(row, col): coeff}, unchecked:
        for builders whose entries are already in range, nonzero and as
        `_as_rat` gives them, and whose dict nobody else keeps."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._entries = entries
        m._fwd = None
        m._rref = None
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, [(i, i, 1) for i in range(n)])

    # -- accessors ----------------------------------------------------

    def entry(self, i: int, j: int):
        return self._entries.get((i, j), 0)

    def items(self):
        return self._entries.items()

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        data = dict(self._entries)
        for k, v in other._entries.items():
            w = data.get(k, 0) + v
            if w:
                data[k] = w
            else:
                data.pop(k, None)
        return SparseMatrix(self.rows, self.cols, data)

    def scale(self, c) -> "SparseMatrix":
        c = _as_rat(c)
        if c == 0:
            return SparseMatrix.zero(self.rows, self.cols)
        return SparseMatrix(
            self.rows, self.cols, {k: c * v for k, v in self._entries.items()}
        )

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row = {}
        for (i, j), v in other._entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc = {}
        for (i, k), v in self._entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return SparseMatrix(self.rows, other.cols, acc)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._owned(
            self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()}
        )

    # -- elimination ---------------------------------------------------

    def _forward(self):
        """Cached forward echelon: [(pivot_col, {col: int})] in pivot order."""
        if self._fwd is None:
            self._fwd = _eliminate(_int_rows(self._entries.items()))
        return self._fwd

    def _reduced(self):
        """Cached sparse reduced echelon: [(pivot_col, {col: int or Fraction})]."""
        if self._rref is None:
            self._rref = _reduce(self._forward())
        return self._rref

    def rank(self) -> int:
        return len(self._forward())

    def pivot_columns(self):
        return tuple(c for c, _ in self._forward())


def _int_rows(items):
    """{row: {col: int}} from ((row, col), int or Fraction) items.

    Each row is primitive: denominators cleared, content divided out.
    """
    rows = {}
    fractional = set()  # rows with a Fraction entry
    for (i, j), v in items:
        rows.setdefault(i, {})[j] = v
        if type(v) is not int:
            fractional.add(i)
    for i, row in rows.items():
        if i in fractional:
            lcm = 1
            for v in row.values():
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
            row = {j: v.numerator * (lcm // v.denominator) for j, v in row.items()}
        g = gcd(*row.values())
        rows[i] = {j: v // g for j, v in row.items()} if g > 1 else row
    return rows


def _eliminate(rows):
    """Fraction-free row insertion of primitive integer rows.

    `rows` ({row id: {col: int}}, no zero entries) is consumed.  The rows
    are taken sparsest first, ties going to the lower row id.  Each is
    reduced at its leading column against the pivot row found there so
    far, and made primitive after each step, until it vanishes or leads
    at a column with no pivot row, whose pivot row it becomes.  The
    leading columns of an echelon basis are the leftmost independent
    columns, whatever the order of insertion.  Returns [(pivot_col, row)]
    sorted by column.
    """
    pivots = {}
    # a stable sort by length of the rows in id order
    for row in sorted([rows[r] for r in sorted(rows)], key=len):
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            p, a = prow[c], row[c]
            g = gcd(p, a)
            fp, fa = p // g, a // g
            # row <- fp * row - fa * prow, which clears column c
            if fp != 1:
                for j in row:
                    row[j] *= fp
            for j, v in prow.items():
                w = row.get(j, 0) - fa * v
                if w:
                    row[j] = w
                else:
                    del row[j]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
    return sorted(pivots.items())


def _reduce(echelon):
    """Reduced row echelon form over Q from a forward echelon, pivots 1,
    entries as `_as_rat` gives them.

    Back-substitutes bottom up in integers; a reduced row is zero in every
    other pivot column, so clearing one pivot column never refills another.
    """
    pivot_row = {c: k for k, (c, _) in enumerate(echelon)}
    done = [None] * len(echelon)
    for k in range(len(echelon) - 1, -1, -1):
        c, row = echelon[k]
        row = dict(row)
        for j in [j for j in row if j != c and j in pivot_row]:
            below = done[pivot_row[j]]
            q, a = below[j], row[j]
            g = gcd(q, a)
            fq, fa = q // g, a // g
            if fq != 1:
                for t in row:
                    row[t] *= fq
            for t, v in below.items():
                w = row.get(t, 0) - fa * v
                if w:
                    row[t] = w
                else:
                    del row[t]
        g = gcd(*row.values())
        if g > 1:
            row = {t: v // g for t, v in row.items()}
        done[k] = row
    return [(c, {t: _as_rat(Rat(v, row[c])) for t, v in row.items()})
            for (c, _), row in zip(echelon, done)]


def kernel_basis(m: SparseMatrix):
    """Basis of ker(m) as sparse vectors {col: coeff}, one per non-pivot
    column f, in the order of f.

    The vector for f is e_f minus column f of the reduced echelon form,
    placed at the pivot columns; those all lie left of f, so the keys
    ascend.  Zero entries are left out; an empty matrix gives the
    standard basis.
    """
    reduced = m._reduced()
    pivots = {c for c, _ in reduced}
    basis = {f: {} for f in range(m.cols) if f not in pivots}
    for c, row in reduced:
        for j, v in row.items():
            if j != c:
                basis[j][c] = -v
    for f, v in basis.items():
        v[f] = 1
    return list(basis.values())


class HomologyResult:
    """Dimension plus representative cycles for ker(d_out)/im(d_in), each a
    sparse vector {index: coeff} as `kernel_basis` gives them."""

    __slots__ = ("dimension", "representatives")

    def __init__(self, dimension, representatives):
        self.dimension = dimension
        self.representatives = representatives


def _cycles_mod_image(ker, d_in) -> HomologyResult:
    """span(ker) / im(d_in), for independent cycles `ker` spanning a space
    that holds the image of d_in; d_in None is the zero map.  The vectors
    of `ker` hold nonzero entries as `_as_rat` gives them, as
    `kernel_basis` does, so [d_in | ker] is built unchecked.

    Representatives are the vectors of `ker` independent of the image and
    of the vectors before them: those whose columns are pivot columns of
    [d_in | ker], found by one elimination; when d_in has rank 0, all of
    `ker`.
    """
    dim = len(ker) - (d_in.rank() if d_in is not None else 0)
    reps = []
    if dim == len(ker):
        reps = ker  # d_in has rank 0: no elimination needed
    elif dim:
        n = d_in.cols
        entries = dict(d_in.items())
        for t, v in enumerate(ker):
            for i, x in v.items():
                entries[i, n + t] = x
        stacked = SparseMatrix._owned(d_in.rows, n + len(ker), entries)
        reps = [ker[c - n] for c in stacked.pivot_columns() if c >= n]
    return HomologyResult(dim, reps)


def solve_linear(m: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The exact solution x of m x = b that is zero at the non-pivot
    columns of m, for a matrix b of right-hand sides.

    One elimination of [m | b] serves every column of b.  Raises
    NoSolution when any column of b is outside the image of m, and
    IdentityViolated when m x != b.
    """
    if b.rows != m.rows:
        raise ValueError("rhs rows mismatch")
    n = m.cols
    rhs = (((i, n + j), v) for (i, j), v in b.items())
    reduced = _reduce(_eliminate(_int_rows(chain(m.items(), rhs))))
    if reduced and reduced[-1][0] >= n:
        raise NoSolution("rhs not in the image")
    x = SparseMatrix(
        n, b.cols, [(c, j - n, v) for c, row in reduced for j, v in row.items() if j >= n]
    )
    if m @ x != b:
        raise IdentityViolated("solve_linear: m x != b")
    return x


# ---------------------------------------------------------------------------
# Q[hbar]
# ---------------------------------------------------------------------------


class QPoly:
    """Dense univariate polynomial over Q in canonical expanded form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def hbar(cls, power=1):
        return cls((0,) * power + (1,))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = other if isinstance(other, QPoly) else QPoly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, QPoly) else QPoly.const(other)
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def evaluate(self, value):
        value = _as_rat(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc
