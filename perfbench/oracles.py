"""Closed-form answers for the benchmark jobs.

Nothing here imports `spw`: every expected value is derived from a
theorem and plain counting, so a wrong answer from the program cannot
leak into its own check.

De Rham windows.  For a free graded-commutative algebra B with zero
differential, DR(B) is free on the letters g and dg, and the total
complex of a window only carries the de Rham differential eps.  eps
keeps the word length l and the quantity c = weight - degree of a
monomial, and the Euler contraction h gives eps h + h eps = l on words
of length l.  So for l >= 1 each strand (l, c), graded by weight, is
exact (Poincare lemma).  A window keeps weights [wmin, wmax] and degrees
[dmin, dmax]: on a strand that is the weight interval
[max(wmin, dmin + c), min(wmax, dmax + c)], a subcomplex cut below and a
quotient above.  Its cohomology sits only at the two ends and follows
from the monomial counts by rank-nullity along the exact strand.
"""

from __future__ import annotations

from math import comb, factorial


def de_rham_counts(gens, max_len):
    """{(length, weight, degree): number of DR(B) monomials} for B free on
    `gens` = [(degree, weight), ...]; odd-degree letters appear at most once."""
    letters = []
    for degree, weight in gens:
        letters.append((degree, weight))
        letters.append((degree + 1, weight + 1))
    counts = {(0, 0, 0): 1}
    for degree, weight in letters:
        cap = 1 if degree % 2 else max_len
        nxt = {}
        for (length, w, m), n in counts.items():
            for e in range(min(cap, max_len - length) + 1):
                key = (length + e, w + e * weight, m + e * degree)
                nxt[key] = nxt.get(key, 0) + n
        counts = nxt
    return counts


def window_cohomology(gens, degree, wmin, wmax, dmin, dmax, max_len):
    """dim H^degree of the window's total complex of DR(B), d(B) = 0."""
    strands = {}
    for (length, w, m), n in de_rham_counts(gens, max_len).items():
        strands.setdefault((length, w - m), {})[w] = n
    total = 0
    for (length, c), dims in strands.items():
        w = degree + c
        lo, hi = max(wmin, dmin + c), min(wmax, dmax + c)
        if not lo <= w <= hi:
            continue
        if length == 0 or lo == hi:
            total += dims.get(w, 0)
            continue

        def rank_out(x):
            # rank of eps leaving weight x on the exact full strand
            return sum((-1) ** (x - j) * dims.get(j, 0) for j in range(min(dims), x + 1))

        if w == lo:
            total += dims.get(w, 0) - rank_out(w)
        elif w == hi:
            total += dims.get(w, 0) - rank_out(w - 1)
    return total


def window_degrees(gens, wmin, wmax, dmin, dmax, max_len):
    """Degrees in which the window has basis monomials."""
    return sorted({
        m for (_, w, m) in de_rham_counts(gens, max_len)
        if wmin <= w <= wmax and dmin <= m <= dmax
    })


def de_rham_dims(gens, size):
    """homology_dims() of the de Rham window wmax = dmax = max_len = size,
    wmin = 0, dmin = -size: every degree from the lowest to the highest
    one that has basis elements."""
    args = (0, size, -size, size, size)
    degs = window_degrees(gens, *args)
    return {m: window_cohomology(gens, m, *args) for m in range(degs[0], degs[-1] + 1)}


def poincare_violations(dims, size):
    """Degrees where H^0 = 1, H^m = 0 (0 < m < size) fails; the top
    degree is a window artifact and is left out."""
    bad = [m for m, v in dims.items() if 0 < m < size and v != 0]
    if dims.get(0) != 1:
        bad.insert(0, 0)
    return bad


def closed_form_tables(gens, wmax, max_len, p=2, n=0):
    """(classes, hodge stages, fiber dims) of `spw closed-forms`: H^{n+p}
    of weights p..top for each top, and of each single weight m + 1."""
    deg = n + p
    box = (deg - 2, deg + 2, max_len)
    stages = {top: window_cohomology(gens, deg, p, top, *box) for top in range(p, wmax + 1)}
    fibers = {m: window_cohomology(gens, deg, m + 1, m + 1, *box) for m in range(p, wmax)}
    return stages[wmax], stages, fibers


def polynomial_closed_two_forms(k, max_len):
    """Closed 2-forms on Q[x_1..x_k] with coefficients of degree <= max_len - 2:
    sum_j sum_t (-1)^t C(k, 2+t) C(j-t+k-1, k-1), by the Poincare lemma."""
    return sum(
        (-1) ** t * comb(k, 2 + t) * comb(j - t + k - 1, k - 1)
        for j in range(max_len - 1)
        for t in range(j + 1)
    )


def arnold_hilbert_series(n, arity):
    """prod_{j=1}^{arity-1} (1 + j t^n) as {degree: coefficient}."""
    series = {0: 1}
    for j in range(1, arity):
        nxt = dict(series)
        for d, c in series.items():
            nxt[d + n] = nxt.get(d + n, 0) + j * c
        series = nxt
    return series


def operad_dimension(operad, arity):
    """k! for As, P_n and BD1 (either specialization); (k-1)! for Lie."""
    return factorial(arity - 1) if operad == "lie" else factorial(arity)


def koszul_quotient_dims(power):
    """`spw koszul` on Q[x] with ideal (x^power): x^power is regular, so
    H^0 = Q[x]/(x^power) and higher homotopy vanishes."""
    return {0: power, 1: 0, 2: 0}


def completion_h0(power, weight):
    """H^0 of the weight <= `weight` realization of the formal completion
    of Q[x] along (x^power): Q[x]/(x^(power (weight + 1)))."""
    return power * (weight + 1)


# README exit-code contract for the example manifests: these pairs are
# mathematical failures (1) or inconclusive (3); everything else passes.
EXPECTED_EXIT = {
    ("jacobi_failure", "check-poisson"): 1,
    ("jacobi_failure", "mc"): 1,
    ("jacobi_failure", "dualize"): 1,
    ("negative_weight", "tate"): 3,
}
