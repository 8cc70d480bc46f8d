"""Independent recomputations used to check package results.

Each function here re-derives a quantity through a different route than
the implementation under test: minimal indices come from nullities of
stacked coefficient matrices instead of kernel chains, determinants come
from Fraction elimination and Lagrange interpolation, the pencil rank
comes from direct evaluation at many integer parameters, eigenvalue
candidates come from Euclid, Yun and repeated division over Q instead of
one factorization over Z, and the core of a skew pencil is spanned at
dim + 1 regular points instead of stopping early.
"""

from __future__ import annotations

from fractions import Fraction

from penciljk.exactla import IntVec, Mat, kernel_basis, rank, row_space_basis
from penciljk.pencils import Pencil, _invertible_profile
from penciljk.polys import Poly, coprime_basis, poly_gcd


def eval_rank(p: Pencil) -> int:
    """Largest rank of A + tB over t = 0..min(m,n)+1.

    The rank can fall below its generic value at most min(m, n) times, so
    scanning min(m, n) + 2 integers always reaches the generic value.
    """
    best = 0
    for t in range(min(p.m, p.n) + 2):
        best = max(best, rank(p.at(t)))
    return best


def _stacked(p: Pencil, d: int) -> Mat:
    """(d+2) x (d+1) block matrix of shifted coefficients.

    Kernel vectors encode polynomial kernel solutions of degree <= d.
    """
    zero = Mat.zeros(p.m, p.n)
    rows = []
    for br in range(d + 2):
        blocks = []
        for bc in range(d + 1):
            if br == bc:
                blocks.append(p.a)
            elif br == bc + 1:
                blocks.append(p.b)
            else:
                blocks.append(zero)
        rows.append(Mat.hstack(blocks))
    return Mat.vstack(rows)


def stacked_minimal_widths(p: Pencil) -> tuple[int, ...]:
    """Horizontal block widths from nullities of the stacked matrices.

    The nullity at degree d equals the sum of d + 1 - e over kernel
    degrees e <= d, so consecutive differences count the degrees.
    """
    expected = p.n - eval_rank(p)
    widths: list[int] = []
    prev_nullity = 0
    prev_count = 0
    d = 0
    while len(widths) < expected:
        s = _stacked(p, d)
        nullity = s.n - rank(s)
        count = nullity - prev_nullity
        widths.extend([d + 1] * (count - prev_count))
        prev_nullity, prev_count = nullity, count
        d += 1
    return tuple(sorted(widths, reverse=True))


def stacked_minimal_indices(p: Pencil) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return stacked_minimal_widths(p), stacked_minimal_widths(p.transposed())


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    k = len(a)
    out = Fraction(1)
    for c in range(k):
        piv = next((i for i in range(c, k) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, k):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def _lagrange(points, values) -> Poly:
    acc = Poly(())
    for i, ti in enumerate(points):
        num = Poly((1,))
        denom = Fraction(1)
        for j, tj in enumerate(points):
            if i != j:
                num = num * Poly((-tj, 1))
                denom *= ti - tj
        acc = acc + num * (values[i] / denom)
    return acc


def interp_det(p: Pencil) -> Poly:
    """det(A + tB) for a square pencil, by Lagrange interpolation of
    Fraction determinants at n + 1 points."""
    if p.m != p.n:
        raise ValueError("determinant of a non-square pencil")
    points = list(range(p.n + 1))
    return _lagrange(points, [fraction_det(p.at(t).tolist()) for t in points])


def _first_regular(p: Pencil, r: int) -> int:
    t = 0
    while rank(p.at(t)) != r:
        t += 1
    return t


def valuation(g: Poly, f: Poly) -> int:
    """Largest e with f**e dividing g (g nonzero, f nonconstant), by
    repeated division over Q."""
    e = 0
    while True:
        q, r = divmod(g, f)
        if not r.is_zero():
            return e
        g = q
        e += 1


def fraction_candidates(p: Pencil, r: int) -> tuple[list[tuple[Poly, int]], int]:
    """Candidate classes with minor bounds, and the bound at infinity, by
    the Fraction route: the same two full-rank minors, interpolated from
    Fraction determinants, then Euclid over Q (``poly_gcd``), Yun and
    per-factor splitting (``coprime_basis``) and repeated division
    (``valuation``)."""
    base = p.at(_first_regular(p, r))
    minors = []
    for from_end in (False, True):
        rows, cols = _invertible_profile(base, from_end)
        points = list(range(len(rows) + 1))
        values = [fraction_det(p.at(t).submatrix(rows, cols).tolist()) for t in points]
        minors.append(_lagrange(points, values))
    g = poly_gcd(*minors)
    top = max(f.degree() for f in minors)
    if g.degree() < 1:
        return [], r - top
    return [(f, valuation(g, f)) for f in coprime_basis([g])], r - top


def dense_core(p: Pencil) -> list[IntVec]:
    """Span of the kernels of A + tB at the first dim + 1 regular integers.

    Kernel vectors depend polynomially on t with degree below dim, so
    dim + 1 regular points exhaust the span.
    """
    r = eval_rank(p)
    vectors: list[IntVec] = []
    found = 0
    t = 0
    while found < p.n + 1:
        mat = p.at(t)
        if rank(mat) == r:
            vectors.extend(kernel_basis(mat))
            found += 1
        t += 1
    return row_space_basis(vectors, p.n)
