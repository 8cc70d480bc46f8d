"""Independent recomputations used to check package results.

Each function here re-derives a quantity through a different route than
the implementation under test: minimal indices come from nullities of
stacked coefficient matrices instead of kernel chains, determinants come
from Fraction elimination and Lagrange interpolation, the pencil rank
comes from direct evaluation at many integer parameters, eigenvalue
totals come from the gcd of every full-rank minor over Q instead of one
determinant of the regular part factored over Z, irreducible factors
come from sympy instead of the package's Zassenhaus factorizer,
squarefree parts come from Yun's algorithm over Q instead of over Z,
block sizes come from ranks of k-fold block bidiagonal resolvents of the
whole pencil, or from the kernel chain of the regular part with the
class's root adjoined as a companion matrix, instead of the powers of
one Möbius-shifted matrix of the regular part, and at degree-1 and
infinite classes from those powers instead of the Wong chain of the
regular pencil, kernel vectors are back-substituted with gcd rescaling
instead of from the Cramer-scaled free coordinate, each step
of a kernel chain eliminates its stacked matrix from scratch instead of
continuing one elimination, the Bareiss elimination updates whole rows
instead of only the cells right of each pivot, the complement of a chain
limit inside a kernel comes from the pivot columns of [inside | basis]
instead of the free coordinates of the kernel basis, the functionals
vanishing on a chain limit's image are back-substituted at once by
``kernel_basis`` instead of held as a kernel view, the regular part is
multiplied out over every coordinate of its complements instead of their
nonzero ones, matrix rows of integer strings are read entry by entry
instead of in one pass, the core of a skew pencil is spanned at
dim + 1 regular points instead of read off the kernel chain's limit,
invariant factors come from a Smith form of A + t*B over Q[t] instead of
the elementary divisors of the regular part, structure constants are
solved one commutator at a time instead of all at once by one solve,
square systems are solved by Gauss-Jordan over Fractions instead of one
fraction-free elimination and integer back-substitution,
Jacobi violations come from a cyclic sum of Fraction brackets
instead of the defect of the adjoint operators, Poisson matrices and
contraction operators come from dense contractions with the coadjoint
operators and the operators, over adjoint operators summed as Fractions
from the raw bracket entries, instead of from the nonzero integer
brackets and operator entries, the brackets of a semi-direct sum are
read off the operators' columns as Fractions instead of their integer
rows, and the closure order on
signatures comes from a breadth-first search over six rewriting rules
instead of Hom-dimension inequalities, and the maximal rank-r strata are
built for every column defect (``generic_fixed_rank_sig``) and tried in
turn instead of read off the signature.  Polynomials over Q are those of
the Fraction ring in ``qpoly``; classes are passed in and
returned in the package's stored form, primitive integer tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, lcm
from operator import mul

from penciljk.exactla import (
    IntVec,
    Mat,
    free_columns,
    kernel_basis,
    pivot_columns,
    preimage_chain,
    rank,
    row_space_basis,
)
from penciljk.errors import InputFormatError
from penciljk.jsonio import str_to_rat
from penciljk.pencils import Pencil, _class_matrix
from penciljk.polys import (
    ZPoly,
    _zadd,
    _zcontent,
    _zdeg,
    _zmul,
    _zpseudo_divmod,
    _ztrim,
)
from penciljk.errors import CertificateNotApplicableError
from penciljk.strata import BundleSig, _hom_preinjective, _hom_preprojective, _partitions

from helpers import derivative, divides, from_cols, hstack, matmul, vstack, zeros
from qpoly import Poly, monic, monic_gcd, primitive


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
    zero = zeros(p.m, p.n)
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
        rows.append(hstack(blocks))
    return vstack(rows)


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
    return stacked_minimal_widths(p), stacked_minimal_widths(p.transposed)


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


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm over Q; returns [(monic squarefree factor, multiplicity)]."""
    if p.degree() < 1:
        return []
    p = p.monic()
    d = derivative(p)
    a = monic_gcd(p, d)
    b = p // a
    c = d // a
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree() >= 1:
        z = c - derivative(b)
        f = monic_gcd(b, z)
        if f.degree() >= 1:
            out.append((f.monic(), i))
        b = b // f
        c = z // f
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    out = Poly([1])
    for f, _ in squarefree_decomposition(p):
        out = out * f
    return out.monic()


def sympy_factors(p: ZPoly) -> list[tuple[tuple[int, ...], int]]:
    """``polys.integer_factors`` recomputed by sympy's ``factor_list`` over
    ZZ: irreducible factors as primitive integer tuples with a positive
    leading coefficient, with multiplicities, ordered by their monic forms
    over Q; none for a constant."""
    from sympy import Poly as SymPoly, Symbol

    if len(p) < 2:
        return []
    _, parts = SymPoly(list(reversed(p)), Symbol("t"), domain="ZZ").factor_list()
    out = [(primitive(Poly([int(c) for c in reversed(f.all_coeffs())])), mult) for f, mult in parts]
    out.sort(key=lambda fm: monic(fm[0]).sort_key())
    return out


def cleared(p: Poly) -> ZPoly:
    """p scaled by the lcm of its denominators, as integer coefficients."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [int(c * den) for c in p.coeffs]


def _invertible_profile(mat: Mat, from_end: bool) -> tuple[list[int], list[int]]:
    """Row and column indices of an invertible rank(mat) x rank(mat) submatrix.

    Rows are chosen first (pivots of the transposed echelon form), then
    columns inside those rows, which makes the intersection invertible.
    ``from_end`` flips the scan order so a second call can find a
    different witness.
    """
    row_order = list(range(mat.m))
    col_order = list(range(mat.n))
    if from_end:
        row_order.reverse()
        col_order.reverse()
    piv = pivot_columns(mat.submatrix(row_order, col_order).transpose())
    rows = sorted(row_order[i] for i in piv)
    piv = pivot_columns(mat.submatrix(rows, col_order))
    cols = sorted(col_order[j] for j in piv)
    return rows, cols


def _minor_poly(p: Pencil, rows, cols) -> Poly:
    points = list(range(len(rows) + 1))
    values = [fraction_det(p.at(t).submatrix(rows, cols).tolist()) for t in points]
    return _lagrange(points, values)


def _totals_of_gcd(g: Poly, top: int, r: int) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    if g.degree() < 1:
        return [], r - top
    return [(f, valuation(g, monic(f))) for f, _ in sympy_factors(cleared(g))], r - top


def fraction_candidates(p: Pencil, r: int) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Candidate classes with bounds on their totals, and the bound at
    infinity, from two full-rank minors only: interpolated from Fraction
    determinants, then Euclid over Q (``monic_gcd``), irreducible factors
    from sympy and repeated division (``valuation``).
    Every class is a candidate, but a candidate may carry no blocks."""
    base = p.at(_first_regular(p, r))
    minors = [_minor_poly(p, *_invertible_profile(base, from_end)) for from_end in (False, True)]
    return _totals_of_gcd(monic_gcd(*minors), max(f.degree() for f in minors), r)


def all_minor_totals(p: Pencil, r: int) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Exact total block size of every finite class, and of infinity.

    The gcd of all r x r minors of A + t*B is the product of the finite
    elementary divisors (up to a constant), and the homogenized minors
    share exactly u**(infinite total), which is r minus the largest minor
    degree.  Every minor is interpolated from Fraction determinants.
    """
    points = list(range(r + 1))
    values = [p.at(t).tolist() for t in points]
    g = Poly(())
    top = -1
    for rows in combinations(range(p.m), r):
        for cols in combinations(range(p.n), r):
            dets = [fraction_det([[v[i][j] for j in cols] for i in rows]) for v in values]
            if any(dets):
                f = _lagrange(points, dets)
                g = monic_gcd(g, f)
                top = max(top, f.degree())
    return _totals_of_gcd(g, top, r)


def resolvent_sizes(p: Pencil, cls: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Jordan sizes at a class, given in its stored integer form, from
    resolvents of the whole pencil, built as Fraction matrices with the
    companion matrix of its monic form, ranked until the defect repeats;
    ``r`` is the normal rank."""
    f = monic(cls)
    d = f.degree()
    comp = [[Fraction(int(s == t + 1)) for t in range(d)] for s in range(d)]
    for s in range(d):
        comp[s][d - 1] = -f.coeffs[s]
    a, b = p.a.tolist(), p.b.tolist()
    diag = [
        [(a[i][j] if s == t else 0) + b[i][j] * comp[s][t] for j in range(p.n) for t in range(d)]
        for i in range(p.m)
        for s in range(d)
    ]
    sup = [[b[i][j] if s == t else 0 for j in range(p.n) for t in range(d)] for i in range(p.m) for s in range(d)]
    width = p.n * d
    defects = [0]
    k = 1
    while True:
        rows = []
        for i in range(k):
            for dr, sr in zip(diag, sup):
                row = [0] * (width * k)
                row[i * width : (i + 1) * width] = dr
                if i + 1 < k:
                    row[(i + 1) * width : (i + 2) * width] = sr
                rows.append(row)
        defect = k * r - rank(Mat(rows, n=width * k)) // d
        if defect == defects[-1]:
            break
        defects.append(defect)
        k += 1
    return _sizes_from_defects(defects)


def companion_parts(p: Pencil, cls: tuple[int, ...]) -> tuple[Mat, Mat]:
    """Integer matrices M and N of the Jordan chain of a square pencil at
    a finite class, given in its stored integer form: the companion
    expansion.

    With C the companion matrix of the monic cls, scaled by the lcm L of the
    denominators of its coefficients, M = A (x) L*I + B (x) L*C and
    N = B (x) I, so M is L times A + t*B with the root of cls adjoined as
    C (A and B taken as integer rows over one denominator).  Scaling M by
    a nonzero constant changes no preimage, so the chain is that of
    A (x) I + B (x) C.  A rational class t - u/v has L = v and C = (u/v),
    so M and N are v*A + u*B and B.
    """
    coeffs = monic(cls).coeffs
    d = len(coeffs) - 1
    lcd = lcm(*[c.denominator for c in coeffs])
    comp = [[lcd if s == t + 1 else 0 for t in range(d)] for s in range(d)]
    for s in range(d):
        comp[s][d - 1] = -(coeffs[s] * lcd).numerator
    arows = [[p.b.den * x for x in r] for r in p.a.rows]
    brows = [[p.a.den * y for y in r] for r in p.b.rows]
    diag = [
        [
            (lcd * x if s == t else 0) + y * comp[s][t]
            for x, y in zip(ra, rb)
            for t in range(d)
        ]
        for ra, rb in zip(arows, brows)
        for s in range(d)
    ]
    sup = [[y if s == t else 0 for y in rb for t in range(d)] for rb in brows for s in range(d)]
    width = p.n * d
    return Mat.from_ints(diag, width), Mat.from_ints(sup, width)


def companion_sizes(p: Pencil, cls: tuple[int, ...]) -> tuple[int, ...]:
    """Jordan sizes of a square regular pencil at a finite class, from the
    kernel chain of its companion expansion run until its dimension
    repeats: dim W_k is the degree times the sum of min(k, size)."""
    d = len(cls) - 1
    dims = [0]
    for basis, _ in preimage_chain(*companion_parts(p, cls)):
        if len(basis) == dims[-1]:
            break
        dims.append(len(basis))
    return _sizes_from_defects([k // d for k in dims])


def _sizes_from_defects(defects: list[int]) -> tuple[int, ...]:
    # defects[k] - defects[k-1] counts the blocks of size >= k
    counts = [defects[k] - defects[k - 1] for k in range(1, len(defects))] + [0]
    sizes: list[int] = []
    for k in range(len(counts) - 1, 0, -1):
        sizes.extend([k] * (counts[k - 1] - counts[k]))
    return tuple(sizes)


def power_sizes(m: Mat, t0: int, cls: tuple[int, ...] | None, total: int) -> tuple[int, ...]:
    """Block sizes at a class, at infinity for cls None, read off the
    kernels of the powers of G = D^d g(M) for every class, as
    ``pencils._sizes_at_class`` read them before degree-1 and infinite
    classes moved to the Wong chain of the regular pencil: one rank of G,
    then ``preimage_chain(G, I)`` until the defect reaches ``total``."""
    if total == 0:
        return ()
    d = 1 if cls is None else len(cls) - 1
    g = _class_matrix(m, t0, cls)
    identity = Mat.from_ints([[int(i == j) for j in range(g.n)] for i in range(g.n)], g.n)
    dims = [g.n - rank(g)]
    chain = preimage_chain(g, identity)
    if len(next(chain)[0]) != dims[0]:
        raise AssertionError("the kernel of G disagrees with its rank")
    while dims[-1] < d * total:
        dims.append(len(next(chain)[0]))
        if dims[-1] <= dims[-2]:
            raise AssertionError("the kernels of the powers of G stop below the total")
    return _sizes_from_defects([0] + [k // d for k in dims])


def gcd_back_substitute(rows: list[list[int]], piv_cols: list[int], f: int, n: int) -> list[int]:
    """The kernel vector of fraction-free echelon rows at the free column f,
    up to a nonzero integer factor, as ``exactla._back_substitute`` found
    it before it started x_f at a pivot: x_f = 1, and at every pivot whose
    quotient would not be an integer, x is first multiplied by the pivot
    over its gcd with the sum."""
    end = f + 1
    x = [0] * end
    x[f] = 1
    for k in range(bisect_left(piv_cols, f) - 1, -1, -1):
        c = piv_cols[k]
        s = sum(map(mul, rows[k][c + 1 : end], x[c + 1 :]))
        if s:
            p = rows[k][c]
            g = gcd(s, p)
            if p != g:
                x = [v * (p // g) for v in x]
            x[c] = -s // g
    return x + [0] * (n - end)


def restart_chain(m: Mat, b: Mat):
    """Bases of W_1 = ker M, W_2, ... of the nested kernel chain
    W_{k+1} = M^-1(B W_k), each step eliminating the stacked matrix
    [db * M_int | -dm * B_int W_k] from scratch."""
    n = m.n
    left = [[b.den * x for x in r] for r in m.rows]
    basis = kernel_basis(m)
    while True:
        yield basis
        rows = [
            lr + [-m.den * sum(x * y for x, y in zip(br, v)) for v in basis]
            for lr, br in zip(left, b.rows)
        ]
        stacked = Mat.from_ints(rows, n + len(basis))
        basis = row_space_basis([vec[:n] for vec in kernel_basis(stacked)], n)


def full_row_echelon(
    rows: list[list[int]], n: int, start: int = 0, r: int = 0, prev: int = 1
) -> tuple[int, list[int], int, int]:
    """``exactla._echelon`` as it was before it left the zeros left of each
    pivot alone: every row below the pivot is updated whole, by a new
    list."""
    m = len(rows)
    sign = 1
    piv_cols: list[int] = []
    for c in range(start, n):
        if r == m:
            break
        best = -1
        size = 0
        for i in range(r, m):
            x = rows[i][c]
            if x and (best < 0 or abs(x) < size):
                best = i
                size = abs(x)
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            sign = -sign
        top = rows[r]
        pivot = top[c]
        for i in range(r + 1, m):
            row = rows[i]
            head = row[c]
            if head:
                rows[i] = [(x * pivot - head * y) // prev for x, y in zip(row, top)]
            elif pivot != prev:
                rows[i] = [x * pivot // prev for x in row]
        prev = pivot
        piv_cols.append(c)
        r += 1
    return r, piv_cols, sign, prev


def pivot_complement(inside, basis, n: int) -> list[IntVec]:
    """The vectors of ``basis`` at the pivot columns of the n x (|inside| +
    |basis|) matrix [inside | basis] beyond ``inside``."""
    vectors = list(inside) + list(basis)
    rows = [[v[i] for v in vectors] for i in range(n)]
    skip = len(inside)
    return [basis[j - skip] for j in pivot_columns(Mat.from_ints(rows, len(vectors))) if j >= skip]


def eager_deficiency(p: Pencil, v) -> tuple[int, list[IntVec]]:
    """``pencils._deficiency`` with its functionals back-substituted at
    once: dim V - dim BV for the span V of the independent vectors v, and
    the ``kernel_basis`` of the rows Bv, the unit vectors when v is
    empty."""
    if not v:
        return 0, [tuple(int(i == j) for j in range(p.m)) for i in range(p.m)]
    image = [[sum(map(mul, row, x)) for row in p.b.rows] for x in v]
    ann = kernel_basis(Mat.from_ints(image, p.m))
    return len(v) - (p.m - len(ann)), ann


def dense_restricted(mat: Mat, left, right, scale: int) -> list[list[int]]:
    """``pencils._restricted`` over every coordinate: the integer rows of
    scale * Q mat_int P, with Q's rows ``left`` and P's columns ``right``."""
    images = [[sum(map(mul, row, v)) for row in mat.rows] for v in right]
    return [[scale * sum(map(mul, q, w)) for w in images] for q in left]


def per_entry_matrix(rows, m: int, n: int, where: str) -> Mat:
    """``jsonio._matrix_from_json`` with every row that is not all JSON
    integers read entry by entry through ``str_to_rat``."""
    if not isinstance(rows, list) or len(rows) != m:
        raise InputFormatError(f"{where} must be a list of {m} rows")
    out = []
    plain = True
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"each row of {where} must have {n} entries")
        if not all(type(x) is int for x in row):
            row = [str_to_rat(x) for x in row]
            plain = plain and all(type(x) is int for x in row)
        out.append(row)
    return Mat.from_ints(out, n) if plain else Mat(out, n=n)


def patch_dense_checks(monkeypatch, pencils) -> dict[str, int]:
    """Wrap ``pencils._deficiency`` and ``pencils._restricted`` so that
    every call must agree with ``eager_deficiency`` and
    ``dense_restricted``: the same count, the same free columns and the
    same functionals in the same order, and the same restricted rows.
    Returns the number of calls of each, which grows as they run."""
    calls = {"deficiency": 0, "restricted": 0}
    real_deficiency, real_restricted = pencils._deficiency, pencils._restricted

    def deficiency(q, v):
        d, view = real_deficiency(q, v)
        want_d, want = eager_deficiency(q, v)
        assert (d, len(view)) == (want_d, len(want))
        assert view.free == free_columns(want)
        assert list(view) == want
        calls["deficiency"] += 1
        return d, view

    def restricted(mat, left, right, scale):
        rows = real_restricted(mat, left, right, scale)
        assert rows == dense_restricted(mat, left, right, scale)
        calls["restricted"] += 1
        return rows

    monkeypatch.setattr(pencils, "_deficiency", deficiency)
    monkeypatch.setattr(pencils, "_restricted", restricted)
    return calls


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


# ---------------------------------------------------------------------------
# Smith form over Q[t], fraction-free: rows are scaled to integer
# coefficients and all reductions use pseudo-division in Z[t] followed by
# content removal, which keeps coefficient growth in check.  Unit factors
# are irrelevant for invariant factors, so results are made monic at the end.


def pencil_entries(p: Pencil) -> list[list[Poly]]:
    """Entries of A + t*B as degree <= 1 polynomials in t."""
    return [[Poly([p.a.entry(i, j), p.b.entry(i, j)]) for j in range(p.n)] for i in range(p.m)]


def _zscale_sub(a: ZPoly, s: int, b: ZPoly, q: ZPoly) -> ZPoly:
    """s*a - q*b."""
    qb = _zmul(q, b)
    out = [s * c for c in a]
    if len(out) < len(qb):
        out.extend([0] * (len(qb) - len(out)))
    for i, c in enumerate(qb):
        out[i] -= c
    return _ztrim(out)


def _zdivides(p: ZPoly, q: ZPoly) -> bool:
    """Does p divide q over Q?"""
    if not q:
        return True
    if not p:
        return False
    _, _, r = _zpseudo_divmod(q, p)
    return not r


def _z_to_poly(p: ZPoly) -> Poly:
    return Poly([Fraction(c) for c in p])


def _poly_row_to_z(row) -> list[ZPoly]:
    """A row of Fraction polynomials scaled by one common integer to
    integer coefficients."""
    mult = lcm(*(c.denominator for p in row for c in p.coeffs))
    return [_ztrim([int(c * mult) for c in p.coeffs]) for p in row]


def smith_invariant_factors(entries) -> list[Poly]:
    """Monic invariant factors d_1 | d_2 | ... of a polynomial matrix.

    Row/column swaps, constant row scalings and adding a polynomial
    multiple of one row/column to another are the only operations used,
    all unimodular over Q[t].
    """
    m = len(entries)
    n = len(entries[0]) if m else 0
    a: list[list[ZPoly]] = [_poly_row_to_z(row) for row in entries]
    factors: list[Poly] = []
    top = 0
    while top < m and top < n:
        # locate a pivot of minimal degree in the remaining block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j]:
                    key = (_zdeg(a[i][j]), max(abs(c) for c in a[i][j]))
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(top + 1, m):
                if a[i][top]:
                    s, q, r = _zpseudo_divmod(a[i][top], a[top][top])
                    a[i] = [_zscale_sub(x, s, a[top][k], q) for k, x in enumerate(a[i])]
                    g = _zcontent([c for p in a[i] for c in p])
                    if g > 1:
                        a[i] = [[c // g for c in p] for p in a[i]]
                    if r:
                        # remainder has lower degree: promote it to pivot
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the pivot row
            for j in range(top + 1, n):
                if a[top][j]:
                    s, q, r = _zpseudo_divmod(a[top][j], a[top][top])
                    for i2 in range(top, m):
                        a[i2][j] = _zscale_sub(a[i2][j], s, a[i2][top], q)
                    col = [c for i2 in range(m) for c in a[i2][j]]
                    g = _zcontent(col)
                    if g > 1:
                        for i2 in range(m):
                            a[i2][j] = [c // g for c in a[i2][j]]
                    if r:
                        for i2 in range(m):
                            a[i2][top], a[i2][j] = a[i2][j], a[i2][top]
                        dirty = True
                        break
            if dirty:
                continue
            if any(a[i][top] for i in range(top + 1, m)):
                continue
            # pivot must divide the rest of the matrix
            witness = None
            for i in range(top + 1, m):
                for j in range(top + 1, n):
                    if a[i][j] and not _zdivides(a[top][top], a[i][j]):
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            # fold the offending row into the pivot row; the next reduction
            # pass strictly lowers the pivot degree, so this terminates
            a[top] = [_zadd(p, q) for p, q in zip(a[top], a[witness])]
        factors.append(_z_to_poly(a[top][top]).monic())
        top += 1
    for k in range(1, len(factors)):
        if not divides(factors[k - 1], factors[k]):
            raise AssertionError("invariant factor chain broken")
    return factors


# ---------------------------------------------------------------------------
# Jacobi identity from a Fraction bracket table


def cyclic_jacobi(dim: int, entries) -> list[tuple[int, int, int]]:
    """Basis triples i < j < k where [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
    + [[e_k, e_i], e_j] is nonzero, for the antisymmetric brackets given by
    the (i, j, k, c) list with i < j.  Every bracket is expanded densely
    over the basis; only the zero products are skipped."""
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in entries:
        table[i][j][k] += Fraction(c)
        table[j][i][k] -= Fraction(c)

    def bracket(u, v):
        out = [Fraction(0)] * dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if vj:
                    for k, c in enumerate(table[i][j]):
                        if c:
                            out[k] += ui * vj * c
        return out

    basis = [[Fraction(int(i == t)) for t in range(dim)] for i in range(dim)]
    bad = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = [Fraction(0)] * dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, v in enumerate(bracket(table[a][b], basis[c])):
                        if v:
                            acc[t] += v
                if any(acc):
                    bad.append((i, j, k))
    return bad


# ---------------------------------------------------------------------------
# one linear system at a time, the way the catalog solved them before it
# solved all commutators at once


def fraction_solve(a, b) -> list[list[Fraction]] | None:
    """X with a X = b by Gauss-Jordan elimination over Fractions, for a
    square a given as rows and b as rows; None when a is singular."""
    n = len(a)
    rows = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb] for ra, rb in zip(a, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        top = [x / rows[c][c] for x in rows[c]]
        rows[c] = top
        for i in range(n):
            head = rows[i][c]
            if i != c and head:
                rows[i] = [x - head * y for x, y in zip(rows[i], top)]
    return [r[n:] for r in rows]


def solve_unique(a: Mat, b) -> tuple[Fraction, ...]:
    """Solve a x = b when the solution exists and is unique."""
    b = [Fraction(x) for x in b]
    if len(b) != a.m:
        raise ValueError("right-hand side length mismatch")
    if a.m == 0:
        if a.n == 0:
            return ()
        raise ValueError("underdetermined system")
    aug = Mat([list(row) + [-bv] for row, bv in zip(a.tolist(), b)], n=a.n + 1)
    ker = kernel_basis(aug)
    sols = [v for v in ker if v[a.n] != 0]
    if not sols:
        raise ValueError("inconsistent linear system")
    if len(ker) != 1:
        raise ValueError("underdetermined system")
    v = sols[0]
    t = v[a.n]
    return tuple(Fraction(x, t) for x in v[: a.n])


def inverse(mat: Mat) -> Mat:
    cols = [
        solve_unique(mat, [1 if i == j else 0 for i in range(mat.m)])
        for j in range(mat.m)
    ]
    return from_cols(cols, mat.m)


def pairwise_structure_entries(mats: list[Mat]) -> list[tuple[int, int, int, Fraction]]:
    """Structure constants of a closed, independent basis of matrices, one
    ``solve_unique`` per commutator on the rows where the flattened basis
    is independent."""
    dim = len(mats)
    flat = from_cols([[x for r in mat.tolist() for x in r] for mat in mats], mats[0].m * mats[0].n)
    rows = pivot_columns(flat.transpose())
    square = flat.submatrix(rows, range(dim))
    entries = []
    for i in range(dim):
        for j in range(i + 1, dim):
            w = matmul(mats[i], mats[j]) - matmul(mats[j], mats[i])
            wv = [x for r in w.tolist() for x in r]
            coords = solve_unique(square, [wv[t] for t in rows])
            entries.extend((i, j, k, c) for k, c in enumerate(coords) if c)
    return entries


# ---------------------------------------------------------------------------
# closure order by six rewriting rules, the way strata decided it before it
# tested Hom-dimension inequalities


def _rewritten(sig: BundleSig, slots, rank=None, horizontal=None, vertical=None) -> BundleSig:
    return BundleSig.make(
        m=sig.m,
        n=sig.n,
        rank=sig.rank if rank is None else rank,
        horizontal=sig.horizontal if horizontal is None else horizontal,
        vertical=sig.vertical if vertical is None else vertical,
        slots=slots,
    )


def _remove_one(values: tuple[int, ...], x: int) -> list[int]:
    out = list(values)
    out.remove(x)
    return out


def apply_rule(sig: BundleSig, rule: int, params) -> BundleSig:
    """Rewrite one signature into a more generic one.

    Rules 1/2 balance two horizontal/vertical indices.  Rules 3/4 widen a
    horizontal/vertical index by shrinking a Jordan block in one slot.
    Rule 5 unbalances two Jordan sizes inside one slot.  Rule 6 trades a
    horizontal and a vertical index for new Jordan blocks with sizes
    summing to their total minus one, placed in pairwise distinct slots
    (fresh ones or existing ones); the rank grows by one.

    Slot-valued params index into ``sig.slots``.  Raises ValueError when
    the requested blocks are absent or a side condition fails.
    """
    if rule == 1 or rule == 2:
        a, b = params
        pool = sig.horizontal if rule == 1 else sig.vertical
        if a > b - 2:
            raise ValueError("rule needs indices at distance at least 2")
        if a not in pool or b not in pool:
            raise ValueError("indices not present")
        new = _remove_one(tuple(_remove_one(pool, a)), b) + [a + 1, b - 1]
        if rule == 1:
            return _rewritten(sig, sig.slots, horizontal=new)
        return _rewritten(sig, sig.slots, vertical=new)

    if rule == 3 or rule == 4:
        w, idx, s = params
        pool = sig.horizontal if rule == 3 else sig.vertical
        if w not in pool:
            raise ValueError("index not present")
        if not (0 <= idx < len(sig.slots)) or s not in sig.slots[idx]:
            raise ValueError("slot block not present")
        slots = [list(t) for t in sig.slots]
        slots[idx].remove(s)
        if s > 1:
            slots[idx].append(s - 1)
        slots = [t for t in slots if t]
        new = _remove_one(pool, w) + [w + 1]
        if rule == 3:
            return _rewritten(sig, slots, horizontal=new)
        return _rewritten(sig, slots, vertical=new)

    if rule == 5:
        idx, j, k = params
        if not (1 <= j <= k):
            raise ValueError("rule needs 1 <= j <= k")
        if not 0 <= idx < len(sig.slots):
            raise ValueError("no such slot")
        slot = list(sig.slots[idx])
        if j == k and slot.count(j) < 2:
            raise ValueError("slot blocks not present")
        if j not in slot or k not in slot:
            raise ValueError("slot blocks not present")
        slot.remove(j)
        slot.remove(k)
        slot.append(k + 1)
        if j > 1:
            slot.append(j - 1)
        slots = [list(t) for t in sig.slots]
        slots[idx] = slot
        return _rewritten(sig, slots)

    if rule == 6:
        w, u, placements = params
        if w not in sig.horizontal or u not in sig.vertical:
            raise ValueError("indices not present")
        total = w + u - 1
        if sum(size for size, _ in placements) != total:
            raise ValueError("new sizes must sum to the removed total minus one")
        if any(size < 1 for size, _ in placements):
            raise ValueError("new sizes must be positive")
        targets = [t for _, t in placements if t is not None]
        if len(set(targets)) != len(targets):
            raise ValueError("existing-slot targets must be distinct")
        slots = [list(t) for t in sig.slots]
        for size, target in placements:
            if target is None:
                slots.append([size])
            else:
                if not 0 <= target < len(sig.slots):
                    raise ValueError("no such slot")
                slots[target].append(size)
        return _rewritten(
            sig,
            slots,
            rank=sig.rank + 1,
            horizontal=_remove_one(sig.horizontal, w),
            vertical=_remove_one(sig.vertical, u),
        )

    raise ValueError("rule must be 1..6")


def _rule6_placements(parts: tuple[int, ...], nslots: int):
    """Assignments of parts to pairwise distinct slots or to fresh ones."""
    if not parts:
        yield ()
        return
    first, rest = parts[0], parts[1:]
    for tail in _rule6_placements(rest, nslots):
        used = {t for _, t in tail if t is not None}
        yield ((first, None),) + tail
        for idx in range(nslots):
            if idx not in used:
                yield ((first, idx),) + tail


def successors(sig: BundleSig) -> set[BundleSig]:
    """All signatures reachable from ``sig`` by a single rule."""
    out: set[BundleSig] = set()
    hvals = sorted(set(sig.horizontal))
    vvals = sorted(set(sig.vertical))
    for a in hvals:
        for b in hvals:
            if a <= b - 2:
                out.add(apply_rule(sig, 1, (a, b)))
    for a in vvals:
        for b in vvals:
            if a <= b - 2:
                out.add(apply_rule(sig, 2, (a, b)))
    for idx, slot in enumerate(sig.slots):
        sizes = set(slot)
        for w in set(sig.horizontal):
            for s in sizes:
                out.add(apply_rule(sig, 3, (w, idx, s)))
        for u in set(sig.vertical):
            for s in sizes:
                out.add(apply_rule(sig, 4, (u, idx, s)))
        for j in sizes:
            for k in sizes:
                if j <= k and (j != k or slot.count(j) >= 2):
                    out.add(apply_rule(sig, 5, (idx, j, k)))
    for w in set(sig.horizontal):
        for u in set(sig.vertical):
            for parts in _partitions(w + u - 1):
                for placements in _rule6_placements(parts, len(sig.slots)):
                    out.add(apply_rule(sig, 6, (w, u, placements)))
    return out


def bfs_orbit_closure_contains(upper: BundleSig, lower: BundleSig) -> bool:
    """True when ``upper`` is reachable from ``lower`` by the rules.

    Breadth-first search over signatures, pruned by the monotone
    quantities: rank never decreases and the index counts never grow.
    """
    if (upper.m, upper.n) != (lower.m, lower.n):
        raise ValueError("signatures must have the same shape")
    if upper == lower:
        return True
    if upper.rank < lower.rank:
        return False
    seen = {lower}
    frontier = [lower]
    while frontier:
        nxt = []
        for sig in frontier:
            for child in successors(sig):
                if child in seen or child.rank > upper.rank:
                    continue
                if child == upper:
                    return True
                seen.add(child)
                nxt.append(child)
        frontier = nxt
    return False


def range_hom_bounds_hold(upper: BundleSig, lower: BundleSig) -> bool:
    """The rank, H_a and G_a conditions of Pokrzywa's theorem, with H_a
    and G_a compared at every a from 0 to the largest width or height."""
    if upper.rank < lower.rank:
        return False
    top = max((*upper.horizontal, *upper.vertical, *lower.horizontal, *lower.vertical), default=0)
    return all(
        _hom_preprojective(upper, a) <= _hom_preprojective(lower, a)
        and _hom_preinjective(upper, a) <= _hom_preinjective(lower, a)
        for a in range(top + 1)
    )


def range_fits(slot: tuple[int, ...], image: tuple[int, ...], hu: int, hl: int) -> bool:
    """F_k(slot) <= F_k(image) at every k from 1 to the largest size plus 1."""
    return all(
        k * hu + sum(min(k, s) for s in slot) <= k * hl + sum(min(k, s) for s in image)
        for k in range(1, max(slot + image) + 2)
    )


def bfs_bundle_closure_contains(upper: BundleSig, lower: BundleSig) -> bool:
    """Bundle closure by the breadth-first search on every coalescence of
    the upper slots.  Each set partition is a restricted growth string
    (the group label of each slot, at most one above every earlier label),
    and each group's sizes are summed entrywise in descending order."""
    labellings = [()]
    for _ in upper.slots:
        labellings = [g + (x,) for g in labellings for x in range(max(g, default=-1) + 2)]
    merged = set()
    for labels in labellings:
        groups = [[s for s, x in zip(upper.slots, labels) if x == label] for label in set(labels)]
        sums = [tuple(map(sum, zip_longest(*group, fillvalue=0))) for group in groups]
        merged.add(_rewritten(upper, sums))
    return any(bfs_orbit_closure_contains(sig, lower) for sig in merged)


def orbit_codimension(sig: BundleSig) -> int:
    """Codimension of the orbit of a pencil with this signature (Demmel
    and Edelman 1995): Jordan, right, left, Jordan-singular and
    singular-singular interaction terms."""
    eps = [w - 1 for w in sig.horizontal]
    eta = [u - 1 for u in sig.vertical]
    cod = sum((2 * i + 1) * q for slot in sig.slots for i, q in enumerate(slot))
    cod += sum(a - b - 1 for a in eps for b in eps if a > b)
    cod += sum(a - b - 1 for a in eta for b in eta if a > b)
    cod += sig.jordan_dimension() * (len(eps) + len(eta))
    cod += sum(a + b + 2 for a in eps for b in eta)
    return cod


def bundle_codimension(sig: BundleSig) -> int:
    """Orbit codimension minus one per eigenvalue, which may move."""
    return orbit_codimension(sig) - len(sig.slots)


def generic_fixed_rank_sig(m: int, n: int, r: int, a: int) -> BundleSig:
    """The a-th maximal signature among rank-r strata of m x n pencils.

    The column defect a is spread over the n - r horizontal indices and
    r - a over the m - r vertical ones as evenly as possible; there is no
    Jordan part.
    """
    hi = min(m, n) if m != n else n - 1
    if not 1 <= r <= hi:
        raise ValueError("rank out of range for this shape")
    if not 0 <= a <= r:
        raise ValueError("column defect out of range")
    if n - r == 0:
        if a != 0:
            raise ValueError("no horizontal indices to carry a nonzero defect")
        alpha, s = 0, 0
    else:
        alpha, s = divmod(a, n - r)
    if m - r == 0:
        if r - a != 0:
            raise ValueError("no vertical indices to carry the remaining defect")
        beta, t = 0, 0
    else:
        beta, t = divmod(r - a, m - r)
    horizontal = [alpha + 2] * s + [alpha + 1] * (n - r - s)
    vertical = [beta + 2] * t + [beta + 1] * (m - r - t)
    return BundleSig.make(
        m=m, n=n, rank=r, horizontal=horizontal, vertical=vertical, slots=()
    )


def search_certify_generic_repr(sig: BundleSig, m: int, n: int, r: int) -> bool:
    """``certify_generic_repr`` as a search: whether the signature is
    ``generic_fixed_rank_sig(m, n, r, a)`` for some column defect a."""
    if m == n and r >= min(m, n):
        raise CertificateNotApplicableError(
            "square full-rank signatures are outside this certificate"
        )
    if (sig.m, sig.n, sig.rank) != (m, n, r):
        return False
    for a in range(r + 1):
        try:
            if sig == generic_fixed_rank_sig(m, n, r, a):
                return True
        except ValueError:
            continue
    return False


def dense_contraction(mats, x) -> Mat:
    """The matrix whose column i is the i-th operator applied to x: every
    entry a full dot product of integer rows over one denominator."""
    den = lcm(*[m.den for m in mats])
    ops = [[[den // m.den * v for v in r] for r in m.rows] for m in mats]
    xs = [Fraction(v) for v in x]
    xden = lcm(*[v.denominator for v in xs])
    ints = [int(v * xden) for v in xs]
    rows = [[sum(map(mul, op[a], ints)) for op in ops] for a in range(len(ints))]
    return Mat.from_ints(rows, len(ops), den * xden)


def dense_poisson_matrix(ad, x) -> Mat:
    """The contraction of x with the coadjoint operators -ad(e_i)^T:
    column i is -ad(e_i)^T x, whose entry j is -<x, [e_i, e_j]> =
    <x, [e_j, e_i]>."""
    return dense_contraction([-m.transpose() for m in ad], x)


def fraction_adjoint(dim: int, entries) -> list[Mat]:
    """The adjoint operators of the bracket entries (i, j, k, c), i < j,
    summed as Fractions: entry (k, j) of ad[i] is c^k_ij."""
    planes = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in entries:
        planes[i][k][j] += Fraction(c)
        planes[j][k][i] -= Fraction(c)
    return [Mat(rows, n=dim) for rows in planes]


def fraction_semidirect_entries(rho) -> list[tuple[int, int, int, Fraction]]:
    """The sorted nonzero brackets of g + V: those of g, then
    [e_i, v_b] = rho(e_i) v_b read off the columns of the operators as
    Fractions."""
    n = rho.algebra.dim
    entries = list(rho.algebra.entries())
    for i, mat in enumerate(rho.mats):
        for b in range(rho.dim_v):
            entries.extend((i, n + b, n + a, c) for a, c in enumerate(mat.col(b)) if c)
    return sorted(entries)
