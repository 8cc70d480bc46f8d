"""Kronecker-form invariants of matrix pencils, computed exactly.

A pencil is a pair of rational matrices (A, B) of a common shape, thought
of as the one-parameter family A + t*B.  Its complete strict-equivalence
datum consists of

* the normal rank (the maximum of rank(A + t*B) over all t),
* minimal column indices, recorded as widths of horizontal singular
  blocks (width w block occupies w-1 rows and w columns),
* minimal row indices, recorded as heights of vertical singular blocks,
* eigenvalue classes with their block size multisets.  A class is either
  a monic irreducible polynomial q with q(t0) = 0 exactly when the rank
  of A + t0*B drops, or the infinite class, detected on the reversed
  pencil B + s*A at s = 0.

Everything here is exact, and the work is done on integers.  Matrices are
integer rows over a common denominator (see ``exactla``), so A + t*B at
an integer t is an integer matrix up to one constant factor, which
changes no rank and no kernel.  Ranks at specific parameter values are
exact by construction; the normal rank is obtained by sampling
min(m, n) + 1 integer values, which is provably sufficient because every
minor of A + t*B is a polynomial in t of degree at most min(m, n).  The
same scan records the smallest sampled t that reaches the normal rank,
and that t is the regular value every later stage uses, so no second
scan runs.

Minimal indices come from a nested-kernel chain at a regular parameter
value mu: with M = A + mu*B,

    W_1 = ker M,   W_{k+1} = preimage under M of B(W_k).

At a regular value only horizontal blocks feed this chain, and a block
of width w contributes min(k, w) to dim W_k, so consecutive differences
count blocks of width >= k.  Eigenvalue data deliberately does not use
chains (at a singular value the chain over-counts); it comes from ranks
of constant matrices instead: candidate classes are the irreducible
factors shared by two full-rank minors of A + t*B, and block sizes at a
class are decoded from rank defects of block bidiagonal resolvents (see
``_sizes_at_class``), built directly as integer matrices.  Eliminating
A + t*B as a polynomial matrix would give the same answers but suffers
badly from coefficient growth.

The two minors are integer polynomials (interpolated from integer
determinants), so the candidates come from Z[t]: their integer gcd is
factored once over Z, and the multiplicity of each irreducible factor is
its valuation in that gcd.  The same minors bound the total block size
at each class, because the exponent of a class in the gcd of all
full-rank minors is exactly that total: at a finite class f the bound is
the multiplicity of f in the gcd of the two minors, at infinity it is r
minus the larger of their degrees.  The resolvent ranks stop as soon as
the defect reaches the bound, which skips the largest, confirming rank
whenever the bound is tight.  The bounds come from the minors alone,
never from the minimal indices, so the dimension bookkeeping of
``StrictInvariants`` still checks the kernel chain against the
resolvents, and a defect above its bound is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul

from .errors import InternalConsistencyError
from .exactla import (
    Mat,
    _echelon,
    _frac,
    kernel_basis,
    pivot_columns,
    rank,
    row_space_basis,
)
from .polys import (
    BinForm,
    Poly,
    ZPoly,
    format_poly,
    integer_factors,
    poly_sort_key,
    zpoly_gcd,
)


@dataclass(frozen=True)
class Pencil:
    a: Mat
    b: Mat

    def __post_init__(self):
        if (self.a.m, self.a.n) != (self.b.m, self.b.n):
            raise ValueError("pencil parts must share a shape")

    @property
    def m(self) -> int:
        return self.a.m

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.m, self.a.n)

    def at(self, t) -> Mat:
        """The matrix A + t*B."""
        if type(t) is not int:
            t = _frac(t)
        a, b = self.a, self.b
        # A + (u/v)*B = (v*db*A_int + u*da*B_int) / (v*da*db)
        ca, cb = t.denominator * b.den, t.numerator * a.den
        rows = [[ca * x + cb * y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]
        return Mat.from_ints(rows, self.n, t.denominator * a.den * b.den)

    def transposed(self) -> "Pencil":
        return Pencil(self.a.transpose(), self.b.transpose())

    def reversed(self) -> "Pencil":
        """The pencil B + s*A; its eigenvalue at 0 is this pencil's infinity."""
        return Pencil(self.b, self.a)

    def entries(self) -> list[list[Poly]]:
        """Entries of A + t*B as degree <= 1 polynomials in t."""
        return [
            [Poly([self.a.entry(i, j), self.b.entry(i, j)]) for j in range(self.n)]
            for i in range(self.m)
        ]

    def __repr__(self) -> str:
        return f"Pencil(a={self.a.tolist()}, b={self.b.tolist()})"


def pencil_from_lists(a_rows, b_rows) -> Pencil:
    return Pencil(Mat(a_rows), Mat(b_rows))


@dataclass(frozen=True)
class EigClass:
    """An eigenvalue class: a monic irreducible polynomial, or infinity."""

    poly: Poly | None = None

    def __post_init__(self):
        if self.poly is not None:
            if self.poly.degree() < 1 or self.poly.leading() != 1:
                raise ValueError("finite class needs a monic nonconstant polynomial")

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def root_count(self) -> int:
        """Number of complex points in the class (degree, or 1 for infinity)."""
        return 1 if self.poly is None else self.poly.degree()

    def sort_key(self):
        if self.poly is None:
            return (1, ())
        return (0,) + poly_sort_key(self.poly)

    def label(self) -> str:
        return "inf" if self.poly is None else format_poly(self.poly, "t")

    @classmethod
    def infinite(cls) -> "EigClass":
        return cls(None)

    @classmethod
    def at_root(cls, root) -> "EigClass":
        return cls(Poly.linear_root(root))


@dataclass(frozen=True)
class StrictInvariants:
    """Complete strict-equivalence datum of an m x n pencil.

    ``horizontal`` and ``vertical`` are block widths/heights sorted
    descending; ``jordan`` maps each eigenvalue class to its block sizes,
    sorted descending, stored as a tuple sorted by class.  Construction
    checks the dimension bookkeeping, so an instance is always coherent.
    """

    m: int
    n: int
    rank: int
    horizontal: tuple[int, ...]
    vertical: tuple[int, ...]
    jordan: tuple[tuple[EigClass, tuple[int, ...]], ...]

    def __post_init__(self):
        h, v = self.horizontal, self.vertical
        if list(h) != sorted(h, reverse=True) or list(v) != sorted(v, reverse=True):
            raise InternalConsistencyError("block lists must be sorted descending")
        if any(w < 1 for w in h) or any(u < 1 for u in v):
            raise InternalConsistencyError("block sizes must be positive")
        classes = [c for c, _ in self.jordan]
        if classes != sorted(classes, key=EigClass.sort_key) or len(set(classes)) != len(classes):
            raise InternalConsistencyError("eigenvalue classes must be sorted and distinct")
        for _, sizes in self.jordan:
            if not sizes or any(s < 1 for s in sizes) or list(sizes) != sorted(sizes, reverse=True):
                raise InternalConsistencyError("class sizes must be positive, sorted descending")
        j = self.jordan_dimension()
        if len(h) != self.n - self.rank:
            raise InternalConsistencyError("horizontal block count must be n - rank")
        if len(v) != self.m - self.rank:
            raise InternalConsistencyError("vertical block count must be m - rank")
        if sum(h) + sum(u - 1 for u in v) + j != self.n:
            raise InternalConsistencyError("column bookkeeping failed")
        if sum(w - 1 for w in h) + sum(v) + j != self.m:
            raise InternalConsistencyError("row bookkeeping failed")
        if sum(w - 1 for w in h) + sum(u - 1 for u in v) + j != self.rank:
            raise InternalConsistencyError("rank bookkeeping failed")

    def jordan_dimension(self) -> int:
        """Total dimension occupied by eigenvalue blocks, counting conjugates."""
        return sum(c.root_count * sum(sizes) for c, sizes in self.jordan)

    def finite_classes(self) -> list[tuple[EigClass, tuple[int, ...]]]:
        return [(c, s) for c, s in self.jordan if not c.is_infinite]

    def infinite_sizes(self) -> tuple[int, ...]:
        for c, s in self.jordan:
            if c.is_infinite:
                return s
        return ()


# ---------------------------------------------------------------------------
# rank and regular values

# cached values are reused only within one request, so a few entries suffice;
# an unbounded cache would keep every pencil for the life of the process
_CACHE_SIZE = 8


@lru_cache(maxsize=_CACHE_SIZE)
def _rank_scan(p: Pencil) -> tuple[int, int]:
    """Normal rank, and the smallest integer t >= 0 at which it is reached.

    The ranks at t = 0..min(m, n) suffice: an r x r minor of A + t*B has
    degree at most min(m, n) in t, so it cannot vanish at all of those
    values unless it is identically zero.  The rank never exceeds its
    normal value, so the last t at which the running maximum rose is the
    smallest regular one.
    """
    best, at = 0, 0
    bound = min(p.m, p.n)
    for t in range(bound + 1):
        k = rank(p.at(t))
        if k > best:
            best, at = k, t
            if best == bound:
                break
    return best, at


def pencil_rank(p: Pencil) -> int:
    """Normal rank: the maximum of rank(A + t*B) over all t."""
    return _rank_scan(p)[0]


class _Infinity:
    """Sentinel for the parameter value at infinity."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


def is_regular_value(p: Pencil, t) -> bool:
    """True when the pencil attains its normal rank at parameter t.

    t may be INFINITY, in which case the degree-one coefficient alone is
    tested.
    """
    mat = p.b if t is INFINITY else p.at(t)
    return rank(mat) == pencil_rank(p)


def regular_value(p: Pencil) -> int:
    """Smallest non-negative integer at which the pencil has full normal rank."""
    return _rank_scan(p)[1]


# ---------------------------------------------------------------------------
# minimal indices


def _chain_dims(m_at_mu: Mat, b: Mat) -> list[int]:
    """Dimensions of the nested kernel chain W_1 <= W_2 <= ... until stable.

    With M and B stored as integer rows over denominators dm and db, and
    W the current basis as columns, M x = B W y holds exactly when
    [db * M_int | -dm * B_int W] (x, y) = 0.
    """
    n = m_at_mu.n
    basis = kernel_basis(m_at_mu)
    dims = [len(basis)]
    if not basis:
        return dims
    left = [[b.den * x for x in r] for r in m_at_mu.rows]
    while True:
        rows = [
            lr + [-m_at_mu.den * sum(map(mul, br, v)) for v in basis]
            for lr, br in zip(left, b.rows)
        ]
        stacked = Mat.from_ints(rows, n + len(basis))
        projected = [vec[:n] for vec in kernel_basis(stacked)]
        new_basis = row_space_basis(projected, n)
        if len(new_basis) == len(basis):
            return dims
        dims.append(len(new_basis))
        basis = new_basis


def _widths_from_dims(dims: list[int]) -> tuple[int, ...]:
    # dims[k-1] = sum over blocks of min(k, width); differences count widths >= k
    counts = [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    counts.append(0)
    widths: list[int] = []
    for k in range(len(counts) - 1, 0, -1):
        widths.extend([k] * (counts[k - 1] - counts[k]))
    return tuple(widths)


def minimal_indices(p: Pencil) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(horizontal widths, vertical heights), each sorted descending."""
    mu = regular_value(p)
    widths = _widths_from_dims(_chain_dims(p.at(mu), p.b))
    pt = p.transposed()
    heights = _widths_from_dims(_chain_dims(pt.at(mu), pt.b))
    return widths, heights


# ---------------------------------------------------------------------------
# eigenvalue structure
#
# Strategy: every finite eigenvalue class divides every maximal minor of
# A + t*B, so factoring the gcd of two such minors yields a candidate
# superset of the classes.  The sizes at each candidate then come from
# exact ranks of constant matrices, which is far cheaper than polynomial
# elimination; candidates whose size list is empty are discarded.


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


def _interpolated_minor(p: Pencil, rows: list[int], cols: list[int]) -> ZPoly:
    """A primitive integer multiple of det of the (rows, cols) submatrix of
    A + t*B, lowest degree first.

    With D the product of the two denominators, D * (A + t*B) is an
    integer matrix at integer t, built here directly from the integer
    rows of A and B, so its minor takes integer values y_t at t = 0..k,
    each read off one Bareiss elimination.  Newton's forward differences
    d_j of those values give

        k! * f(t) = sum_j d_j * (k!/j!) * t (t-1) ... (t-j+1)

    in integers; the content is removed at the end.  Only the roots of the
    minor, with their multiplicities, matter to its callers.
    """
    k = len(rows)
    da, db = p.a.den, p.b.den
    a_sub = [[db * p.a.rows[i][j] for j in cols] for i in rows]
    b_sub = [[da * p.b.rows[i][j] for j in cols] for i in rows]
    values = []
    for t in range(k + 1):
        sub = [[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a_sub, b_sub)]
        r, _, sign, last = _echelon(sub, k)
        values.append(sign * last if r == k else 0)
    coeffs = [0] * (k + 1)
    falling = [1]  # t (t-1) ... (t-j+1), lowest degree first
    weight = factorial(k)
    for j in range(k + 1):
        if values[0]:
            for i, c in enumerate(falling):
                coeffs[i] += values[0] * weight * c
        values = [y - x for x, y in zip(values, values[1:])]
        falling = [x - j * y for x, y in zip([0] + falling, falling + [0])]
        weight //= j + 1
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


def _candidate_classes(p: Pencil, r: int) -> tuple[list[tuple[Poly, int]], int]:
    """Candidate finite classes with bounds on their total block size,
    and the bound at infinity.

    The candidates are monic irreducible polynomials covering every
    finite eigenvalue class: the irreducible factors over Z of the integer
    gcd g of two full-rank minors, found in one factorization.  The total
    block size at a class f is its exponent in the gcd of all r x r minors
    of A + t*B, hence at most the multiplicity of f in g.  Homogenized,
    an r x r minor of degree e carries u**(r - e), so the total size of
    the infinite blocks is at most r minus the larger degree.
    """
    base = p.at(regular_value(p))
    rows, cols = _invertible_profile(base, from_end=False)
    g = _interpolated_minor(p, rows, cols)
    top = len(g) - 1
    rows2, cols2 = _invertible_profile(base, from_end=True)
    if (rows2, cols2) != (rows, cols):
        g2 = _interpolated_minor(p, rows2, cols2)
        top = max(top, len(g2) - 1)
        g = zpoly_gcd(g, g2)
    return integer_factors(g), r - top


def _resolvent_parts(p: Pencil, cls: Poly) -> tuple[list[list[int]], list[list[int]]]:
    """Integer diagonal and superdiagonal blocks of the resolvents at cls.

    With C the companion matrix of cls, scaled by the lcm L of the
    denominators of its coefficients, the blocks are
    D * (A (x) L*I + B (x) L*C) and D * (B (x) I), where D is the product of
    the two denominators of the pencil.  Scaling diagonal and
    superdiagonal blocks by separate nonzero constants leaves every
    resolvent rank unchanged.  A rational class t - u/v has L = v and
    C = (u/v), so its blocks are v*A + u*B and B.
    """
    d = cls.degree()
    monic = cls.monic().coeffs
    lcd = lcm(*[c.denominator for c in monic])
    comp = [[lcd if s == t + 1 else 0 for t in range(d)] for s in range(d)]
    for s in range(d):
        comp[s][d - 1] = -(monic[s] * lcd).numerator
    a_int = [[p.b.den * x for x in r] for r in p.a.rows]
    b_int = [[p.a.den * y for y in r] for r in p.b.rows]
    diag = [
        [
            (lcd * x if s == t else 0) + y * comp[s][t]
            for x, y in zip(ra, rb)
            for t in range(d)
        ]
        for ra, rb in zip(a_int, b_int)
        for s in range(d)
    ]
    sup = [[y if s == t else 0 for y in rb for t in range(d)] for rb in b_int for s in range(d)]
    return diag, sup


def _sizes_at_class(p: Pencil, cls: Poly, r: int, bound: int) -> tuple[int, ...]:
    """Jordan block sizes of the pencil at a monic irreducible class.

    With alpha a root of cls, the k-fold block bidiagonal matrix T_k
    built from diag = A + alpha*B and sup = B satisfies

        k*r - rank(T_k) = sum over blocks at alpha of min(k, size),

    while singular blocks and other classes contribute full rank.  For
    deg cls > 1 the root is adjoined by substituting the companion
    matrix of cls, which multiplies all ranks by the degree.

    ``bound`` is an upper bound on the total size at the class, proved
    independently (see ``_candidate_classes``).  A zero bound costs no
    rank at all, and a defect above it is an internal error.  Once the
    defect at k equals the bound, every size is at most k, since
    sum of min(k, size) = bound >= sum of size, so the ranks stop there;
    otherwise they stop when the defect repeats.
    """
    if bound == 0:
        return ()
    d = cls.degree()
    diag, sup = _resolvent_parts(p, cls)
    width = p.n * d
    defects: list[int] = []
    k = 1
    while True:
        rows = []
        for i in range(k):
            left = [0] * (width * i)
            if i + 1 < k:
                right = [0] * (width * (k - i - 2))
                rows.extend(left + dr + sr + right for dr, sr in zip(diag, sup))
            else:
                rows.extend(left + dr for dr in diag)
        scaled = rank(Mat.from_ints(rows, width * k))
        if scaled % d:
            raise InternalConsistencyError(
                "resolvent rank not divisible by the class degree"
            )
        defect = k * r - scaled // d
        if defect == (defects[-1] if defects else 0):
            break
        if defect > bound:
            raise InternalConsistencyError(
                "resolvent rank defect exceeds the bound from the minors"
            )
        if defects and defect < defects[-1]:
            raise InternalConsistencyError("resolvent rank defects not monotone")
        defects.append(defect)
        if defect == bound:
            break
        k += 1
    if not defects:
        return ()
    return _widths_from_dims(defects)


@lru_cache(maxsize=_CACHE_SIZE)
def _jordan_structure(
    p: Pencil,
) -> tuple[tuple[tuple[Poly, tuple[int, ...]], ...], tuple[int, ...]]:
    """Finite classes with size multisets, plus infinite block sizes."""
    r = pencil_rank(p)
    if r == 0:
        return (), ()
    candidates, inf_bound = _candidate_classes(p, r)
    finite = []
    for cls, bound in candidates:
        sizes = _sizes_at_class(p, cls, r, bound)
        if sizes:
            finite.append((cls, sizes))
    inf_sizes = _sizes_at_class(p.reversed(), Poly.x(), r, inf_bound)
    return tuple(finite), inf_sizes


@lru_cache(maxsize=_CACHE_SIZE)
def invariant_factors(p: Pencil) -> tuple[Poly, ...]:
    """Monic invariant factors of A + t*B over the polynomial ring."""
    r = pencil_rank(p)
    finite, _ = _jordan_structure(p)
    out = [Poly([1]) for _ in range(r)]
    for cls, sizes in finite:
        for i, s in enumerate(sizes):
            # largest sizes land in the last factor: d_1 | d_2 | ... | d_r
            out[r - 1 - i] = out[r - 1 - i] * cls**s
    return tuple(out)


def elementary_divisors(
    p: Pencil,
) -> tuple[list[tuple[Poly, tuple[int, ...]]], tuple[int, ...]]:
    """Finite classes with size multisets, plus infinite block sizes.

    A finite class is a monic irreducible polynomial whose roots are
    eigenvalues; infinite sizes are read off the reversed pencil B + s*A
    at s = 0.
    """
    finite, inf_sizes = _jordan_structure(p)
    return [(cls, sizes) for cls, sizes in finite], inf_sizes


def characteristic_polynomial(p: Pencil) -> BinForm:
    """Gcd of the top-rank minors of the homogenized pencil u*A + t*B.

    Equals u**e times the homogenization of the product of the invariant
    factors of A + t*B, where e is the total size of infinite blocks.
    """
    finite, inf_sizes = elementary_divisors(p)
    prod = Poly([1])
    for f in invariant_factors(p):
        if f.degree() >= 1:
            prod = prod * f
    return BinForm.from_parts(sum(inf_sizes), prod.monic())


# ---------------------------------------------------------------------------
# the full datum


def strict_invariants(p: Pencil) -> StrictInvariants:
    r = pencil_rank(p)
    widths, heights = minimal_indices(p)
    finite, inf_sizes = elementary_divisors(p)
    jordan = [(EigClass(poly), sizes) for poly, sizes in finite]
    if inf_sizes:
        jordan.append((EigClass.infinite(), inf_sizes))
    jordan.sort(key=lambda cs: cs[0].sort_key())
    # the construction cross-checks the kernel chain (minimal indices)
    # against the resolvents (Jordan sizes) through the dimension counts
    return StrictInvariants(
        m=p.m,
        n=p.n,
        rank=r,
        horizontal=widths,
        vertical=heights,
        jordan=tuple(jordan),
    )


def are_strictly_equivalent(p: Pencil, q: Pencil) -> bool:
    if p.shape != q.shape:
        return False
    return strict_invariants(p) == strict_invariants(q)


# ---------------------------------------------------------------------------
# canonical representatives


def _horizontal_block(width: int) -> tuple[Mat, Mat]:
    rows = width - 1
    a = [[1 if j == i + 1 else 0 for j in range(width)] for i in range(rows)]
    b = [[1 if j == i else 0 for j in range(width)] for i in range(rows)]
    return Mat(a, n=width), Mat(b, n=width)


def _vertical_block(height: int) -> tuple[Mat, Mat]:
    cols = height - 1
    a = [[1 if i == j + 1 else 0 for j in range(cols)] for i in range(height)]
    b = [[1 if i == j else 0 for j in range(cols)] for i in range(height)]
    return Mat(a, n=cols), Mat(b, n=cols)


def _companion(f: Poly) -> Mat:
    k = f.degree()
    rows = [[0] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = 1
    for i in range(k):
        rows[i][k - 1] = -f.coeffs[i]
    return Mat(rows)


def _finite_block(cls: Poly, size: int) -> tuple[Mat, Mat]:
    # invariant factors of t*I - M are those of M, so M = -A must have the
    # single invariant factor cls**size
    if cls.degree() == 1:
        root = -cls.coeffs[0]
        dim = size
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = -root
            if i + 1 < dim:
                rows[i][i + 1] = 1
        a = Mat(rows)
    else:
        a = _companion(cls**size).scale(-1)
    return a, Mat.identity(a.m)


def _infinite_block(size: int) -> tuple[Mat, Mat]:
    rows = [[1 if j == i + 1 else 0 for j in range(size)] for i in range(size)]
    return Mat.identity(size), Mat(rows)


def _assemble_canonical(inv: StrictInvariants, jordan) -> Pencil:
    ablocks: list[Mat] = []
    bblocks: list[Mat] = []
    for w in inv.horizontal:
        a, b = _horizontal_block(w)
        ablocks.append(a)
        bblocks.append(b)
    for u in inv.vertical:
        a, b = _vertical_block(u)
        ablocks.append(a)
        bblocks.append(b)
    for cls, sizes in jordan:
        for s in sizes:
            if cls.is_infinite:
                a, b = _infinite_block(s)
            else:
                a, b = _finite_block(cls.poly, s)
            ablocks.append(a)
            bblocks.append(b)
    p = Pencil(Mat.block_diag(ablocks), Mat.block_diag(bblocks))
    if p.shape != (inv.m, inv.n):
        raise InternalConsistencyError("canonical pencil has the wrong shape")
    return p


def _canonical_pencil_any(inv: StrictInvariants) -> Pencil:
    """Canonical pencil for arbitrary classes, via companion blocks.

    Accepts classes of any degree; test-support path with no eigenvalue
    relabeling.
    """
    return _assemble_canonical(inv, inv.jordan)


def canonical_pencil(inv: StrictInvariants, assignment=None) -> Pencil:
    """Block-diagonal pencil realizing ``inv`` with explicit eigenvalues.

    Every finite class of ``inv`` must carry a single rational root.
    ``assignment`` optionally relabels those roots: a mapping from each
    finite class to the rational eigenvalue its Jordan blocks should use,
    required to be injective.  By default each class keeps its own root,
    and then ``strict_invariants`` of the result is exactly ``inv``.
    """
    finite = [(cls, sizes) for cls, sizes in inv.jordan if not cls.is_infinite]
    for cls, _ in finite:
        if cls.root_count != 1:
            raise ValueError(
                "class %s has %d conjugate roots; explicit construction "
                "needs one rational eigenvalue per class" % (cls.label(), cls.root_count)
            )
    if assignment is None:
        values = {cls: -cls.poly.coeffs[0] for cls, _ in finite}
    else:
        values = {}
        for cls, _ in finite:
            if cls not in assignment:
                raise ValueError("assignment missing class %s" % cls.label())
            values[cls] = Fraction(assignment[cls])
    if len(set(values.values())) != len(values):
        raise ValueError("assignment is not injective")
    jordan = []
    for cls, sizes in inv.jordan:
        if cls.is_infinite:
            jordan.append((cls, sizes))
        else:
            mu = values[cls]
            jordan.append((EigClass(Poly((-mu, 1))), sizes))
    return _assemble_canonical(inv, jordan)
