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
exact by construction; the normal rank is obtained by ranking A + t*B at
t = 0, 1, ... until the points seen prove the largest rank so far
generic: with best that rank, every (best + 1)-minor is a polynomial in t
of degree at most best + 1, so best + 2 points at which all of them
vanish prove them zero.  A skew pencil needs only (best + 2)/2 + 1
points, since a higher rank needs a nonzero principal Pfaffian of order
best + 2, of degree at most (best + 2)/2 (see ``_rank_scan``).  The same
scan records the smallest sampled t that reaches the normal rank, and
that t is the regular value every later stage uses, so no second scan
runs.

Minimal indices come from a nested-kernel chain at a regular parameter
value mu: with M = A + mu*B,

    W_1 = ker M,   W_{k+1} = preimage under M of B(W_k).

At a regular value only horizontal blocks feed this chain, and a block
of width w contributes min(k, w) to dim W_k, so consecutive differences
count blocks of width >= k.  The chain of the transposed pencil gives
the heights the same way.  For a skew pencil the transposed pencil is
the negated one, whose chain is the same computation, so it runs once.
A chain whose first kernel the rank scan proves zero (n = rank on the
right, m = rank on the left) is not run.

Each chain is one Bareiss elimination of [M | -B], continued in the new
columns B W_k at every step (``exactla.preimage_chain``, whose module
docstring shows why the continued rows are those of eliminating each
stacked matrix [M | -B W_k] from scratch).

The limits of the two chains are Wong limits (Berger, Ilchmann and
Trenn 2012): the right one spans exactly the columns of the horizontal
blocks, the left one the rows of the vertical blocks.  Together with
their images under A and B they split the singular part off, as in Van
Dooren's (1979) staircase reduction but in exact arithmetic: two
complements chosen by pivot columns give a square pencil
Q (A + t*B) P, of size n minus sum(w) minus sum(u - 1), that is strictly
equivalent to the Jordan part of the Kronecker form (see
``_regular_part``).  Eigenvalue data is read off that regular part.
Its determinant, interpolated from integer determinants, is factored
once over Z: each irreducible factor is a finite class, its
multiplicity is the exact total block size there, and the dimension
minus the degree is the exact infinite total.  No class without blocks
arises.  Block sizes at a class are read off the same nested-kernel
chain, run on the regular part at the class with its root adjoined as a
companion matrix (see ``_sizes_at_class``): a block of size s adds
min(k, s) to the k-th dimension, times the class degree.  Every matrix
this eliminates has n_R*d rows, for a regular part of size n_R and a
class of degree d.  The chain runs only when the first defect, from one
rank, falls short of the total, and stops when it reaches the total.
Eliminating A + t*B as a polynomial matrix would give the same answers
but suffers badly from coefficient growth.

One cache holds a pencil's singular structure: ``_kernel_chains`` runs
the rank scan and both chains once and keeps the normal rank, the
regular value, the widths, the heights and the two limits.  The rank,
the regular value, the minimal indices, the regular part and the skew
core (``skewjk.core_subspace``) all read it.  The eigenvalue stage runs
once per pencil and is not cached.  The cache is bounded, since its
entries are reused only within one request.

Each step checks itself: the two image dimensions against the indices,
the regular part's size and its nonzero determinant, and each class's
defects against its total.  The rank comes from the independent rank
scan, so the dimension bookkeeping of ``StrictInvariants`` still checks
the chains against the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError
from .exactla import (
    IntVec,
    Mat,
    det,
    kernel_basis,
    pivot_columns,
    preimage_chain,
    rank,
)
from .polys import (
    Poly,
    ZPoly,
    integer_factors,
    poly_sort_key,
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

    def at(self, t: int) -> Mat:
        """The matrix A + t*B at an integer t."""
        a, b = self.a, self.b
        # A + t*B = (db*A_int + t*da*B_int) / (da*db)
        ca, cb = b.den, t * a.den
        rows = [[ca * x + cb * y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]
        return Mat.from_ints(rows, self.n, a.den * b.den)

    def transposed(self) -> "Pencil":
        return Pencil(self.a.transpose(), self.b.transpose())

    def reversed(self) -> "Pencil":
        """The pencil B + s*A; its eigenvalue at 0 is this pencil's infinity."""
        return Pencil(self.b, self.a)

    def __repr__(self) -> str:
        return f"Pencil(a={self.a.tolist()}, b={self.b.tolist()})"


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

    @classmethod
    def infinite(cls) -> "EigClass":
        return cls(None)


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

    def infinite_sizes(self) -> tuple[int, ...]:
        for c, s in self.jordan:
            if c.is_infinite:
                return s
        return ()


# ---------------------------------------------------------------------------
# the singular structure, computed once per pencil


def _rank_scan(p: Pencil) -> tuple[int, int]:
    """Normal rank, and the smallest integer t >= 0 at which it is reached.

    The ranks at t = 0, 1, ... are scanned until the points seen prove
    that no higher rank exists.  With best the largest rank so far, every
    (best + 1)-minor of A + t*B vanishes at every scanned point and has
    degree at most best + 1 in t, so best + 2 points prove it identically
    zero.  A skew matrix has even rank, and a skew pencil of rank at least
    best + 2 has a nonzero principal Pfaffian of order best + 2, of degree
    at most (best + 2)/2, so there (best + 2)/2 + 1 points suffice.  The
    scan also stops once best reaches min(m, n).  The rank never exceeds
    its normal value, so the last t at which the running maximum rose is
    the smallest regular one.
    """
    bound = min(p.m, p.n)
    skew = _is_skew(p)
    best = at = t = 0
    while best < bound and t < (best // 2 + 2 if skew else best + 2):
        k = rank(p.at(t))
        if k > best:
            best, at = k, t
        t += 1
    return best, at


def _kernel_chain(m_at_mu: Mat, b: Mat, dim: int) -> tuple[list[int], list[IntVec]]:
    """Dimensions of the nested kernel chain W_1 <= W_2 <= ... until stable,
    and a basis of its limit, given dim W_1 from the rank scan.

    A chain with dim W_1 = 0 stays zero and is not run.
    """
    if not dim:
        return [0], []
    chain = preimage_chain(m_at_mu, b)
    basis = next(chain)
    if len(basis) != dim:
        raise InternalConsistencyError("the kernel at the regular value disagrees with the rank scan")
    dims = [dim]
    for new_basis in chain:
        if len(new_basis) == len(basis):
            break
        dims.append(len(new_basis))
        basis = new_basis
    return dims, basis


def _widths_from_dims(dims: list[int]) -> tuple[int, ...]:
    # dims[k-1] = sum over blocks of min(k, width); differences count widths >= k
    counts = [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    counts.append(0)
    widths: list[int] = []
    for k in range(len(counts) - 1, 0, -1):
        widths.extend([k] * (counts[k - 1] - counts[k]))
    return tuple(widths)


def _is_skew(p: Pencil) -> bool:
    return p.a.is_skew() and p.b.is_skew()


class _Chains(NamedTuple):
    """A pencil's singular structure: normal rank, regular value, widths,
    heights, and the limits of the right and left kernel chains."""

    rank: int
    regular: int
    widths: tuple[int, ...]
    heights: tuple[int, ...]
    right: tuple[IntVec, ...]
    left: tuple[IntVec, ...]


# cached values are reused only within one request, so a few entries suffice;
# an unbounded cache would keep every pencil for the life of the process
_CACHE_SIZE = 8


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_chains(p: Pencil) -> _Chains:
    """The rank scan, then both kernel chains at its regular value.

    The right limit spans the columns of the horizontal blocks, the left
    one (the chain of the transposed pencil) the rows of the vertical
    blocks.  A skew pencil's transpose is its negative, whose chain is the
    same computation, so there the left chain is the right one.
    """
    r, mu = _rank_scan(p)
    right_dims, right = _kernel_chain(p.at(mu), p.b, p.n - r)
    if _is_skew(p):
        left_dims, left = right_dims, right
    else:
        pt = p.transposed()
        left_dims, left = _kernel_chain(pt.at(mu), pt.b, p.m - r)
    return _Chains(
        r,
        mu,
        _widths_from_dims(right_dims),
        _widths_from_dims(left_dims),
        tuple(right),
        tuple(left),
    )


def pencil_rank(p: Pencil) -> int:
    """Normal rank: the maximum of rank(A + t*B) over all t."""
    return _kernel_chains(p).rank


def is_regular_value(p: Pencil, t: int) -> bool:
    """True when the pencil attains its normal rank at parameter t."""
    return rank(p.at(t)) == pencil_rank(p)


def regular_value(p: Pencil) -> int:
    """Smallest non-negative integer at which the pencil has full normal rank."""
    return _kernel_chains(p).regular


def minimal_indices(p: Pencil) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(horizontal widths, vertical heights), each sorted descending."""
    chains = _kernel_chains(p)
    return chains.widths, chains.heights


# ---------------------------------------------------------------------------
# eigenvalue structure


def _complement(inside: Sequence[IntVec], basis: list[IntVec], n: int) -> list[IntVec]:
    """Vectors of ``basis`` completing the independent ``inside`` to a basis
    of their joint span: the pivots of [inside | basis] beyond ``inside``."""
    vectors = list(inside) + list(basis)
    rows = [[v[i] for v in vectors] for i in range(n)]
    skip = len(inside)
    return [basis[j - skip] for j in pivot_columns(Mat.from_ints(rows, len(vectors))) if j >= skip]


def _restricted(mat: Mat, left: list[IntVec], right: list[IntVec], scale: int) -> list[list[int]]:
    """The integer rows of scale * Q mat_int P, with Q's rows ``left`` and
    P's columns ``right``."""
    images = [[sum(map(mul, row, v)) for row in mat.rows] for v in right]
    return [[scale * sum(map(mul, q, w)) for w in images] for q in left]


def _regular_part(p: Pencil) -> Pencil:
    """A square regular pencil Q (A + tB) P strictly equivalent to the
    Jordan part of the Kronecker form, as integer rows over denominator 1.

    In Kronecker coordinates the columns split as C_H + C_V + C_J
    (horizontal, vertical and Jordan blocks) and the rows as
    R_H + R_V + R_J, and A and B map each column part into the row part of
    the same name.  The right chain limit V is C_H, so W = AV + BV is R_H,
    of dimension sum(w - 1).  The left limit Z is the set of row
    functionals vanishing on R_H + R_J, and U = Z^T A + Z^T B those
    vanishing on C_H + C_J, of dimension sum(u - 1).  So ker U is
    C_H + C_J, a complement P of V inside it projects isomorphically onto
    C_J, and likewise a complement Q of Z inside Ann W consists of
    functionals vanishing on R_H whose restrictions to R_J form a basis of
    its dual.  Q (A + tB) P then sees only the Jordan blocks, through two
    invertible changes of basis.  For a skew pencil Z = V, U = W and
    hence Q = P.

    Both parts are scaled by the product D of the pencil's denominators,
    D * (A + tB) having integer rows, which changes no eigenvalue data.
    """
    _, _, widths, heights, right, left = _kernel_chains(p)
    if not right and not left:
        return Pencil(
            Mat.from_ints([[p.b.den * x for x in r] for r in p.a.rows], p.n),
            Mat.from_ints([[p.a.den * y for y in r] for r in p.b.rows], p.n),
        )
    skew = _is_skew(p)
    image = [
        [sum(map(mul, row, v)) for row in mat.rows] for v in right for mat in (p.a, p.b)
    ]
    ann_image = kernel_basis(Mat.from_ints(image, p.m))
    if p.m - len(ann_image) != sum(w - 1 for w in widths):
        raise InternalConsistencyError("the horizontal blocks' image has the wrong dimension")
    if skew:
        ker_coimage = ann_image
    else:
        coimage = [
            [sum(map(mul, col, z)) for col in zip(*mat.rows)] for z in left for mat in (p.a, p.b)
        ]
        ker_coimage = kernel_basis(Mat.from_ints(coimage, p.n))
        if p.n - len(ker_coimage) != sum(u - 1 for u in heights):
            raise InternalConsistencyError("the vertical blocks' coimage has the wrong dimension")
    cols = _complement(right, ker_coimage, p.n)
    rows = cols if skew else _complement(left, ann_image, p.m)
    size = p.n - sum(widths) - sum(u - 1 for u in heights)
    if len(cols) != size or len(rows) != size:
        raise InternalConsistencyError("the regular part is not square of the Jordan dimension")
    return Pencil(
        Mat.from_ints(_restricted(p.a, rows, cols, p.b.den), size),
        Mat.from_ints(_restricted(p.b, rows, cols, p.a.den), size),
    )


def _det_poly(reg: Pencil) -> ZPoly:
    """A primitive integer multiple of det(A + t*B) for a square pencil of
    integer rows (see ``_regular_part``), lowest degree first; the zero
    polynomial is [].

    At integer t, A + t*B is an integer matrix, so its determinant takes
    integer values y_t at t = 0..k, each one ``exactla.det``.
    Newton's forward differences d_j of those values give

        k! * f(t) = sum_j d_j * (k!/j!) * t (t-1) ... (t-j+1)

    in integers; the content is removed at the end.  Only the roots of the
    determinant, with their multiplicities, matter to its callers.
    """
    k = reg.n
    values = []
    for t in range(k + 1):
        mat = [[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(reg.a.rows, reg.b.rows)]
        values.append(int(det(Mat.from_ints(mat, k))))
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
    if not coeffs:
        return []
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


def _class_totals(reg: Pencil) -> tuple[list[tuple[Poly, int]], int]:
    """Every finite class of a square regular pencil with its total block
    size, and the total size of its infinite blocks.

    det(A + t*B) is a constant times the product of the finite elementary
    divisors, so its one factorization over Z gives each class with its
    exact total, and its degree falls short of the dimension by the
    infinite total.
    """
    poly = _det_poly(reg)
    if not poly:
        raise InternalConsistencyError("the regular part is singular")
    return integer_factors(poly), reg.n - (len(poly) - 1)


def _resolvent_parts(p: Pencil, cls: Poly) -> tuple[Mat, Mat]:
    """Integer matrices M and N of the Jordan chain at cls, for a pencil of
    integer rows (see ``_regular_part``).

    With C the companion matrix of cls, scaled by the lcm L of the
    denominators of its coefficients, M = A (x) L*I + B (x) L*C and
    N = B (x) I, so M is L times A + t*B with the root of cls adjoined as
    C.  Scaling M by a nonzero constant changes no preimage, so the chain
    is that of A (x) I + B (x) C.  A rational class t - u/v has L = v and
    C = (u/v), so M and N are v*A + u*B and B.
    """
    d = cls.degree()
    monic = cls.monic().coeffs
    lcd = lcm(*[c.denominator for c in monic])
    comp = [[lcd if s == t + 1 else 0 for t in range(d)] for s in range(d)]
    for s in range(d):
        comp[s][d - 1] = -(monic[s] * lcd).numerator
    diag = [
        [
            (lcd * x if s == t else 0) + y * comp[s][t]
            for x, y in zip(ra, rb)
            for t in range(d)
        ]
        for ra, rb in zip(p.a.rows, p.b.rows)
        for s in range(d)
    ]
    sup = [[y if s == t else 0 for y in rb for t in range(d)] for rb in p.b.rows for s in range(d)]
    width = p.n * d
    return Mat.from_ints(diag, width), Mat.from_ints(sup, width)


def _sizes_at_class(reg: Pencil, cls: Poly, total: int) -> tuple[int, ...]:
    """Jordan block sizes of a square regular pencil at a monic irreducible
    class whose total block size is ``total``.

    With M and N from ``_resolvent_parts`` and d the degree of cls, the
    chain W_1 = ker M, W_{k+1} = M^-1(N W_k) of ``preimage_chain`` has

        dim W_k = d * sum over blocks at cls of min(k, size).

    Proof: a strict equivalence Q (A + tB) P carries the chain of the
    pencil onto P^-1 applied to the chain of Q (A + tB) P, so it may be
    read in Kronecker form, where M and N are block diagonal and the chain
    splits block by block.  Over the splitting field C is diagonal with
    the d distinct roots of cls, so A (x) I + B (x) C is the direct sum of
    A + alpha*B over those roots alpha, with N the direct sum of copies of
    B.  For one root, a Jordan block at alpha of size s has A + alpha*B
    nilpotent of index s and B invertible, so its part of W_k is the
    kernel of the k-th power, of dimension min(k, s); on every other
    block (another finite eigenvalue, or an infinite block, where B is
    nilpotent and A invertible) A + alpha*B is invertible and the chain
    stays zero.  The roots are conjugate, so each contributes the same
    dimensions, and dimensions over Q equal those over the extension.

    The first dimension comes from one rank of M, and the chain runs only
    when that falls short of the total: it eliminates [M | N] once and
    then continues that elimination in dim W_k new columns per step, so no
    matrix it eliminates has more than n*d rows.  The defect
    dim W_k / d grows strictly until it reaches the total, at the largest
    size, so the chain stops there; a dimension not divisible by d, a
    defect above the total, or one that repeats below it, is an internal
    error.
    """
    if total == 0:
        return ()
    d = cls.degree()
    m, n = _resolvent_parts(reg, cls)
    dim = m.n - rank(m)
    chain = None
    defects: list[int] = []
    while True:
        if dim % d:
            raise InternalConsistencyError(
                "Jordan chain dimension not divisible by the class degree"
            )
        defect = dim // d
        if defect > total:
            raise InternalConsistencyError(
                "Jordan chain defect exceeds the total from the determinant"
            )
        if defect <= (defects[-1] if defects else 0):
            raise InternalConsistencyError(
                "Jordan chain defects stop below the total from the determinant"
            )
        defects.append(defect)
        if defect == total:
            return _widths_from_dims(defects)
        if chain is None:
            chain = preimage_chain(m, n)
            if len(next(chain)) != dim:
                raise InternalConsistencyError("the Jordan chain's kernel disagrees with the rank of M")
        dim = len(next(chain))


def elementary_divisors(
    p: Pencil,
) -> tuple[list[tuple[Poly, tuple[int, ...]]], tuple[int, ...]]:
    """Finite classes with size multisets, plus infinite block sizes.

    A finite class is a monic irreducible polynomial whose roots are
    eigenvalues; infinite sizes are read off the reversed pencil B + s*A
    at s = 0.
    """
    reg = _regular_part(p)
    totals, inf_total = _class_totals(reg)
    finite = [(cls, _sizes_at_class(reg, cls, total)) for cls, total in totals]
    return finite, _sizes_at_class(reg.reversed(), Poly.x(), inf_total)


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
    # the construction cross-checks the kernel chains (minimal indices)
    # against the Jordan chains (Jordan sizes) through the dimension counts
    return StrictInvariants(
        m=p.m,
        n=p.n,
        rank=r,
        horizontal=widths,
        vertical=heights,
        jordan=tuple(jordan),
    )
