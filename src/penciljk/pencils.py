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
  of A + t0*B drops, or the infinite class, whose blocks are those of
  the reversed pencil B + s*A at s = 0.  A finite class is stored as the
  primitive integer associate of q (content 1, positive leading
  coefficient, lowest degree first), which is what the factorization
  over Z returns; the monic rational form appears only in reports.

Everything here is exact, and the work is done on integers.  Matrices are
integer rows over a common denominator (see ``exactla``), so A + t*B at
an integer t is an integer matrix up to one constant factor, which
changes no rank and no kernel.  Ranks at specific parameter values are
exact by construction.  The normal rank is proved from the limit V of the
right kernel chain below, run at t = 0: since (A + t*B)V lies in
AV + BV for every t, rank(A + t*B) <= n - (dim V - dim(AV + BV)), and the
limit taken at any t attains that bound, since each horizontal block
loses one dimension there and a Jordan block at that t none.  rank(A)
is read off that chain's first kernel, dim W_1 = n - rank(A), so A is
eliminated once.  When rank(A) reaches the bound, 0 is the regular
value; otherwise t = 1, 2, ... are ranked until one reaches it, and the
chain runs again there.  The regular part has at most r eigenvalues for
a normal rank r, so one of t = 0..r is regular, and a rank above the
bound, or no t in 0..r reaching it, is an internal error (see
``_kernel_chains``).  The smallest such t is the regular value every
later stage uses.

Minimal indices come from a nested-kernel chain at a regular parameter
value mu: with M = A + mu*B,

    W_1 = ker M,   W_{k+1} = preimage under M of B(W_k).

At a regular value only horizontal blocks feed this chain, and a block
of width w contributes min(k, w) to dim W_k, so consecutive differences
count blocks of width >= k.  The chain of the transposed pencil gives
the heights the same way.  For a skew pencil the transposed pencil is
the negated one, whose chain is the same computation, so it runs once.
The right chain at t = 0 always takes its first step, which gives
rank(A), and stops there when rank(A) = n; a chain whose first kernel
the normal rank proves zero (n = r at a rerun, m = r on the left) is not
run.

Each chain is one Bareiss elimination of [M | -B] that only grows
(``exactla.preimage_chain``): each step appends B times the vectors the
last step added, and back-substitutes only those new columns.  The
``exactla`` module docstring shows why the rows are those of eliminating
the stacked matrix from scratch, why only the new columns can add
directions, and why a candidate can still lie in W_k: B kills a vector
of W_k outside W_(k-1), as it kills the zero columns of width-1
horizontal blocks, so each candidate is tested for independence first.

The limits of the two chains are Wong limits (Berger, Ilchmann and
Trenn 2012): the right one spans exactly the columns of the horizontal
blocks, the left one the rows of the vertical blocks.  Together with
their images under A and B they split the singular part off, as in Van
Dooren's (1979) staircase reduction but in exact arithmetic: two
complements, chosen on the free columns a kernel view's elimination
found (``_complement``), give a square pencil
Q (A + t*B) P, of size n minus sum(w) minus sum(u - 1), that is strictly
equivalent to the Jordan part of the Kronecker form (see
``_regular_part``).  The two kernels are ``exactla.KernelView``s of the
limits' images: their counts give and check the deficiencies, and their
vectors are back-substituted only when the Jordan part and the singular
part are both nonempty, which is when complements are built from them.
Those vectors are mostly zeros, and Q and P enter the products through
their nonzero coordinates alone (``_restricted``).

Eigenvalue data is read off that regular part A_R + t*B_R, of size
n_R.  The pencil's regular value t0, the first integer t >= 0 at which
it reaches its normal rank, is also the first at which
det(A_R + t*B_R) != 0, and one ``exactla.solve`` gives the n_R x n_R
matrix M = (A_R + t0*B_R)^-1 B_R.  Since A_R + t*B_R equals
(A_R + t0*B_R)(I + (t - t0) M), M's characteristic polynomial gives the
determinant of the regular part up to a constant (``_class_totals``).
It is factored once over Z: each irreducible factor is a finite class,
its multiplicity is the exact total block size there, and n_R minus the
degree is the exact infinite total.  No class without blocks arises.
The Möbius map mu = 1/(t0 - lambda) carries the blocks at each
eigenvalue lambda onto M's Jordan blocks at mu, and the infinite blocks
onto those at mu = 0.  A class f of degree d becomes
g(mu) = mu^d f(t0 - 1/mu), of degree d because f(t0) != 0, and a block
of size s adds d * min(k, s) to dim ker g(M)^k (``_sizes_at_class``).
For d >= 2 one rank of an integer multiple G of g(M) gives the first
defect.  For d = 1, (A_R + t0*B_R) g(M) is the pencil's own matrix
f0*B_R - f1*A_R, so the rank is taken on the regular pencil, whose
entries are small where G's have the size of a determinant; there the
defects and the totals come from different matrices.  The infinite
class is the class t of the reversed regular pencil B_R + s*A_R, so it
takes the degree-1 route.  When that rank falls short of the total, the
chain of G with B = I, or the Wong chain of the regular pencil, runs in
``_kernel_chain``, which drives every chain here, and stops once its
dimension reaches d times the total.  Every matrix this eliminates has
n_R rows, whatever the class degree.
Eliminating A + t*B as a polynomial matrix would give the same answers
but suffers badly from coefficient growth.

Each ``Pencil`` keeps its own singular structure, ``Pencil.chains``:
``_kernel_chains`` proves the normal rank, runs both chains once at the
regular value and returns the normal rank, the regular value, the
widths, the heights, the two limits and their annihilators, kernel
views built there alone, where every deficiency is checked.  The rank,
the regular value, the minimal indices, the regular part and the skew
core and mantle (``skewjk``; the mantle is the right annihilator) all
read it.  A ``Pencil`` also keeps its skewness and its transpose, and an
invariants record the signature its construction checked, so nothing is
computed twice, and nothing outlives the object that owns it.

Each step checks itself: each chain's first kernel against the rank at
its point where the normal rank gives it (the left chain, and the right
one at a regular value t > 0), the right limit's deficiency against the
normal rank when the chain runs again at a regular value t > 0, each
limit's deficiency against the candidates its chain rejected, counted
by another route in ``exactla.preimage_chain`` (the left one through
the normal rank), the left limit's deficiency against the same normal
rank for a pencil that is not skew, each limit's membership in the
kernel it is completed in, the regular part's size, its invertibility
at the regular value, M against the system it solves, and each class's
defects against its total.  Every count is read off an elimination, so
no check waits for the functionals to be back-substituted.  The
dimension bookkeeping then checks the chains against the rank.  Its
rules are stated once, in
``strata.BundleSig``: ``StrictInvariants`` and ``skewjk.SkewJK`` check
their class order and build their signatures for the rest
(``_check_record``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter, mul
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError
from .exactla import (
    IntVec,
    KernelView,
    Mat,
    charpoly,
    pivot_columns,
    preimage_chain,
    rank,
    solve,
)
from .polys import integer_factors, poly_sort_key
from .strata import BundleSig, abstract_signature


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

    @cached_property
    def transposed(self) -> "Pencil":
        """The pencil A^T + t*B^T, built once per pencil."""
        return Pencil(self.a.transpose(), self.b.transpose())

    @cached_property
    def is_skew(self) -> bool:
        """Whether A and B are both skew-symmetric, decided once per pencil."""
        return self.a.is_skew() and self.b.is_skew()

    @cached_property
    def chains(self) -> "_Chains":
        """The singular structure (``_kernel_chains``), computed once per
        object; it is not a field, so ``==`` and ``hash`` ignore it."""
        return _kernel_chains(self)

    def __repr__(self) -> str:
        return f"Pencil(a={self.a.tolist()}, b={self.b.tolist()})"


@dataclass(frozen=True)
class EigClass:
    """An eigenvalue class, finite or infinite.

    A finite class is a monic irreducible polynomial over Q, stored as its
    one primitive integer associate: a tuple of ints, lowest degree first,
    with content 1 and a positive leading coefficient.  ``poly`` is None
    for the infinite class.
    """

    poly: tuple[int, ...] | None = None

    def __post_init__(self):
        p = self.poly
        if p is not None and not (
            type(p) is tuple
            and len(p) > 1
            and all(type(c) is int for c in p)
            and p[-1] > 0
            and gcd(*p) == 1
        ):
            raise ValueError(
                "finite class needs a primitive nonconstant integer polynomial "
                "with a positive leading coefficient"
            )

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def root_count(self) -> int:
        """Number of complex points in the class (degree, or 1 for infinity)."""
        return 1 if self.poly is None else len(self.poly) - 1

    def sort_key(self):
        if self.poly is None:
            return (1, ())
        return (0,) + poly_sort_key(self.poly)

    @classmethod
    def infinite(cls) -> "EigClass":
        return cls(None)


def _check_record(record, signature) -> None:
    """Check what the record's eigenvalue-anonymous signature cannot see,
    classes sorted by ``EigClass.sort_key`` and distinct, then build the
    signature, whose ``ValueError`` is a bug here, and keep it on the
    record as ``signature``, so that no caller builds it again."""
    keys = [cls.sort_key() for cls, _ in record.jordan]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InternalConsistencyError("eigenvalue classes must be sorted and distinct")
    try:
        sig = signature(record)
    except ValueError as exc:
        raise InternalConsistencyError(str(exc)) from None
    object.__setattr__(record, "signature", sig)


@dataclass(frozen=True)
class StrictInvariants:
    """Complete strict-equivalence datum of an m x n pencil.

    ``horizontal`` and ``vertical`` are block widths/heights sorted
    descending; ``jordan`` maps each eigenvalue class to its block sizes,
    sorted descending, stored as a tuple sorted by class.  Construction
    checks the class order and, through ``strata.abstract_signature``,
    the dimension bookkeeping, so an instance is always coherent; the
    signature it builds is kept as ``signature``.
    """

    m: int
    n: int
    rank: int
    horizontal: tuple[int, ...]
    vertical: tuple[int, ...]
    jordan: tuple[tuple[EigClass, tuple[int, ...]], ...]
    signature: BundleSig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_record(self, abstract_signature)

    def jordan_dimension(self) -> int:
        """Total dimension occupied by eigenvalue blocks, counting conjugates."""
        return sum(c.root_count * sum(sizes) for c, sizes in self.jordan)


# ---------------------------------------------------------------------------
# the singular structure, computed once per pencil


def _kernel_chain(
    m_at_mu: Mat, b: Mat, dim: int | None, limit: int | None = None
) -> tuple[list[int], list[IntVec], int]:
    """Dimensions of the nested kernel chain W_1 <= W_2 <= ... until stable,
    or until dim W_k reaches ``limit``, a basis of the last W_k, and the
    number of candidates the chain rejected, which at a stable W_k = V is
    dim(V ∩ ker B) (see ``exactla``).  This is the one driver of
    ``preimage_chain`` here: the singular chains and the Jordan chains of
    ``_sizes_at_class`` all run through it.

    ``dim`` is dim W_1 = n - rank(M) where another route already gives
    it: a chain with dim 0 stays zero and is not run, and any other's
    first kernel is checked against it.  With ``dim`` None the chain's
    first step gives dim W_1 itself, which is then the only elimination
    of M, and a chain whose W_1 is zero stops there.  Only a Jordan chain
    knows its limit in advance, from the determinant; stopping there saves
    the step that would find the chain stable.
    """
    if dim == 0:
        return [0], [], 0
    chain = preimage_chain(m_at_mu, b)
    basis, rejected = next(chain)
    if dim is not None and len(basis) != dim:
        raise InternalConsistencyError("the kernel of the chain disagrees with the rank")
    dims = [len(basis)]
    while basis and (limit is None or len(basis) < limit):
        new_basis, rejected = next(chain)
        if len(new_basis) == len(basis):
            break
        dims.append(len(new_basis))
        basis = new_basis
    return dims, basis, rejected


def _deficiency(p: Pencil, v: Sequence[IntVec]) -> tuple[int, KernelView]:
    """dim V - dim(AV + BV) for the limit V of a kernel chain of p, spanned
    by the independent vectors v, and the functionals vanishing on
    AV + BV: the kernel of the matrix whose rows are the vectors Bv, as a
    ``KernelView``.  The deficiency is read off its count, so the
    functionals themselves are back-substituted only when first read.

    The limit of the chain run at any mu satisfies V = M^-1(BV) for
    M = A + mu*B, so MV lies in BV, AV = MV - mu*BV lies in BV, and
    AV + BV = BV: the rows Av would add nothing.  The deficiency is then
    dim V - dim BV = dim(V ∩ ker B), which the chain also counts, by
    another route, as the candidates it rejected (``exactla``);
    ``_kernel_chains`` checks both.  For V = 0 the matrix has no rows,
    and every functional vanishes on its image."""
    image = [[sum(map(mul, row, x)) for row in p.b.rows] for x in v]
    ann = KernelView(Mat.from_ints(image, p.m))
    return len(v) - (p.m - len(ann)), ann


def _first_regular(p: Pencil, r: int) -> int:
    """The smallest integer t in 1..r at which rank(A + t*B) = r, for a
    pencil of normal rank r that falls short of it at t = 0.

    The regular part has at most r eigenvalues, so one of the r + 1 points
    0..r is regular; a rank above r contradicts the bound that proved r.
    """
    for t in range(1, r + 1):
        k = rank(p.at(t))
        if k > r:
            raise InternalConsistencyError("a rank exceeds the normal rank the chain limit proves")
        if k == r:
            return t
    raise InternalConsistencyError("no integer t in 0..r reaches the normal rank")


def _widths_from_dims(dims: list[int]) -> tuple[int, ...]:
    # dims[k-1] = sum over blocks of min(k, width); differences count widths >= k
    counts = [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    counts.append(0)
    widths: list[int] = []
    for k in range(len(counts) - 1, 0, -1):
        widths.extend([k] * (counts[k - 1] - counts[k]))
    return tuple(widths)


class _Chains(NamedTuple):
    """A pencil's singular structure: normal rank, regular value, widths,
    heights, the limits V and Z of the right and left kernel chains, and
    their annihilators as ``KernelView``s (``_deficiency``): the kernels
    of the rows Bv over V, whose count proved the normal rank, and of the
    rows B^T z over Z.  A skew pencil's two of each are one."""

    rank: int
    regular: int
    widths: tuple[int, ...]
    heights: tuple[int, ...]
    right: tuple[IntVec, ...]
    left: tuple[IntVec, ...]
    ann_image: KernelView
    ker_coimage: KernelView


def _kernel_chains(p: Pencil) -> _Chains:
    """The normal rank and regular value, proved from the right chain's
    limit, then both kernel chains at the regular value, computed afresh;
    ``Pencil.chains`` calls it once per pencil and keeps the result.

    The right chain runs at t = 0 first.  Its limit V satisfies
    (A + tB)V <= AV + BV at every t, so rank(A + tB) <= n - d for the
    deficiency d = dim V - dim(AV + BV), and the Wong limit at any t
    attains the bound: each horizontal block loses one dimension, a Jordan
    block at that t none.  So r = n - d is the normal rank.  When
    rank(A) = r, t = 0 is the regular value and the chain already run is
    the one wanted.  Otherwise t = 1, 2, ... are ranked until one reaches
    r (``_first_regular``), and the chain runs again there.  rank(A) is
    read off the chain's first step, dim W_1 = n - rank(A), which is the
    one elimination of A: a pencil of rank(A) = n stops its right chain
    there, and one of rank(A) = min(m, n) ranks no other point.  Nothing
    else takes that rank, so this W_1 is not checked against one.  A W_1
    one vector short would read as rank(A) + 1: above r where t = 0 is
    regular, which raises, and equal to r at rank(A) = r - 1, where the
    left chain's first kernel, checked against m - r, or the regular part
    at t = 0, now an eigenvalue of it, disagrees.  Below that the chain
    runs again at the regular value, and only that run is kept.

    The right limit spans the columns of the horizontal blocks, the left
    one (the chain of the transposed pencil) the rows of the vertical
    blocks.  A skew pencil's transpose is its negative, whose chain is the
    same computation, so there the left chain is the right one.

    Both limits' annihilators (``_deficiency``) are built here alone.
    Each chain also counts the candidates it rejected, dim(V ∩ ker B) at
    its limit (see ``exactla``), the limit's deficiency by another route.
    The left one's count and its limit's deficiency are each checked
    against m - r, one per vertical block, and the right one's count
    against the deficiency that proved r, so a fault in ``_deficiency``
    that shifts both limits alike cannot pass.
    """
    right_dims, right, rejected = _kernel_chain(p.a, p.b, None)
    low = p.n - right_dims[0]
    deficiency, ann_image = _deficiency(p, right)
    r, mu = p.n - deficiency, 0
    if low > r:
        raise InternalConsistencyError("a rank exceeds the normal rank the chain limit proves")
    if low < r:
        mu = _first_regular(p, r)
        right_dims, right, rejected = _kernel_chain(p.at(mu), p.b, p.n - r)
        deficiency, ann_image = _deficiency(p, right)
        if deficiency != p.n - r:
            raise InternalConsistencyError(
                "the chain limit at the regular value disagrees with the normal rank"
            )
    if p.is_skew:
        left_dims, left, ker_coimage = right_dims, right, ann_image
    else:
        pt = p.transposed
        left_dims, left, left_rejected = _kernel_chain(pt.at(mu), pt.b, p.m - r)
        # dim Z - dim(A^T Z + B^T Z) for the left limit Z, counted twice
        if left_rejected != p.m - r:
            raise InternalConsistencyError(
                "the vertical blocks' coimage has the wrong dimension by the left chain's count"
            )
        left_deficiency, ker_coimage = _deficiency(pt, left)
        if left_deficiency != p.m - r:
            raise InternalConsistencyError("the vertical blocks' coimage has the wrong dimension")
    if rejected != deficiency:
        raise InternalConsistencyError(
            "the right chain limit's deficiency disagrees with the candidates its chain rejected"
        )
    return _Chains(
        r,
        mu,
        _widths_from_dims(right_dims),
        _widths_from_dims(left_dims),
        tuple(right),
        tuple(left),
        ann_image,
        ker_coimage,
    )


def pencil_rank(p: Pencil) -> int:
    """Normal rank: the maximum of rank(A + t*B) over all t."""
    return p.chains.rank


def is_regular_value(p: Pencil, t: int) -> bool:
    """True when the pencil attains its normal rank at parameter t."""
    return rank(p.at(t)) == pencil_rank(p)


def regular_value(p: Pencil) -> int:
    """Smallest non-negative integer at which the pencil has full normal rank."""
    return p.chains.regular


def minimal_indices(p: Pencil) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(horizontal widths, vertical heights), each sorted descending."""
    return p.chains.widths, p.chains.heights


# ---------------------------------------------------------------------------
# eigenvalue structure


def _complement(inside: Sequence[IntVec], basis: KernelView) -> list[IntVec]:
    """Vectors of ``basis``, the kernel of some matrix, that complete the
    independent ``inside``, which must lie in its span, to a basis of that
    span: each basis[j] outside the span of ``inside`` and basis[:j], so
    the pivots of [inside | basis] beyond ``inside``.

    They are read off the free columns f_1 < ... < f_k that the kernel
    view's elimination found (``basis.free``).  basis[j] is nonzero at f_j
    and zero right of it, so restricting to those k coordinates is
    triangular with a nonzero diagonal on the basis, and injective on its
    span; it carries span(basis[:j]) onto the span of the first j - 1 unit
    vectors.  So basis[j] lies in span(inside) + span(basis[:j]) exactly
    when some vector of span(inside) has its last nonzero free coordinate
    at f_j.  Those j are the pivots of the |inside| x k matrix of free
    coordinates with its columns reversed, an elimination of k columns in
    place of one of n rows, and every other basis[j] is kept.

    That inside lies in the span is checked by exact integer products:
    basis[j] is zero at the other free columns, so the coefficient of v
    on basis[j] is v[f_j] / basis[j][f_j], and with D the lcm of those
    denominators D * v must be the integer combination they give.  A
    vector outside the span would leave a complement of the wrong size
    under [inside | basis], and raises here.
    """
    free = basis.free
    heads = [w[f] for w, f in zip(basis, free)]
    den = lcm(*heads)
    cols = list(zip(*basis)) if basis else [()] * basis.n
    for v in inside:
        coeffs = [v[f] * (den // h) for f, h in zip(free, heads)]
        if [sum(map(mul, coeffs, col)) for col in cols] != [den * x for x in v]:
            raise InternalConsistencyError(
                "the regular part is not square of the Jordan dimension: "
                "a chain limit vector lies outside the kernel it is completed in"
            )
    k = len(basis)
    restricted = [[v[f] for f in reversed(free)] for v in inside]
    skip = {k - 1 - q for q in pivot_columns(Mat.from_ints(restricted, k))}
    return [w for j, w in enumerate(basis) if j not in skip]


def _products(rows: Sequence[Sequence[int]], vectors: Sequence[IntVec]) -> list[list[int]]:
    """[[row . v for row in rows] for v in vectors], each product taken
    over the nonzero coordinates of v only, for nonzero vectors."""
    out = []
    for v in vectors:
        support = [j for j, x in enumerate(v) if x]
        coeffs = [v[j] for j in support]
        if len(support) == 1:
            # an itemgetter of one index returns the entry, not a tuple
            (j,), (c,) = support, coeffs
            out.append([c * r[j] for r in rows])
        else:
            pick = itemgetter(*support)
            out.append([sum(map(mul, pick(r), coeffs)) for r in rows])
    return out


def _restricted(mat: Mat, left: list[IntVec], right: list[IntVec], scale: int) -> list[list[int]]:
    """The integer rows of scale * Q mat_int P, with Q's rows ``left`` and
    P's columns ``right``.

    Both are vectors of kernel views, each zero outside its free column
    and the pivot columns left of it (``exactla``), so most of their
    coordinates are zero, and both products run over the nonzero ones:
    first the images mat_int P, then Q times those."""
    return [[scale * x for x in r] for r in _products(_products(mat.rows, right), left)]


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

    Ann W and ker U come with the chains, from the eliminations whose
    counts proved the normal rank r and checked dim Z - dim U = m - r.
    When the Jordan dimension n - sum(w) - sum(u - 1) is 0, C_J and R_J
    are 0, so ker U = V and Ann W = Z: the regular part is the 0 x 0
    pencil, and only those two dimensions are checked.  Both are
    ``KernelView``s, so that check reads only their counts, and their
    vectors are back-substituted only in the branch that builds the
    complements from them.  A pencil with no singular block returns
    first and reads neither.

    Both parts are scaled by the product D of the pencil's denominators,
    D * (A + tB) having integer rows, which changes no eigenvalue data.
    """
    _, _, widths, heights, right, left, ann_image, ker_coimage = p.chains
    if not right and not left:
        # the general branch gives these rows too, through identity
        # complements, but at about ten times the cost
        return Pencil(
            Mat.from_ints([[p.b.den * x for x in r] for r in p.a.rows], p.n),
            Mat.from_ints([[p.a.den * y for y in r] for r in p.b.rows], p.n),
        )
    size = p.n - sum(widths) - sum(u - 1 for u in heights)
    if not size:
        if len(ker_coimage) != len(right) or len(ann_image) != len(left):
            raise InternalConsistencyError("the regular part is not square of the Jordan dimension")
        return Pencil(Mat.from_ints((), 0), Mat.from_ints((), 0))
    cols = _complement(right, ker_coimage)
    rows = cols if p.is_skew else _complement(left, ann_image)
    if len(cols) != size or len(rows) != size:
        raise InternalConsistencyError("the regular part is not square of the Jordan dimension")
    return Pencil(
        Mat.from_ints(_restricted(p.a, rows, cols, p.b.den), size),
        Mat.from_ints(_restricted(p.b, rows, cols, p.a.den), size),
    )


def _class_totals(m: Mat, t0: int) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Every finite class of a square regular pencil A + t*B with its total
    block size, and the total size of its infinite blocks, read off
    M = (A + t0*B)^-1 B = N / D, for integer rows N; t0 is not an eigenvalue.

    det(A + t*B) = det(A + t0*B) det(I + (t - t0) M) is a nonzero constant
    times the product of the finite elementary divisors.  From
    det(lambda I - N) = sum_i c_i lambda^(n-i) (``exactla.charpoly``),
    D^n det(I + s M) = sum_i (-1)^i D^(n-i) c_i s^i, nonzero at s = 0,
    and s = t - t0 is substituted by Horner's rule.  One factorization
    over Z gives each class with its exact total, and the degree falls
    short of n by the infinite total.
    """
    n, den = m.n, m.den
    coeffs = [(-1) ** i * den ** (n - i) * c for i, c in enumerate(charpoly(m.rows))]
    while not coeffs[-1]:
        coeffs.pop()
    content = gcd(*coeffs)
    poly: list[int] = []  # lowest degree first in t
    for c in reversed(coeffs):
        poly = [x - t0 * y for x, y in zip([0] + poly, poly + [0])]
        poly[0] += c // content
    return integer_factors(poly), n - (len(coeffs) - 1)


def _shifted_class(cls: tuple[int, ...], t0: int) -> list[int]:
    """Integer coefficients, lowest degree first, of a nonzero multiple of
    g(mu) = mu^d f(t0 - 1/mu) for the finite class f = cls of degree d."""
    d = len(cls) - 1
    g = [0] * (d + 1)
    power = [1]  # (t0 mu - 1)^i, lowest degree first
    for i, c in enumerate(cls):
        # f_i (t0 - 1/mu)^i mu^d = f_i mu^(d-i) (t0 mu - 1)^i
        for j, e in enumerate(power):
            g[d - i + j] += c * e
        power = [t0 * y - x for x, y in zip(power + [0], [0] + power)]
    return g


def _class_matrix(m: Mat, t0: int, cls: tuple[int, ...]) -> Mat:
    """The integer matrix G = D^d g(M) of a class (see ``_shifted_class``),
    for M = X / D stored as integer rows X over the denominator D; the
    package builds it only for classes of degree 2 or more.

    G = sum_j g_j D^(d-j) X^j, by Horner's rule in integers.
    """
    x, den, n = m.rows, m.den, m.n
    g = _shifted_class(cls, t0)
    d = len(g) - 1
    cols = list(zip(*x))
    h = [[g[d] * v for v in r] for r in x]
    for j in range(d - 1, -1, -1):
        c = g[j] * den ** (d - j)
        for i in range(n):
            h[i][i] += c
        if j:
            h = [[sum(map(mul, r, col)) for col in cols] for r in h]
    return Mat.from_ints(h, n)


def _sizes_at_class(
    m: Mat, t0: int, cls: tuple[int, ...], total: int, reg: Pencil
) -> tuple[int, ...]:
    """Jordan block sizes of a square regular pencil reg = A + t*B at an
    irreducible class cls whose total block size is ``total``; t0 is not an
    eigenvalue and M = (A + t0*B)^-1 B.  The infinite blocks of reg are
    its reversed pencil's blocks at s = 0, so ``elementary_divisors``
    reads them as the class t, (0, 1), of Pencil(B, A).

    With P = A + t0*B, invertible,

        A + t*B = P + (t - t0) B = P (I + (t - t0) M),

    so the pencil is strictly equivalent to I + (t - t0) M and may be read
    in M's Jordan form, block by block.  A block J of size s at mu != 0
    makes I + (t - t0) J singular only at lambda = t0 - 1/mu, where
    I + (lambda - t0) J = -(J - mu) / mu is nilpotent of index s with the
    invertible J as its B part: one block of size s at lambda.  A block at
    mu = 0 has det(I + (t - t0) J) = 1 and a nilpotent B part: one
    infinite block of size s.  So mu = 1/(t0 - lambda) carries the blocks
    at lambda onto M's blocks at mu of the same sizes, and the infinite
    blocks onto those at mu = 0.

    A finite class f of degree d maps to g(mu) = mu^d f(t0 - 1/mu).  Its
    leading coefficient is f(t0), which is nonzero because t0 is not an
    eigenvalue, so g has degree d and its d roots are the images of f's;
    g(0) is f's leading coefficient up to sign, so none of them is 0.  The
    Möbius map is invertible over Q, so g is irreducible like f, and its
    roots are simple.  On a block of size s at a root of g, g(M) is nilpotent of
    index s, and on every other block it is invertible; the d conjugate
    roots carry the same sizes, and dimensions over Q equal those over the
    splitting field, so

        dim ker g(M)^k = d * sum over blocks at cls of min(k, size).

    M and t0 are read only at classes of degree 2 or more, and reg only at
    degree 1, where the argument below needs no more than some point that
    is not an eigenvalue; so the infinite class passes the reversed pencil
    with the M and t0 of the pencil itself.  At degree 2 or more ``_class_matrix`` builds G = D^d g(M) in integers,
    and the chain W_1 = ker G, W_{k+1} = G^-1(W_k) = ker G^(k+1) is the
    chain of G with B = I.  For f = f0 + f1*t, g(mu) = f(t0) mu - f1 and
    P g(M) = f0*B - f1*A, so the pencil's own matrix H = f1*A - f0*B has
    the kernel of g(M), and since W_k = ker g(M)^k is invariant under M
    and M is invertible on it, the chain of H with B, the Wong chain of
    the pencil at the eigenvalue, is the same W_k.  Its entries are those
    of the pencil, where G's have the size of a determinant.  At the class
    t of the reversed pencil H is a multiple of B, and its chain is that
    of B with A.

    The first dimension comes from one rank of G or H, which settles the
    sizes when it reaches d * total, every block then being of size 1.
    Otherwise ``_kernel_chain`` runs the chain, checks its first kernel
    against that rank, and stops once dim W_k reaches d * total, at the
    largest size, or when W_k stops growing.  So every matrix eliminated
    has n rows, and a dimension not divisible by d, or a last one other
    than d * total, is an internal error.  The totals come from the
    determinant of M (``_class_totals``), so for a degree-1 or the
    infinite class they are checked against defects taken on another
    matrix.
    """
    if total == 0:
        return ()
    d = len(cls) - 1
    if d == 1:
        (f0, f1), a, b = cls, reg.a, reg.b
        ca, cb = f1 * b.den, f0 * a.den
        rows = [[ca * x - cb * y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
        g = Mat.from_ints(rows, reg.n)
    else:
        g = _class_matrix(m, t0, cls)
        b = Mat.from_ints([[int(i == j) for j in range(m.n)] for i in range(m.n)], m.n)
    dim = g.n - rank(g)
    dims = [dim] if dim >= d * total else _kernel_chain(g, b, dim, d * total)[0]
    if any(k % d for k in dims) or dims[-1] != d * total:
        raise InternalConsistencyError(
            "Jordan chain dimensions are not multiples of the class degree, "
            "or stop below the total from the determinant, or pass it"
        )
    return _widths_from_dims([k // d for k in dims])


def elementary_divisors(
    p: Pencil,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], tuple[int, ...]]:
    """Finite classes with size multisets, plus infinite block sizes, all
    read off the regular part A_R + t*B_R and its Möbius-shifted matrix
    M = (A_R + t0*B_R)^-1 B_R = N / D: the totals from M's characteristic
    polynomial, the sizes from the powers of g(M) at classes of degree 2
    or more, and from the Wong chain of the regular pencil itself at
    degree-1 classes.  The infinite blocks are those of the reversed
    pencil B_R + s*A_R at its class s, a degree-1 class read like the
    others.

    The shift t0 is the pencil's regular value.  The singular blocks have
    the same rank at every t, so rank(A + t*B) reaches the normal rank
    exactly where det(A_R + t*B_R) != 0, and the smallest integer t >= 0
    of the one is the smallest of the other; a singular A_R + t0*B_R is an
    internal error.  Since the totals and the sizes both read M, M itself
    is checked by exact integer products: (A_R + t0*B_R) N = D B_R.
    """
    reg = _regular_part(p)
    t0 = p.chains.regular
    shifted = reg.at(t0)
    try:
        m = solve(shifted, reg.b)
    except ZeroDivisionError:
        raise InternalConsistencyError(
            "the regular part is singular, or the regular value is an eigenvalue of it"
        ) from None
    product = [[sum(map(mul, r, c)) for c in zip(*m.rows)] for r in shifted.rows]
    if product != [[m.den * x for x in r] for r in reg.b.rows]:
        raise InternalConsistencyError("the Möbius-shifted matrix does not solve its system")
    totals, inf_total = _class_totals(m, t0)
    finite = [(cls, _sizes_at_class(m, t0, cls, total, reg)) for cls, total in totals]
    return finite, _sizes_at_class(m, t0, (0, 1), inf_total, Pencil(reg.b, reg.a))


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
