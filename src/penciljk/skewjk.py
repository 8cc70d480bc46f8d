"""Invariants of pencils of skew-symmetric bilinear forms.

A skew pencil is classified up to congruence by the same data as up to
strict equivalence, and skewness forces that data to pair up: minimal
column and row indices coincide, and within each eigenvalue class every
Jordan size occurs an even number of times.  The folded record keeps one
Kronecker index per index pair (a pair of minimal indices k, k spans a
block of dimension 2k-1) and one even size per Jordan pair.

``jk_of_block_pencil`` reads the invariants of a skew pencil with a
three-group block split off two smaller pencils, under hypotheses it
checks and reports one by one.  That block reduction belongs to the
paper's second technique (semi-direct sums), so it is part of the API
and not a test oracle.  The core and the mantle cost no elimination:
they are the right kernel chain's limit and its annihilator, built and
checked in ``pencils._kernel_chains`` and kept in ``Pencil.chains``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    ConstantRankHypothesisError,
    InternalConsistencyError,
    RegularPointHypothesisError,
    SparsityPatternError,
)
from .exactla import IntVec, KernelView
from .pencils import (
    EigClass,
    Pencil,
    _check_record,
    pencil_rank,
    strict_invariants,
)
from .strata import SkewBundleSig, skew_abstract_signature


def _require_skew(p: Pencil) -> None:
    if not p.is_skew:
        raise ValueError("both coefficient matrices must be skew-symmetric")


@dataclass(frozen=True)
class SkewJK:
    """Folded invariants of a skew pencil.

    kronecker: one index k >= 1 per pair of minimal indices, descending.
    jordan: per eigenvalue class, the even dimensions of the skew Jordan
    blocks, descending; classes sorted and distinct.  Construction checks
    the class order and, through ``strata.skew_abstract_signature``, the
    rest; the signature it builds is kept as ``signature``.
    """

    dim: int
    kronecker: tuple[int, ...]
    jordan: tuple[tuple[EigClass, tuple[int, ...]], ...]
    signature: SkewBundleSig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_record(self, skew_abstract_signature)

    def jordan_dimension(self) -> int:
        return sum(cls.root_count * sum(sizes) for cls, sizes in self.jordan)


def skew_jk_invariants(p: Pencil) -> SkewJK:
    """Fold the strict invariants of a skew pencil into congruence data."""
    _require_skew(p)
    # the heights of a skew pencil are its widths by construction: its
    # transposed kernel chain is the same computation (see pencils)
    inv = strict_invariants(p)
    jordan = []
    for cls, sizes in inv.jordan:
        counts = Counter(sizes)
        if any(c % 2 for c in counts.values()):
            raise InternalConsistencyError("jordan pairing failed on a skew pencil")
        folded = sorted(
            (2 * s for s, c in counts.items() for _ in range(c // 2)), reverse=True
        )
        jordan.append((cls, tuple(folded)))
    return SkewJK(dim=p.m, kronecker=inv.horizontal, jordan=tuple(jordan))


# ---------------------------------------------------------------------------
# core and mantle


def core_subspace(p: Pencil) -> list[IntVec]:
    """Span of the kernels of A + tB over regular values t.

    In Kronecker form (a fixed change of coordinates, which changes no
    dimension) the kernel at a regular t is spanned by the vectors
    (1, t, ..., t^e), up to signs, one per horizontal block L_e, and the
    other blocks add nothing.  By Vandermonde, e + 1 distinct values of t
    reach every column of L_e, so the core is exactly the span of the
    columns of the horizontal blocks.  That span is the limit of the right
    kernel chain, a Wong limit (see ``pencils``), which each pencil keeps
    in ``Pencil.chains`` once it is computed, so the core costs no
    elimination of its own.
    """
    _require_skew(p)
    return list(p.chains.right)


def mantle_subspace(p: Pencil) -> KernelView:
    """Orthogonal complement of the core with respect to a regular form,
    as the kernel view ``Pencil.chains.ann_image`` of the rows Bv over the
    core V, whose vectors are back-substituted when first read.

    The mantle is the kernel of the rows M^T k = -Mk over V for the form
    M = A + mu*B at the chains' regular value mu.  The two agree when V
    is the right chain's limit at mu and dim V - dim BV = n - r: the first
    gives V = M^-1(BV), so MV <= BV, and ker M <= V, of dimension n - r;
    the second then gives dim MV = dim BV, so MV = BV, and one row space
    has one echelon form, so even the free columns and vectors agree.
    """
    _require_skew(p)
    return p.chains.ann_image


# ---------------------------------------------------------------------------
# block-structured pencils


def jk_of_block_pencil(p: Pencil, partition: tuple[int, int, int]) -> SkewJK:
    """Invariants of a skew pencil with a three-group coordinate split.

    The coordinates are grouped x, s, y in order.  The couplings
    (s, y), (y, s) and (y, y) must vanish in both coefficients.  Two
    hypotheses are checked and reported distinctly: the x-to-y coupling
    sub-pencil must have full row rank at every parameter value including
    infinity, and the s-to-s sub-pencil must be nondegenerate at some
    parameter value.  The result combines the Kronecker part of the
    former with the Jordan part of the latter.
    """
    _require_skew(p)
    nx, ns, ny = partition
    if min(nx, ns, ny) < 0 or nx + ns + ny != p.n:
        raise ValueError("partition does not split the coordinates")
    xi = list(range(nx))
    si = list(range(nx, nx + ns))
    yi = list(range(nx + ns, p.n))
    for rows, cols, name in ((si, yi, "(s, y)"), (yi, si, "(y, s)"), (yi, yi, "(y, y)")):
        for mat in (p.a, p.b):
            if not mat.submatrix(rows, cols).is_zero():
                raise SparsityPatternError("coupling block %s must vanish" % name)

    xy = Pencil(p.a.submatrix(xi, yi), p.b.submatrix(xi, yi))
    inv_xy = strict_invariants(xy)
    if inv_xy.vertical or inv_xy.jordan:
        raise ConstantRankHypothesisError(
            "x-to-y coupling is not of full row rank at every parameter value"
        )

    ss = Pencil(p.a.submatrix(si, si), p.b.submatrix(si, si))
    if pencil_rank(ss) != ns:
        raise RegularPointHypothesisError(
            "s-to-s sub-pencil is degenerate at every parameter value"
        )
    jordan = skew_jk_invariants(ss).jordan
    return SkewJK(dim=p.n, kronecker=inv_xy.horizontal, jordan=jordan)
