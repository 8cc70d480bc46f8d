"""Lie algebras, linear representations, and their sampled invariants.

An algebra is held as its adjoint operators ad(e_i) = [e_i, -] and a
representation as one operator per basis element, all ``Mat``s.  Both
structure checks read one integer defect, rho([e_i, e_j]) - [rho(e_i),
rho(e_j)]; on the adjoint operators its column k is minus the Jacobiator
of (e_i, e_j, e_k).  The defect is built from the operators' nonzero
entries only, since classical operators are almost all zeros, and a
check reads only the positions it holds.  Both pencils come from one
contraction, the matrix whose column i is the i-th operator applied to
a vector: of the operators of a representation, or of the coadjoint
operators -ad(e_i)^T, which gives the Poisson matrix <x, [e_i, e_j]>.
Invariants of a generic pair are estimated by sampling integer points
and keeping the signature that dominates all others under bundle
closure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .errors import (
    CertificateNotApplicableError,
    DominanceSelectionError,
    InternalConsistencyError,
)
from .exactla import IntVec, Mat, clear_denominators
from .pencils import Pencil, StrictInvariants, strict_invariants
from .skewjk import SkewJK, skew_jk_invariants
from .strata import (
    abstract_signature,
    bundle_closure_contains,
    certify_generic_lie,
    certify_generic_repr,
    skew_abstract_signature,
    skew_bundle_closure_contains,
)

CERTIFIED = "certified"
EMPIRICAL = "empirical"


# ---------------------------------------------------------------------------
# integer operators


def _int_ops(mats) -> tuple[list[list[list[int]]], int]:
    """The operators as integer rows over their least common denominator."""
    den = lcm(*[m.den for m in mats])
    return [[[den // m.den * x for x in r] for r in m.rows] for m in mats], den


def _contract(ops, den: int, x) -> Mat:
    """The matrix whose column i is the i-th integer operator applied to x."""
    xs, xden = clear_denominators(x)
    rows = [[sum(map(mul, op[a], xs)) for op in ops] for a in range(len(xs))]
    return Mat.from_ints(rows, len(ops), den * xden)


def _defects(ad, mats):
    """Yield (i, j, D) for each basis pair i < j, where D maps positions
    (a, b) to the entries of the integer matrix
    e r^2 (rho([e_i, e_j]) - [rho(e_i), rho(e_j)]); positions missing from
    D hold zero, and a listed entry may be zero too.

    ad are the adjoint operators of an algebra, c^k_ij = C[i][k][j] / e,
    and mats are rho(e_k) = R[k] / r, so
    D = r sum_k C[i][k][j] R[k] - e [R[i], R[j]].  Classical operators are
    almost all zeros, so every sum runs over nonzero entries only.
    """
    cs, e = _int_ops(ad)
    rs, r = _int_ops(mats)
    sparse = [[[(b, x) for b, x in enumerate(row) if x] for row in op] for op in rs]
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            d: dict[tuple[int, int], int] = {}
            for k, c in enumerate(ck[j] for ck in cs[i]):
                if c:
                    for a, row in enumerate(sparse[k]):
                        for b, x in row:
                            d[a, b] = d.get((a, b), 0) + r * c * x
            for left, right, sign in ((i, j, -e), (j, i, e)):
                outer = sparse[right]
                for a, row in enumerate(sparse[left]):
                    for mid, x in row:
                        for b, y in outer[mid]:
                            d[a, b] = d.get((a, b), 0) + sign * x * y
            yield i, j, d


# ---------------------------------------------------------------------------
# structures


class LieAlgebra:
    """An algebra on a fixed basis, held as its adjoint operators.

    Column j of ``ad[i]`` is the coordinate vector of [e_i, e_j], so entry
    (k, j) of ``ad[i]`` is the structure constant c^k_ij.
    """

    def __init__(self, dim: int, entries):
        """entries: iterable of (i, j, k, coefficient) with 0 <= i < j < dim."""
        self.dim = dim
        items = list(entries)
        for i, j, k, _ in items:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError("bracket entry out of range or not upper (i < j)")
        coeffs, den = clear_denominators(c for *_, c in items)
        planes = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k, _), c in zip(items, coeffs):
            planes[i][k][j] += c
            planes[j][k][i] -= c
        self.ad = tuple(Mat.from_ints(rows, dim, den) for rows in planes)

    @cached_property
    def _coadjoint(self):
        """The operators -ad(e_i)^T as integer rows over one denominator."""
        return _int_ops([-m.transpose() for m in self.ad])

    def entries(self):
        """The sparse (i, j, k, c) list with i < j, sorted."""
        out = []
        for i, op in enumerate(self.ad):
            for j in range(i + 1, self.dim):
                for k in range(self.dim):
                    if op.rows[k][j]:
                        out.append((i, j, k, op.entry(k, j)))
        return out


def check_jacobi(g: LieAlgebra):
    """All basis triples (i, j, k), i < j < k, violating the Jacobi identity."""
    return [
        (i, j, k)
        for i, j, d in _defects(g.ad, g.ad)
        for k in sorted({b for (_, b), x in d.items() if x and b > j})
    ]


@dataclass(frozen=True)
class Representation:
    """Operators of the basis elements of an algebra on a vector space."""

    algebra: LieAlgebra
    dim_v: int
    mats: tuple[Mat, ...]

    def __post_init__(self) -> None:
        if len(self.mats) != self.algebra.dim:
            raise ValueError("one operator per basis element is required")
        for m in self.mats:
            if m.shape != (self.dim_v, self.dim_v):
                raise ValueError("operators must be square of the space dimension")

    @cached_property
    def _ints(self):
        return _int_ops(self.mats)


def check_homomorphism(rho: Representation):
    """All basis pairs (i, j) where the bracket is not matched."""
    return [(i, j) for i, j, d in _defects(rho.algebra.ad, rho.mats) if any(d.values())]


# ---------------------------------------------------------------------------
# pencils from structures


def lie_poisson_matrix(g: LieAlgebra, x) -> Mat:
    """The skew matrix pairing x with brackets: entry (i, j) = <x, [e_i, e_j]>.

    It is the contraction of x with the coadjoint operators: column i is
    -ad(e_i)^T x, whose entry j is -<x, [e_i, e_j]> = <x, [e_j, e_i]>.
    """
    if len(x) != g.dim:
        raise ValueError("covector length must match the algebra dimension")
    return _contract(*g._coadjoint, x)


def rep_operator(rho: Representation, x) -> Mat:
    """The dimV x dim matrix whose i-th column is the i-th operator applied to x."""
    if len(x) != rho.dim_v:
        raise ValueError("vector length must match the space dimension")
    return _contract(*rho._ints, x)


def lie_pencil(g: LieAlgebra, x, a) -> Pencil:
    return Pencil(lie_poisson_matrix(g, x), lie_poisson_matrix(g, a))


def rep_pencil(rho: Representation, x, a) -> Pencil:
    return Pencil(rep_operator(rho, x), rep_operator(rho, a).scale(-1))


# ---------------------------------------------------------------------------
# sampling


@dataclass
class Sampler:
    """Deterministic integer point source: coordinates uniform in [-height, height]."""

    seed: int
    height: int = 101

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError("height must be positive")
        self._rng = random.Random(self.seed)

    def covector(self, length: int) -> IntVec:
        return tuple(
            self._rng.randint(-self.height, self.height) for _ in range(length)
        )


def _select_maximal(signatures, contains):
    """Index of the sample whose signature dominates all others.

    signatures: list of anonymous signatures, one per sample.  Returns the
    index of the first sample carrying the winning signature.  Ties among
    equal maxima break by frequency, then by a fixed sort of the signature.
    """
    distinct = []
    for s in signatures:
        if s not in distinct:
            distinct.append(s)
    if len(distinct) == 1:
        return signatures.index(distinct[0])
    maxima = [
        s for s in distinct if all(s == t or contains(s, t) for t in distinct)
    ]
    if not maxima:
        raise DominanceSelectionError(
            "no sampled signature dominates all others; raise the sampling height"
        )
    maxima.sort(key=lambda s: (-signatures.count(s), repr(s)))
    return signatures.index(maxima[0])


@dataclass(frozen=True)
class SkewJKReport:
    """Sampled invariants of the generic Poisson pencil of an algebra."""

    invariants: SkewJK
    genericity_status: str
    samples_used: int
    index_used: int

    def __post_init__(self) -> None:
        if len(self.invariants.kronecker) < self.index_used:
            raise InternalConsistencyError(
                "fewer Kronecker indices than the pencil corank bound"
            )


@dataclass(frozen=True)
class RepJK:
    """Sampled invariants of the generic contraction pencil of a representation."""

    invariants: StrictInvariants
    genericity_status: str
    samples_used: int


def jk_invariants_of_lie(
    g: LieAlgebra, sampler: Sampler, samples: int = 25
) -> SkewJKReport:
    """Invariants of the pencil of Poisson matrices at a generic covector pair."""
    if samples < 1:
        raise ValueError("at least one sample is required")
    folded: list[SkewJK] = []
    for _ in range(samples):
        x = sampler.covector(g.dim)
        a = sampler.covector(g.dim)
        folded.append(skew_jk_invariants(lie_pencil(g, x, a)))
    sigs = [skew_abstract_signature(jk) for jk in folded]
    win = _select_maximal(sigs, skew_bundle_closure_contains)
    # one Kronecker index per unit of the pencil's corank dim - rank
    index_used = min(len(jk.kronecker) for jk in folded)
    status = EMPIRICAL
    if index_used > 0 and certify_generic_lie(sigs[win], index_used):
        status = CERTIFIED
    return SkewJKReport(
        invariants=folded[win],
        genericity_status=status,
        samples_used=samples,
        index_used=index_used,
    )


def jk_invariants_of_rep(
    rho: Representation, sampler: Sampler, samples: int = 25
) -> RepJK:
    """Invariants of the contraction pencil at a generic vector pair."""
    if samples < 1:
        raise ValueError("at least one sample is required")
    invs: list[StrictInvariants] = []
    for _ in range(samples):
        x = sampler.covector(rho.dim_v)
        a = sampler.covector(rho.dim_v)
        invs.append(strict_invariants(rep_pencil(rho, x, a)))
    sigs = [abstract_signature(inv) for inv in invs]
    win = _select_maximal(sigs, bundle_closure_contains)
    rmax = max(inv.rank for inv in invs)
    status = EMPIRICAL
    try:
        if certify_generic_repr(sigs[win], rho.dim_v, rho.algebra.dim, rmax):
            status = CERTIFIED
    except CertificateNotApplicableError:
        pass
    return RepJK(
        invariants=invs[win], genericity_status=status, samples_used=samples
    )
