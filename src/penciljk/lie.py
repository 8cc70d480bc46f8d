"""Lie algebras, linear representations, and their sampled invariants.

An algebra is held as its nonzero brackets, integer structure constants
over one denominator, and a representation as one operator per basis
element, ``Mat``s.  Both structure checks read one integer defect,
rho([e_i, e_j]) - [rho(e_i), rho(e_j)]; on the adjoint operators its
column k is minus the Jacobiator of (e_i, e_j, e_k).  The defect is
built from the brackets and the operators' nonzero entries only, since
classical operators are almost all zeros, and a check reads only the
positions it holds.  Both pencils come from one sparse contraction with
a vector: the Poisson matrix <x, [e_i, e_j]> fills (i, j) and (j, i)
from each nonzero bracket, and the contraction operator of a
representation, whose column i is the i-th operator applied to x, runs
over the operators' nonzero entries, so the cost of either grows with
the nonzero entries and not with dim^3.  Invariants of a generic pair
are estimated by sampling integer points and keeping the signature that
dominates all others under bundle closure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import (
    CertificateNotApplicableError,
    DominanceSelectionError,
    InternalConsistencyError,
)
from .exactla import IntVec, Mat, clear_denominators
from .pencils import Pencil, StrictInvariants, strict_invariants
from .skewjk import SkewJK, skew_jk_invariants
from .strata import (
    bundle_closure_contains,
    certify_generic_lie,
    certify_generic_repr,
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


def _contract(terms, den: int, x, m: int, n: int) -> Mat:
    """The m x n matrix whose entry (a, i) is the sum of c * x_b over the
    terms (a, i, b, c), all over den; positions without a term are zero."""
    xs, xden = clear_denominators(x)
    rows = [[0] * n for _ in range(m)]
    for a, i, b, c in terms:
        rows[a][i] += c * xs[b]
    return Mat.from_ints(rows, n, den * xden)


def _defects(g: "LieAlgebra", mats):
    """Yield (i, j, D) for each basis pair i < j, where D maps positions
    (a, b) to the entries of the integer matrix
    e r^2 (rho([e_i, e_j]) - [rho(e_i), rho(e_j)]); positions missing from
    D hold zero, and a listed entry may be zero too.

    The brackets of g are c^k_ij = C_ijk / e, and mats are
    rho(e_k) = R[k] / r, so D = r sum_k C_ijk R[k] - e [R[i], R[j]].
    Classical operators are almost all zeros, so every sum runs over
    nonzero entries only.
    """
    e = g.den
    rs, r = _int_ops(mats)
    sparse = [[[(b, x) for b, x in enumerate(row) if x] for row in op] for op in rs]
    pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j, k, c in g.brackets:
        pairs.setdefault((i, j), []).append((k, c))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            d: dict[tuple[int, int], int] = {}
            for k, c in pairs.get((i, j), ()):
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
    """An algebra on a fixed basis, held as its nonzero brackets.

    ``brackets`` holds the tuples (i, j, k, c), sorted, with i < j and c a
    nonzero integer: the structure constant c^k_ij, the coordinate of e_k
    in [e_i, e_j], is c / ``den``.  Entries given for the same (i, j, k)
    are summed, and those that cancel are dropped.  ``ad`` are the adjoint
    operators ad(e_i) = [e_i, -], built when first asked for: column j of
    ``ad[i]`` is the coordinate vector of [e_i, e_j], so entry (k, j) of
    ``ad[i]`` is c^k_ij.
    """

    def __init__(self, dim: int, entries):
        """entries: iterable of (i, j, k, coefficient) with 0 <= i < j < dim."""
        items = list(entries)
        for i, j, k, _ in items:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError("bracket entry out of range or not upper (i < j)")
        coeffs, den = clear_denominators(c for *_, c in items)
        self._set(dim, [(i, j, k, c) for (i, j, k, _), c in zip(items, coeffs)], den)

    @classmethod
    def from_ints(cls, dim: int, brackets, den: int) -> "LieAlgebra":
        """The algebra of integer brackets (i, j, k, c) over a positive
        den, with 0 <= i < j < dim and 0 <= k < dim, which is not checked."""
        out = object.__new__(cls)
        out._set(dim, brackets, den)
        return out

    def _set(self, dim: int, brackets, den: int) -> None:
        sums: dict[tuple[int, int, int], int] = {}
        for i, j, k, c in brackets:
            sums[i, j, k] = sums.get((i, j, k), 0) + c
        self.dim = dim
        self.den = den
        self.brackets = tuple((i, j, k, c) for (i, j, k), c in sorted(sums.items()) if c)

    @cached_property
    def ad(self) -> tuple[Mat, ...]:
        planes = [[[0] * self.dim for _ in range(self.dim)] for _ in range(self.dim)]
        for i, j, k, c in self.brackets:
            planes[i][k][j] = c
            planes[j][k][i] = -c
        return tuple(Mat.from_ints(rows, self.dim, self.den) for rows in planes)

    @cached_property
    def _poisson_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """The bracket c^k_ij read into entry (i, j) of a Poisson matrix,
        and its negative into entry (j, i)."""
        return tuple(t for i, j, k, c in self.brackets for t in ((i, j, k, c), (j, i, k, -c)))

    def entries(self):
        """The sparse (i, j, k, c) list with i < j, sorted, c a Fraction."""
        return [(i, j, k, self.ad[i].entry(k, j)) for i, j, k, _ in self.brackets]


def check_jacobi(g: LieAlgebra):
    """All basis triples (i, j, k), i < j < k, violating the Jacobi identity."""
    return [
        (i, j, k)
        for i, j, d in _defects(g, g.ad)
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
    def _ints(self) -> tuple[list[list[list[int]]], int]:
        return _int_ops(self.mats)

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """Entry (a, b) of the i-th operator, as the term (a, i, b, c) of
        the contraction operator, over the denominator of ``_ints``."""
        ops = self._ints[0]
        return tuple(
            (a, i, b, c)
            for i, op in enumerate(ops)
            for a, row in enumerate(op)
            for b, c in enumerate(row)
            if c
        )


def check_homomorphism(rho: Representation):
    """All basis pairs (i, j) where the bracket is not matched."""
    return [(i, j) for i, j, d in _defects(rho.algebra, rho.mats) if any(d.values())]


# ---------------------------------------------------------------------------
# pencils from structures


def lie_poisson_matrix(g: LieAlgebra, x) -> Mat:
    """The skew matrix pairing x with brackets: entry (i, j) = <x, [e_i, e_j]>,
    the sum of c^k_ij x_k over the nonzero brackets, filled into (i, j)
    and negated into (j, i)."""
    if len(x) != g.dim:
        raise ValueError("covector length must match the algebra dimension")
    return _contract(g._poisson_terms, g.den, x, g.dim, g.dim)


def rep_operator(rho: Representation, x) -> Mat:
    """The dimV x dim matrix whose i-th column is the i-th operator applied to x."""
    if len(x) != rho.dim_v:
        raise ValueError("vector length must match the space dimension")
    return _contract(rho._terms, rho._ints[1], x, rho.dim_v, rho.algebra.dim)


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
    sigs = [jk.signature for jk in folded]
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
    sigs = [inv.signature for inv in invs]
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
