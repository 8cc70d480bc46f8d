"""Lie algebras, linear representations, and their sampled invariants.

An algebra is held as its nonzero brackets, integer structure constants
over one denominator, and a representation as one operator per basis
element, ``Mat``s.  Classical operators are almost all zeros, so both
structure checks sum integers over nonzero terms only.  The Jacobi check
sums the Jacobiator of each sorted triple from pairs of nonzero brackets
that share an index, [e_i, e_j] with a coordinate on e_k and a nonzero
[e_k, e_l]; the Jacobiator is alternating, so the sorted triples of
distinct indices decide the identity.  The homomorphism check sums
rho([e_i, e_j]) - [rho(e_i), rho(e_j)] from the brackets and from pairs
of nonzero operator entries chained through their middle index.

Both pencils come from one sparse contraction with a vector: the
Poisson matrix <x, [e_i, e_j]> fills (i, j) and (j, i) from each nonzero
bracket, and the contraction operator of a representation, whose column
i is the i-th operator applied to x, runs over the operators' nonzero
entries, so the cost of either grows with the nonzero entries and not
with dim^3.  Invariants of a generic pair are estimated by sampling
integer points and keeping the signature that dominates all others under
bundle closure.
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
# the default sample count and coordinate height of sampled invariants
SAMPLES = 25
HEIGHT = 101


# ---------------------------------------------------------------------------
# sparse contraction


def _contract(terms, den: int, x, m: int, n: int) -> Mat:
    """The m x n matrix whose entry (a, i) is the sum of c * x_b over the
    terms (a, i, b, c), all over den; positions without a term are zero."""
    xs, xden = clear_denominators(x)
    rows = [[0] * n for _ in range(m)]
    for a, i, b, c in terms:
        rows[a][i] += c * xs[b]
    return Mat.from_ints(rows, n, den * xden)


# ---------------------------------------------------------------------------
# structures


class LieAlgebra:
    """An algebra on a fixed basis, held as its nonzero brackets.

    ``brackets`` holds the tuples (i, j, k, c), sorted, with i < j and c a
    nonzero integer: the structure constant c^k_ij, the coordinate of e_k
    in [e_i, e_j], is c / ``den``.  Entries given for the same (i, j, k)
    are summed, and those that cancel are dropped, so two algebras with
    the same structure constants hold equal brackets.
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
    def _poisson_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """The bracket c^k_ij read into entry (i, j) of a Poisson matrix,
        and its negative into entry (j, i)."""
        return tuple(t for i, j, k, c in self.brackets for t in ((i, j, k, c), (j, i, k, -c)))

    def entries(self):
        """The sparse (i, j, k, c) list with i < j, sorted, c a Fraction."""
        coeffs = Mat.from_ints([[c for *_, c in self.brackets]], len(self.brackets), self.den)
        return [(i, j, k, c) for (i, j, k, _), c in zip(self.brackets, coeffs.row(0))]


def check_jacobi(g: LieAlgebra):
    """All basis triples (i, j, l), i < j < l, violating the Jacobi identity,
    in sorted order.

    The Jacobiator J(x, y, z) = [[x, y], z] + [[y, z], x] + [[z, x], y] of
    an antisymmetric bracket is alternating: it vanishes when two
    arguments agree and changes sign with each transposition.  So the
    identity holds exactly when J vanishes on every sorted triple of
    distinct basis elements.  Each bracket (a, b, k, c), a < b, gives the
    term [[e_a, e_b], e_z] for every z with [e_k, e_z] nonzero, as
    c times the coordinates of [e_k, e_z]: an integer over den^2.  The
    term enters J of the sorted triple with the sign of the permutation
    that sorts (a, b, z), negative exactly when z lies between a and b;
    z = a or z = b belongs to no triple.  So only pairs of nonzero
    brackets sharing the index k are summed.
    """
    # partners[k] holds (z, t, c): e_t has coordinate c in [e_k, e_z]
    partners: list[list[tuple[int, int, int]]] = [[] for _ in range(g.dim)]
    for i, j, k, c in g.brackets:
        partners[i].append((j, k, c))
        partners[j].append((i, k, -c))
    sums: dict[tuple[int, int, int, int], int] = {}
    for a, b, k, c in g.brackets:
        for z, t, d in partners[k]:
            if z > b:
                key, x = (a, b, z, t), c * d
            elif z < a:
                key, x = (z, a, b, t), c * d
            elif a < z < b:
                key, x = (a, z, b, t), -c * d
            else:
                continue
            sums[key] = sums.get(key, 0) + x
    return sorted({key[:3] for key, x in sums.items() if x})


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
    def _den(self) -> int:
        """The least common denominator of the operators."""
        return lcm(*[m.den for m in self.mats])

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """Entry (a, b) of the i-th operator, as the term (a, i, b, c) of
        the contraction operator, c an integer over ``_den``."""
        r = self._den
        return tuple(
            (a, i, b, r // m.den * c)
            for i, m in enumerate(self.mats)
            for a, row in enumerate(m.rows)
            for b, c in enumerate(row)
            if c
        )


def check_homomorphism(rho: Representation):
    """All basis pairs (i, j), i < j, where rho([e_i, e_j]) differs from
    [rho(e_i), rho(e_j)], in sorted order.

    With brackets C / e and operator entries R / r (the terms of the
    contraction operator), the pair's defect times e r^2 is the integer
    matrix r sum_k C_ijk R_k - e (R_i R_j - R_j R_i).  It is summed from
    nonzero terms only: r C x for each bracket and each entry x of its
    R_k, and e x y for each pair of entries x of R_i at (a, mid) and y of
    R_j at (mid, b), chained through the middle index, subtracted from
    (i, j) when i < j and added to (j, i) when i > j.  Products with
    i = j cancel in the commutator and are skipped.
    """
    g, r = rho.algebra, rho._den
    e = g.den
    entries: list[list[tuple[int, int, int]]] = [[] for _ in range(g.dim)]
    by_row: list[list[tuple[int, int, int]]] = [[] for _ in range(rho.dim_v)]
    for a, i, b, x in rho._terms:
        entries[i].append((a, b, x))
        by_row[a].append((i, b, x))
    sums: dict[tuple[int, int, int, int], int] = {}
    for i, j, k, c in g.brackets:
        for a, b, x in entries[k]:
            sums[i, j, a, b] = sums.get((i, j, a, b), 0) + r * c * x
    for a, i, mid, x in rho._terms:
        for j, b, y in by_row[mid]:
            if i < j:
                key, xy = (i, j, a, b), -e * x * y
            elif i > j:
                key, xy = (j, i, a, b), e * x * y
            else:
                continue
            sums[key] = sums.get(key, 0) + xy
    return sorted({key[:2] for key, x in sums.items() if x})


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
    return _contract(rho._terms, rho._den, x, rho.dim_v, rho.algebra.dim)


def lie_pencil(g: LieAlgebra, x, a) -> Pencil:
    return Pencil(lie_poisson_matrix(g, x), lie_poisson_matrix(g, a))


def rep_pencil(rho: Representation, x, a) -> Pencil:
    return Pencil(rep_operator(rho, x), -rep_operator(rho, a))


# ---------------------------------------------------------------------------
# sampling


@dataclass
class Sampler:
    """Deterministic integer point source: coordinates uniform in [-height, height]."""

    seed: int
    height: int = HEIGHT

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
    Signatures are compared by ``==`` only: a frozen dataclass would
    recompute its hash on every lookup, which costs more than the scan.
    """
    distinct = []
    for s in signatures:
        if s not in distinct:
            distinct.append(s)
    maxima = [
        s for s in distinct if all(s == t or contains(s, t) for t in distinct)
    ]
    if not maxima:
        raise DominanceSelectionError(
            "no sampled signature dominates all others; raise the sampling height"
        )
    return signatures.index(min(maxima, key=lambda s: (-signatures.count(s), repr(s))))


def _sample(structure, dim: int, sampler: Sampler, samples: int, pencil, classify, contains):
    """Classify sampled pencils of a structure and select the dominant one.

    For each sample, x and then a are drawn with ``dim`` coordinates, and
    ``classify(pencil(structure, x, a))`` is recorded.  Returns the
    records and the index ``_select_maximal`` picks under ``contains``.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    records = []
    for _ in range(samples):
        x = sampler.covector(dim)
        a = sampler.covector(dim)
        records.append(classify(pencil(structure, x, a)))
    return records, _select_maximal([r.signature for r in records], contains)


@dataclass(frozen=True)
class SkewJKReport:
    """Sampled invariants of the generic Poisson pencil of an algebra."""

    invariants: SkewJK
    genericity_status: str
    samples_used: int
    index_used: int

    def __post_init__(self) -> None:
        # the dominant signature has the largest rank, so the smallest corank
        if len(self.invariants.kronecker) != self.index_used:
            raise InternalConsistencyError("the dominant sample's corank is not the smallest sampled corank")


@dataclass(frozen=True)
class RepJK:
    """Sampled invariants of the generic contraction pencil of a representation."""

    invariants: StrictInvariants
    genericity_status: str
    samples_used: int


def jk_invariants_of_lie(
    g: LieAlgebra, sampler: Sampler, samples: int = SAMPLES
) -> SkewJKReport:
    """Invariants of the pencil of Poisson matrices at a generic covector pair."""
    folded, win = _sample(
        g, g.dim, sampler, samples, lie_pencil, skew_jk_invariants, skew_bundle_closure_contains
    )
    # one Kronecker index per unit of the pencil's corank dim - rank
    index_used = min(len(jk.kronecker) for jk in folded)
    status = EMPIRICAL
    if index_used > 0 and certify_generic_lie(folded[win].signature, index_used):
        status = CERTIFIED
    return SkewJKReport(
        invariants=folded[win],
        genericity_status=status,
        samples_used=samples,
        index_used=index_used,
    )


def jk_invariants_of_rep(
    rho: Representation, sampler: Sampler, samples: int = SAMPLES
) -> RepJK:
    """Invariants of the contraction pencil at a generic vector pair."""
    invs, win = _sample(
        rho, rho.dim_v, sampler, samples, rep_pencil, strict_invariants, bundle_closure_contains
    )
    rmax = max(inv.rank for inv in invs)
    if invs[win].rank != rmax:
        raise InternalConsistencyError("the dominant sample's rank is not the largest sampled rank")
    status = EMPIRICAL
    try:
        if certify_generic_repr(invs[win].signature, rho.dim_v, rho.algebra.dim, rmax):
            status = CERTIFIED
    except CertificateNotApplicableError:
        pass
    return RepJK(
        invariants=invs[win], genericity_status=status, samples_used=samples
    )
