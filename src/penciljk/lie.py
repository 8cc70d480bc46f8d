"""Lie algebras, linear representations, and their sampled invariants.

An algebra is a structure-constant tensor; a representation is one
operator per basis element.  Both give rise to matrix pencils: the pair
of Poisson matrices at two sampled covectors, or the pair of contraction
operators at two sampled vectors.  Invariants of a generic pair are
estimated by sampling integer points and keeping the signature that
dominates all others under bundle closure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CertificateNotApplicableError,
    DominanceSelectionError,
    InternalConsistencyError,
)
from .exactla import Mat, Vec, _frac, rank
from .pencils import Pencil, StrictInvariants, pencil_rank, strict_invariants
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
# structures


class LieAlgebra:
    """Structure constants c^k_{ij} on a fixed basis, antisymmetric in i, j."""

    def __init__(self, dim: int, entries, labels=None):
        """entries: iterable of (i, j, k, coefficient) with 0 <= i < j < dim."""
        self.dim = dim
        table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in entries:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError("bracket entry out of range or not upper (i < j)")
            c = _frac(c)
            table[i][j][k] += c
            table[j][i][k] -= c
        self.table = tuple(
            tuple(tuple(row) for row in plane) for plane in table
        )
        self.labels = tuple(labels) if labels else None

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.table[i][j]

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out = [Fraction(0)] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] += ui * vj * c
        return tuple(out)

    def entries(self):
        """The sparse (i, j, k, c) list with i < j, sorted."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out.append((i, j, k, c))
        return out


def check_jacobi(g: LieAlgebra):
    """All basis triples (i, j, k) violating the Jacobi identity."""
    bad = []
    n = g.dim
    basis = [tuple(Fraction(int(i == t)) for t in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = g.bracket_basis(a, b)
                    outer = g.bracket(inner, basis[c])
                    for t in range(n):
                        acc[t] += outer[t]
                if any(acc):
                    bad.append((i, j, k))
    return bad


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

    def operator(self, xi: Vec) -> Mat:
        out = Mat.zeros(self.dim_v, self.dim_v)
        for i, c in enumerate(xi):
            if c:
                out = out + self.mats[i].scale(c)
        return out


def check_homomorphism(rho: Representation):
    """All basis pairs (i, j) where the bracket is not matched."""
    bad = []
    g = rho.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = rho.operator(g.bracket_basis(i, j))
            rhs = rho.mats[i] * rho.mats[j] - rho.mats[j] * rho.mats[i]
            if lhs != rhs:
                bad.append((i, j))
    return bad


# ---------------------------------------------------------------------------
# pencils from structures


def lie_poisson_matrix(g: LieAlgebra, x) -> Mat:
    """The skew matrix pairing x with brackets: entry (i, j) = <x, [e_i, e_j]>."""
    x = tuple(_frac(c) for c in x)
    if len(x) != g.dim:
        raise ValueError("covector length must match the algebra dimension")
    rows = []
    for i in range(g.dim):
        row = []
        for j in range(g.dim):
            row.append(sum((c * x[k] for k, c in enumerate(g.table[i][j]) if c), Fraction(0)))
        rows.append(row)
    return Mat(rows, n=g.dim)


def rep_operator(rho: Representation, x) -> Mat:
    """The dimV x dim matrix whose i-th column is the i-th operator applied to x."""
    x = tuple(_frac(c) for c in x)
    if len(x) != rho.dim_v:
        raise ValueError("vector length must match the space dimension")
    cols = [m.apply(x) for m in rho.mats]
    return Mat.from_cols(cols, rho.dim_v)


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

    def covector(self, length: int) -> Vec:
        return tuple(
            Fraction(self._rng.randint(-self.height, self.height))
            for _ in range(length)
        )


def lie_index(g: LieAlgebra, sampler: Sampler, samples: int = 25) -> int:
    """Minimal corank of the Poisson matrix over sampled covectors."""
    if samples < 1:
        raise ValueError("at least one sample is required")
    best = g.dim
    for _ in range(samples):
        x = sampler.covector(g.dim)
        best = min(best, g.dim - rank(lie_poisson_matrix(g, x)))
        if best == 0:
            break
    return best


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
    coranks: list[int] = []
    for _ in range(samples):
        x = sampler.covector(g.dim)
        a = sampler.covector(g.dim)
        p = lie_pencil(g, x, a)
        folded.append(skew_jk_invariants(p))
        coranks.append(g.dim - pencil_rank(p))
    sigs = [skew_abstract_signature(jk) for jk in folded]
    win = _select_maximal(sigs, skew_bundle_closure_contains)
    index_used = min(coranks)
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
