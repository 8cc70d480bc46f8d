"""Semi-direct sums q = g acting on an abelian ideal V, and the relation
between invariants of q and invariants of the dual representation.

The Poisson matrix of q at a point (x, a) splits into blocks: the g-part
at x, a coupling given by the contraction operator of the dual
representation at a, and a zero V-corner.  That block shape makes the
Kronecker part of q computable from the dual representation alone, and
constrains its Jordan part to doubled totals.

This is the second of the paper's two techniques.
``verify_block_structure`` checks the block shape it rests on, at a
given point, so it is part of the API and not a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import Mat
from .lie import (
    LieAlgebra,
    RepJK,
    Representation,
    Sampler,
    SkewJKReport,
    jk_invariants_of_lie,
    jk_invariants_of_rep,
    lie_poisson_matrix,
    rep_operator,
)

MATCH = "match"
MISMATCH = "mismatch"
NOT_APPLICABLE = "not-applicable"


def dual_representation(rho: Representation) -> Representation:
    """The contragredient action: each operator becomes its negative transpose.

    Nothing is checked here: when rho is a homomorphism, so is its dual,
    since -[X, Y]^T = [-X^T, -Y^T] and transposition is linear.
    """
    return Representation(
        rho.algebra, rho.dim_v, tuple(m.transpose().scale(-1) for m in rho.mats)
    )


def direct_sum(rho: Representation, copies: int) -> Representation:
    """Block-diagonal sum of ``copies`` copies of the representation."""
    if copies < 1:
        raise ValueError("at least one copy is required")
    mats = tuple(Mat.block_diag([m] * copies) for m in rho.mats)
    return Representation(rho.algebra, rho.dim_v * copies, mats)


@dataclass(frozen=True)
class SemidirectSum:
    g: LieAlgebra
    rho: Representation
    q: LieAlgebra


def semidirect(rho: Representation) -> SemidirectSum:
    """The semi-direct sum of g = rho.algebra and the abelian ideal V.

    Its brackets are those of g, [xi, v] = rho(xi) v and [v, w] = 0.
    Precondition: g satisfies the Jacobi identity and rho is a
    homomorphism.  Then every Jacobi triple of g + V that involves V holds
    as well, and q is a Lie algebra.  Nothing is checked here; the command
    line checks both inputs once, when it loads them.
    """
    g = rho.algebra
    n = g.dim
    entries = g.entries()
    for i in range(n):
        for b in range(rho.dim_v):
            col = rho.mats[i].col(b)
            for a, c in enumerate(col):
                if c:
                    entries.append((i, n + b, n + a, c))
    q = LieAlgebra(n + rho.dim_v, entries)
    return SemidirectSum(g=g, rho=rho, q=q)


def verify_block_structure(sd: SemidirectSum, x, a) -> bool:
    """Entrywise check of the Poisson matrix block shape at (x, a).

    The q-Poisson matrix at (x, a) must equal
    [[P_x, L^T], [-L, 0]] with L the negated contraction operator of the
    dual representation at a.
    """
    full = lie_poisson_matrix(sd.q, tuple(x) + tuple(a))
    top = lie_poisson_matrix(sd.g, x)
    coupling = rep_operator(dual_representation(sd.rho), a).scale(-1)
    expected = Mat.vstack(
        [
            Mat.hstack([top, coupling.transpose()]),
            Mat.hstack([coupling.scale(-1), Mat.zeros(sd.rho.dim_v, sd.rho.dim_v)]),
        ]
    )
    return full == expected


def predict_semidirect_jk(jk_dual: RepJK):
    """Invariants of the semi-direct sum predicted from the dual representation.

    Returns (kronecker indices, per-slot Jordan totals), or None when the
    dual invariants contain horizontal indices, which the prediction does
    not cover.  Slot totals are anonymous: one total per eigenvalue root.
    """
    inv = jk_dual.invariants
    if inv.horizontal:
        return None
    totals = []
    for cls, sizes in inv.jordan:
        totals.extend([sum(sizes)] * cls.root_count)
    return inv.vertical, tuple(sorted(totals, reverse=True))


@dataclass(frozen=True)
class DualTheoremReport:
    dual: RepJK
    lie: SkewJKReport
    predicted_kronecker: tuple[int, ...] | None
    computed_kronecker: tuple[int, ...]
    jordan_totals_predicted: tuple[int, ...] | None
    jordan_totals_computed: tuple[int, ...]
    verdict: str


def check_dual_theorem(
    rho: Representation, sampler: Sampler, samples: int = 25
) -> DualTheoremReport:
    """Compare sampled invariants of q = rho.algebra + V with the
    dual-representation prediction.

    Kronecker multisets must agree exactly.  Jordan slots are matched by
    sorted totals only: the sum of sizes in each computed slot, halved,
    against the predicted slot total.  Eigenvalue values are never
    compared; the correspondence relabels them.  The precondition is that
    of ``semidirect``: rho.algebra satisfies Jacobi and rho is a
    homomorphism, as the command line checks when it loads its inputs.
    """
    q = semidirect(rho).q
    jk_dual = jk_invariants_of_rep(dual_representation(rho), sampler, samples)
    jk_lie = jk_invariants_of_lie(q, sampler, samples)
    computed_kron = jk_lie.invariants.kronecker
    computed_totals = tuple(
        t // 2 for t in jk_lie.invariants.slot_totals()
    )
    prediction = predict_semidirect_jk(jk_dual)
    if prediction is None:
        return DualTheoremReport(
            dual=jk_dual,
            lie=jk_lie,
            predicted_kronecker=None,
            computed_kronecker=computed_kron,
            jordan_totals_predicted=None,
            jordan_totals_computed=computed_totals,
            verdict=NOT_APPLICABLE,
        )
    predicted_kron, predicted_totals = prediction
    ok = predicted_kron == computed_kron and predicted_totals == computed_totals
    return DualTheoremReport(
        dual=jk_dual,
        lie=jk_lie,
        predicted_kronecker=predicted_kron,
        computed_kronecker=computed_kron,
        jordan_totals_predicted=predicted_totals,
        jordan_totals_computed=computed_totals,
        verdict=MATCH if ok else MISMATCH,
    )
