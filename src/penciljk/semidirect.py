"""Semi-direct sums q = g acting on an abelian ideal V, and the relation
between invariants of q and invariants of the dual representation.

The Poisson matrix of q at a point (x, a) splits into blocks: the g-part
at x, a coupling given by the contraction operator of the dual
representation at a, and a zero V-corner.  That block shape makes the
Kronecker part of q computable from the dual representation alone, and
constrains its Jordan part to doubled totals.

This is the second of the paper's two techniques.  ``semidirect``
returns q as a plain ``LieAlgebra`` whose basis is that of g followed by
that of V.  ``verify_block_structure(q, rho, x, a)`` checks the block
shape the technique rests on, at a given point, so it is part of the API
and not a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

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
    """The contragredient action: each operator becomes its negative transpose,
    read column by column off its integer rows over the same denominator.

    Nothing is checked here: when rho is a homomorphism, so is its dual,
    since -[X, Y]^T = [-X^T, -Y^T] and transposition is linear.
    """
    mats = tuple(
        Mat.from_ints([[-x for x in col] for col in zip(*m.rows)], m.m, m.den)
        for m in rho.mats
    )
    return Representation(rho.algebra, rho.dim_v, mats)


def direct_sum(rho: Representation, copies: int) -> Representation:
    """Block-diagonal sum of ``copies`` copies of the representation."""
    if copies < 1:
        raise ValueError("at least one copy is required")
    mats = tuple(Mat.block_diag([m] * copies) for m in rho.mats)
    return Representation(rho.algebra, rho.dim_v * copies, mats)


def semidirect(rho: Representation) -> LieAlgebra:
    """The semi-direct sum q of g = rho.algebra and the abelian ideal V.

    Its basis is that of g followed by that of V.  Its brackets are those
    of g, [xi, v] = rho(xi) v and [v, w] = 0.  Precondition: g satisfies
    the Jacobi identity and rho is a homomorphism.  Then every Jacobi
    triple of g + V that involves V holds as well, and q is a Lie algebra.
    Nothing is checked here; the command line checks both inputs once,
    when it loads them.
    """
    g = rho.algebra
    n = g.dim
    r = rho._den
    den = lcm(g.den, r)
    brackets = [(i, j, k, den // g.den * c) for i, j, k, c in g.brackets]
    # [e_i, v_b] = rho(e_i) v_b, whose coordinate on v_a is entry (a, b)
    # of rho(e_i), the integer c over r of each nonzero entry
    brackets += [(i, n + b, n + a, den // r * c) for a, i, b, c in rho._terms]
    return LieAlgebra.from_ints(n + rho.dim_v, brackets, den)


def verify_block_structure(q: LieAlgebra, rho: Representation, x, a) -> bool:
    """Entrywise check of the Poisson matrix block shape at (x, a).

    The Poisson matrix of q = ``semidirect(rho)`` at (x, a) must equal
    [[P_x, L^T], [-L, 0]], with P_x the Poisson matrix of rho.algebra at
    x and L the negated contraction operator of the dual representation
    at a.  Each block is compared where it lies.
    """
    n = rho.algebra.dim
    full = lie_poisson_matrix(q, tuple(x) + tuple(a))
    g_idx, v_idx = range(n), range(n, q.dim)
    coupling = -rep_operator(dual_representation(rho), a)
    return (
        full.submatrix(g_idx, g_idx) == lie_poisson_matrix(rho.algebra, x)
        and full.submatrix(g_idx, v_idx) == coupling.transpose()
        and full.submatrix(v_idx, g_idx) == -coupling
        and full.submatrix(v_idx, v_idx).is_zero()
    )


def _slot_totals(sig) -> tuple[int, ...]:
    """The sum of the sizes in each slot of a signature, descending."""
    return tuple(sorted(map(sum, sig.slots), reverse=True))


def predict_semidirect_jk(jk_dual: RepJK):
    """Invariants of the semi-direct sum predicted from the dual representation.

    Returns (kronecker indices, per-slot Jordan totals), or None when the
    dual invariants contain horizontal indices, which the prediction does
    not cover.  Slot totals are anonymous: one total per eigenvalue root.
    """
    inv = jk_dual.invariants
    if inv.horizontal:
        return None
    return inv.vertical, _slot_totals(inv.signature)


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
    jk_dual = jk_invariants_of_rep(dual_representation(rho), sampler, samples)
    jk_lie = jk_invariants_of_lie(semidirect(rho), sampler, samples)
    computed_kron = jk_lie.invariants.kronecker
    computed_totals = tuple(
        t // 2 for t in _slot_totals(jk_lie.invariants.signature)
    )
    prediction = predict_semidirect_jk(jk_dual)
    predicted_kron, predicted_totals = prediction or (None, None)
    if prediction is None:
        verdict = NOT_APPLICABLE
    elif (predicted_kron, predicted_totals) == (computed_kron, computed_totals):
        verdict = MATCH
    else:
        verdict = MISMATCH
    return DualTheoremReport(
        dual=jk_dual,
        lie=jk_lie,
        predicted_kronecker=predicted_kron,
        computed_kronecker=computed_kron,
        jordan_totals_predicted=predicted_totals,
        jordan_totals_computed=computed_totals,
        verdict=verdict,
    )
