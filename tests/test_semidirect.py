"""Semi-direct sums with an abelian part and the dual-representation
prediction for their generic invariants."""

import ast
import os
import random
import types
from fractions import Fraction

import pytest

from penciljk.catalog import Family, build_classical
from penciljk.exactla import Mat
from penciljk.lie import (
    CERTIFIED,
    LieAlgebra,
    RepJK,
    Representation,
    Sampler,
    check_homomorphism,
    check_jacobi,
    lie_poisson_matrix,
    rep_operator,
)
from penciljk.pencils import EigClass, StrictInvariants
from penciljk.semidirect import (
    MATCH,
    NOT_APPLICABLE,
    check_dual_theorem,
    direct_sum,
    dual_representation,
    predict_semidirect_jk,
    semidirect,
    verify_block_structure,
)

from helpers import SEED, matmul, pair_pool
from oracles import (
    dense_contraction,
    dense_poisson_matrix,
    fraction_adjoint,
    fraction_semidirect_entries,
    inverse,
)


def sl2_standard():
    return build_classical(Family("sl", 2))


def test_semidirect_names_the_module():
    # the package does not re-export the function under the module's name
    import penciljk.semidirect as module

    assert isinstance(module, types.ModuleType)
    assert module.semidirect is semidirect


def test_dual_representation_negates_transposes():
    g, rho = sl2_standard()
    dual = dual_representation(rho)
    for m, d in zip(rho.mats, dual.mats):
        assert d == m.transpose().scale(-1)
    assert dual_representation(dual).mats == rho.mats


def test_direct_sum_blocks():
    g, rho = sl2_standard()
    double = direct_sum(rho, 2)
    assert double.dim_v == 4
    assert double.mats[0] == Mat.block_diag([rho.mats[0], rho.mats[0]])
    with pytest.raises(ValueError):
        direct_sum(rho, 0)


def test_semidirect_structure():
    g, rho = sl2_standard()
    q = semidirect(rho)
    assert q.dim == 5
    assert check_jacobi(q) == []
    # the brackets of g, the action, and an abelian part: ad(xi) is
    # block diagonal and ad(v) maps into V
    for i in range(3):
        assert q.ad[i] == Mat.block_diag([g.ad[i], rho.mats[i]])
    for b in range(2):
        v_part = q.ad[3 + b].submatrix(range(3, 5), range(5))
        assert q.ad[3 + b].submatrix(range(3), range(5)).is_zero()
        assert v_part.submatrix(range(2), range(3, 5)).is_zero()
        for j in range(3):
            # [v_b, e_j] = -rho(e_j) v_b
            assert v_part.col(j) == tuple(-c for c in rho.mats[j].col(b))


def _catalog_verify_cells() -> list[tuple[str, int, int]]:
    """The distinct ``semidirect --verify-dual`` cells (family, n, copies)
    of the benchmark's lie-catalog workload, read from the literal
    ``VERIFY_CELLS`` in ``bench/workloads.py`` without running it."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    node = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "VERIFY_CELLS" for t in n.targets)
    )
    return sorted(set(ast.literal_eval(node.value)))


def _rational_sl2_pair() -> Representation:
    """sl(2) on two copies of its standard representation, with the basis
    of sl(2) rescaled by 1/2, 3, 1 and V's by a rational diagonal matrix,
    so that brackets and operators hold p/q entries."""
    g, rho = sl2_standard()
    scale = (Fraction(1, 2), Fraction(3), Fraction(1))
    entries = [(i, j, k, c * scale[i] * scale[j] / scale[k]) for i, j, k, c in g.entries()]
    d = Mat.block_diag([Mat([[1, 0], [0, Fraction(2, 3)]]), Mat([[3, 0], [0, Fraction(1, 5)]])])
    mats = tuple(
        matmul(d, m, inverse(d)).scale(s) for m, s in zip(direct_sum(rho, 2).mats, scale)
    )
    return Representation(LieAlgebra(3, entries), 4, mats)


def test_semidirect_matches_dense_oracles_on_catalog_cells():
    # the brackets read off the operators' integer rows are those read off
    # their columns as Fractions, and the sparse Poisson matrix of q and
    # contraction operator of the dual representation equal the dense
    # contractions, on every verify-dual cell of the benchmark and on a
    # pair with p/q brackets and operator entries
    cells = _catalog_verify_cells()
    assert len(cells) >= 10
    pairs = [direct_sum(build_classical(Family(fam, n))[1], m) for fam, n, m in cells]
    rational = _rational_sl2_pair()
    assert check_jacobi(rational.algebra) == [] and check_homomorphism(rational) == []
    assert any(m.den > 1 for m in rational.mats) and rational.algebra.den > 1
    rng = random.Random(SEED + 4)
    for rho in pairs + [rational]:
        q = semidirect(rho)
        entries = fraction_semidirect_entries(rho)
        assert q.entries() == entries
        ad = fraction_adjoint(q.dim, entries)
        assert list(q.ad) == ad
        dual = dual_representation(rho)
        for _ in range(2):
            x = tuple(rng.randint(-101, 101) for _ in range(q.dim))
            assert lie_poisson_matrix(q, x) == dense_poisson_matrix(ad, x)
            a = x[rho.algebra.dim :]
            assert rep_operator(dual, a) == dense_contraction(dual.mats, a)


def test_block_structure_at_sample_points():
    sampler = Sampler(SEED)
    for name, g, rho in pair_pool():
        q = semidirect(rho)
        x = sampler.covector(g.dim)
        a = sampler.covector(rho.dim_v)
        assert verify_block_structure(q, rho, x, a), name


def test_block_structure_detects_wrong_coupling():
    g, rho = sl2_standard()
    q = semidirect(rho)
    sampler = Sampler(SEED)
    x = sampler.covector(3)
    a = sampler.covector(2)
    assert verify_block_structure(q, rho, x, a)
    assert not verify_block_structure(q, dual_representation(rho), x, a)


def test_prediction_from_dual_invariants():
    inv = StrictInvariants(
        m=5,
        n=4,
        rank=4,
        horizontal=(),
        vertical=(2,),
        jordan=((EigClass((-1, 1)), (2, 1)),),
    )
    report = RepJK(invariants=inv, genericity_status=CERTIFIED, samples_used=1)
    assert predict_semidirect_jk(report) == ((2,), (3,))

    wide = StrictInvariants(
        m=2, n=3, rank=2, horizontal=(3,), vertical=(), jordan=()
    )
    report2 = RepJK(invariants=wide, genericity_status=CERTIFIED, samples_used=1)
    assert predict_semidirect_jk(report2) is None

    paired = StrictInvariants(
        m=3,
        n=2,
        rank=2,
        horizontal=(),
        vertical=(1,),
        jordan=((EigClass((-2, 0, 1)), (1,)),),
    )
    report3 = RepJK(invariants=paired, genericity_status=CERTIFIED, samples_used=1)
    assert predict_semidirect_jk(report3) == ((1,), (1, 1))


def test_dual_theorem_match_on_doubled_sl2():
    pool = {name: (g, rho) for name, g, rho in pair_pool()}
    _, rho = pool["sl2 twice"]
    report = check_dual_theorem(rho, Sampler(SEED), samples=10)
    assert report.verdict == MATCH
    assert report.predicted_kronecker == report.computed_kronecker
    assert report.jordan_totals_predicted == report.jordan_totals_computed


def test_dual_theorem_not_applicable_for_rotations():
    pool = {name: (g, rho) for name, g, rho in pair_pool()}
    _, rho = pool["rotations3"]
    report = check_dual_theorem(rho, Sampler(SEED), samples=10)
    assert report.verdict == NOT_APPLICABLE
    assert report.predicted_kronecker is None
    # the semi-direct sum still has honest sampled invariants
    assert report.computed_kronecker == (2, 2)
    assert report.lie.index_used == 2
