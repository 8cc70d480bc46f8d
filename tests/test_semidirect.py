"""Semi-direct sums with an abelian part and the dual-representation
prediction for their generic invariants."""

import pytest

from penciljk.catalog import Family, build_classical
from penciljk.errors import HomomorphismError, JacobiError
from penciljk.exactla import Mat
from penciljk.lie import (
    CERTIFIED,
    LieAlgebra,
    RepJK,
    Representation,
    Sampler,
    check_jacobi,
)
from penciljk.pencils import EigClass, StrictInvariants
from penciljk.polys import Poly
from penciljk.semidirect import (
    MATCH,
    NOT_APPLICABLE,
    SemidirectSum,
    check_dual_theorem,
    direct_sum,
    dual_representation,
    predict_semidirect_jk,
    semidirect,
    verify_block_structure,
)

from helpers import SEED, _sl2, pair_pool


def P(*coeffs):
    return Poly(coeffs)


def sl2_standard():
    return build_classical(Family("sl", 2))


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
    sd = semidirect(g, rho)
    assert sd.q.dim == 5
    assert check_jacobi(sd.q) == []
    # abelian part and the action embedded in the brackets
    v = (0, 0, 0, 1, 0)
    w = (0, 0, 0, 0, 1)
    assert sd.q.bracket(v, w) == (0, 0, 0, 0, 0)
    xi = (1, 0, 0, 0, 0)
    acted = sd.q.bracket(xi, v)
    assert acted[:3] == (0, 0, 0)
    assert acted[3:] == tuple(rho.mats[0].col(0))


def test_semidirect_rejects_foreign_representation():
    g, rho = sl2_standard()
    other = _sl2()
    other_rho = Representation(other, 2, rho.mats)
    # same table: accepted even though the object differs
    assert semidirect(other, other_rho).q.dim == 5
    abelian = Representation(
        LieAlgebra(3, []), 2, (Mat.zeros(2, 2), Mat.zeros(2, 2), Mat.zeros(2, 2))
    )
    with pytest.raises(ValueError):
        semidirect(g, abelian)


def test_semidirect_rejects_broken_action():
    g, rho = sl2_standard()
    tampered = Representation(
        g, 2, (rho.mats[0] + Mat([[0, 0], [1, 0]]),) + rho.mats[1:]
    )
    with pytest.raises(HomomorphismError):
        semidirect(g, tampered)


def test_semidirect_rejects_broken_algebra():
    # [e0, e1] = e0 and [e0, e2] = e1 fail Jacobi; the zero action is
    # still a homomorphism, so only the Jacobi check can reject it
    broken = LieAlgebra(3, [(0, 1, 0, 1), (0, 2, 1, 1)])
    zero = Representation(broken, 1, (Mat.zeros(1, 1),) * 3)
    with pytest.raises(JacobiError):
        semidirect(broken, zero)


def test_block_structure_at_sample_points():
    sampler = Sampler(SEED)
    for name, g, rho in pair_pool():
        sd = semidirect(g, rho)
        x = sampler.covector(g.dim)
        a = sampler.covector(rho.dim_v)
        assert verify_block_structure(sd, x, a), name


def test_block_structure_detects_wrong_coupling():
    g, rho = sl2_standard()
    wrong = SemidirectSum(g=g, rho=dual_representation(rho), q=semidirect(g, rho).q)
    sampler = Sampler(SEED)
    x = sampler.covector(3)
    a = sampler.covector(2)
    assert not verify_block_structure(wrong, x, a)


def test_prediction_from_dual_invariants():
    inv = StrictInvariants(
        m=5,
        n=4,
        rank=4,
        horizontal=(),
        vertical=(2,),
        jordan=((EigClass(P(-1, 1)), (2, 1)),),
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
        jordan=((EigClass(P(-2, 0, 1)), (1,)),),
    )
    report3 = RepJK(invariants=paired, genericity_status=CERTIFIED, samples_used=1)
    assert predict_semidirect_jk(report3) == ((1,), (1, 1))


def test_dual_theorem_match_on_doubled_sl2():
    pool = {name: (g, rho) for name, g, rho in pair_pool()}
    g, rho = pool["sl2 twice"]
    report = check_dual_theorem(g, rho, Sampler(SEED), samples=10)
    assert report.verdict == MATCH
    assert report.predicted_kronecker == report.computed_kronecker
    assert report.jordan_totals_predicted == report.jordan_totals_computed


def test_dual_theorem_not_applicable_for_rotations():
    pool = {name: (g, rho) for name, g, rho in pair_pool()}
    g, rho = pool["rotations3"]
    report = check_dual_theorem(g, rho, Sampler(SEED), samples=10)
    assert report.verdict == NOT_APPLICABLE
    assert report.predicted_kronecker is None
    # the semi-direct sum still has honest sampled invariants
    assert report.computed_kronecker == (2, 2)
    assert report.lie.index_used == 2
