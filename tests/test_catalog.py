"""Classical matrix algebras, their defining actions on several vector
copies, and the closed-form invariant tables."""

import pytest

from penciljk.catalog import (
    Family,
    _basis_matrices,
    _structure_entries,
    build_classical,
    expected_lie_jk,
    expected_rep_jk,
    parse_family,
)
from penciljk.errors import InternalConsistencyError
from penciljk.lie import Sampler, check_homomorphism, check_jacobi, jk_invariants_of_lie, jk_invariants_of_rep
from penciljk.semidirect import direct_sum, dual_representation, semidirect
from penciljk.strata import BundleSig, SkewBundleSig, abstract_signature, skew_abstract_signature

from helpers import hstack, identity, matmul, vstack, zeros
from oracles import pairwise_structure_entries


def test_family_validation_and_attributes():
    assert Family("gl", 3).dim == 9
    assert Family("sl", 3).dim == 8
    assert Family("so", 4).dim == 6
    assert Family("sp", 4).dim == 10
    assert Family("so", 4).epsilon == -1
    assert Family("sp", 4).epsilon == 1
    assert Family("gl", 2).label == "gl:2"
    with pytest.raises(ValueError):
        Family("su", 2)
    with pytest.raises(ValueError):
        Family("sp", 3)  # needs even n
    with pytest.raises(ValueError):
        Family("so", 1)
    with pytest.raises(ValueError):
        Family("gl", 0)
    with pytest.raises(ValueError):
        Family("gl", 2).epsilon


def test_parse_family():
    assert parse_family("sp:4") == Family("sp", 4)
    assert parse_family("gl:1") == Family("gl", 1)
    for bad in ("xx:3", "gl", "gl:", "gl:x", "sp:3"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_build_classical_structures():
    for fam in (
        Family("gl", 1),
        Family("gl", 2),
        Family("gl", 3),
        Family("sl", 2),
        Family("sl", 3),
        Family("so", 2),
        Family("so", 3),
        Family("so", 4),
        Family("sp", 2),
        Family("sp", 4),
    ):
        g, rho = build_classical(fam)
        assert g.dim == fam.dim
        assert rho.dim_v == fam.n
        assert check_jacobi(g) == []
        assert check_homomorphism(rho) == []


def test_structure_constants_match_the_per_pair_oracle():
    # one solve for all commutators against one solve per commutator
    families = [Family("gl", n) for n in (1, 2, 3, 4)]
    families += [Family(name, n) for name in ("sl", "so") for n in (2, 3, 4)]
    for fam in families + [Family("sp", 2), Family("sp", 4), Family("so", 5)]:
        mats = _basis_matrices(fam)
        assert _structure_entries(mats) == pairwise_structure_entries(mats), fam.label


def test_structure_constants_reject_a_dependent_basis():
    mats = _basis_matrices(Family("sl", 2))
    with pytest.raises(InternalConsistencyError, match="basis matrices are dependent"):
        _structure_entries(mats + [mats[0] + mats[1]])


def test_structure_constants_reject_a_basis_not_closed():
    # sl(3) without the root vector E_13: [E_12, E_23] = E_13 leaves the span
    mats = [m for m in _basis_matrices(Family("sl", 3)) if m.entry(0, 2) == 0]
    assert len(mats) == 7
    with pytest.raises(InternalConsistencyError, match="basis not closed under commutators"):
        _structure_entries(mats)


def test_matrix_shapes_of_the_families():
    _, so_rho = build_classical(Family("so", 4))
    for m in so_rho.mats:
        assert m.transpose() == m.scale(-1)
    _, sl_rho = build_classical(Family("sl", 3))
    for m in sl_rho.mats:
        assert sum(m.entry(i, i) for i in range(3)) == 0
    n = 4
    omega = vstack(
        [
            hstack([zeros(2, 2), identity(2)]),
            hstack([identity(2).scale(-1), zeros(2, 2)]),
        ]
    )
    _, sp_rho = build_classical(Family("sp", n))
    for m in sp_rho.mats:
        assert matmul(m.transpose(), omega) + matmul(omega, m) == zeros(n, n)


def test_rep_table_pinned_cells():
    assert expected_rep_jk(Family("gl", 3), 1) == BundleSig.make(
        3, 9, 3, (2, 2, 2, 1, 1, 1), (), ()
    )
    assert expected_rep_jk(Family("sl", 3), 5) == BundleSig.make(
        15, 8, 8, (), (3, 2, 2, 2, 2, 2, 2), ()
    )
    assert expected_rep_jk(Family("so", 4), 2) == BundleSig.make(
        8, 6, 5, (3,), (2, 2, 2), ()
    )
    assert expected_rep_jk(Family("sp", 4), 1) == BundleSig.make(
        4, 10, 4, (3, 2, 2, 1, 1, 1), (), ()
    )
    assert expected_rep_jk(Family("gl", 2), 2) == BundleSig.make(
        4, 4, 4, (), (), ((1, 1), (1, 1))
    )
    with pytest.raises(ValueError):
        expected_rep_jk(Family("gl", 2), 0)


def test_lie_table_pinned_cells():
    assert expected_lie_jk(Family("gl", 2), 3) == SkewBundleSig.make(10, (3, 3), ())
    assert expected_lie_jk(Family("sl", 2), 2) == SkewBundleSig.make(
        7, (2,), ((2,), (2,))
    )
    assert expected_lie_jk(Family("sl", 3), 3) == SkewBundleSig.make(
        17, (3,), ((2, 2), (2, 2), (2, 2))
    )
    assert expected_lie_jk(Family("so", 3), 1) == SkewBundleSig.make(6, (2, 2), ())
    assert expected_lie_jk(Family("so", 3), 2) == SkewBundleSig.make(9, (2, 2, 2), ())
    assert expected_lie_jk(Family("sp", 4), 5) == SkewBundleSig.make(
        30, (2,) * 10, ()
    )


def test_lie_table_unknown_cells():
    assert expected_lie_jk(Family("gl", 3), 2) is None
    assert expected_lie_jk(Family("gl", 5), 3) is None
    assert expected_lie_jk(Family("sl", 6), 4) is None
    assert expected_lie_jk(Family("gl", 4), 2) is not None


def test_small_cells_end_to_end():
    sampler = Sampler(11)
    fam = Family("gl", 2)
    _, rho = build_classical(fam)
    rep = jk_invariants_of_rep(dual_representation(rho), sampler, samples=5)
    assert abstract_signature(rep.invariants) == expected_rep_jk(fam, 1)

    so3 = Family("so", 3)
    _, rho3 = build_classical(so3)
    q = semidirect(rho3)
    lie = jk_invariants_of_lie(q, sampler, samples=5)
    assert skew_abstract_signature(lie.invariants) == expected_lie_jk(so3, 1)

    sl2 = Family("sl", 2)
    _, rho2 = build_classical(sl2)
    q2 = semidirect(direct_sum(rho2, 2))
    lie2 = jk_invariants_of_lie(q2, sampler, samples=5)
    assert skew_abstract_signature(lie2.invariants) == expected_lie_jk(sl2, 2)
