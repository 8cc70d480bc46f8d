"""Folded invariants of skew-symmetric pencils: congruence roundtrips,
core/mantle dimensions, and the three-group block reduction."""

import random

import pytest

import penciljk.exactla as exactla
from penciljk.errors import (
    ConstantRankHypothesisError,
    InternalConsistencyError,
    RegularPointHypothesisError,
    SparsityPatternError,
)
from penciljk.exactla import row_space_basis
from penciljk.pencils import EigClass
from penciljk.skewjk import (
    SkewJK,
    core_subspace,
    jk_of_block_pencil,
    mantle_subspace,
    skew_jk_invariants,
)
from penciljk.strata import skew_abstract_signature

from helpers import (
    CLASS_POOL,
    SEED,
    congruent,
    pencil_from_lists,
    random_skew_jk,
    skew_canonical,
)
from oracles import dense_core


def test_fold_of_canonical_examples():
    jk = SkewJK(
        dim=8,
        kronecker=(2, 1),
        jordan=((EigClass((-1, 1)), (2,)), (EigClass.infinite(), (2,))),
    )
    p = skew_canonical(jk)
    assert skew_jk_invariants(p) == jk


def test_fold_roundtrip_random():
    rng = random.Random(SEED)
    for _ in range(12):
        jk = random_skew_jk(rng, max_dim=10)
        p = congruent(skew_canonical(jk), rng)
        assert skew_jk_invariants(p) == jk


def test_rejects_non_skew_input():
    p = pencil_from_lists([[1, 0], [0, 2]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        skew_jk_invariants(p)
    with pytest.raises(ValueError):
        core_subspace(p)


def test_skewjk_validation():
    with pytest.raises(InternalConsistencyError):
        SkewJK(dim=4, kronecker=(1, 2), jordan=())
    with pytest.raises(InternalConsistencyError):
        SkewJK(dim=3, kronecker=(), jordan=((EigClass((0, 1)), (3,)),))
    with pytest.raises(InternalConsistencyError):
        SkewJK(dim=5, kronecker=(2,), jordan=())
    t, t1, inf = EigClass((0, 1)), EigClass((1, 1)), EigClass.infinite()
    # each record below breaks one rule and keeps the dimension sum
    for dim, kronecker, jordan in (
        (6, (), ((t, (2, 4)),)),
        (4, (), ((inf, (2,)), (t, (2,)))),
        (4, (), ((t, (2,)), (t, (2,)))),
        (2, (), ((t, ()), (t1, (2,)))),
        (6, (2,), ((t, (3,)),)),
    ):
        with pytest.raises(InternalConsistencyError):
            SkewJK(dim=dim, kronecker=kronecker, jordan=jordan)
    SkewJK(dim=4, kronecker=(), jordan=((t, (2,)), (inf, (2,))))
    jk = SkewJK(dim=7, kronecker=(2,), jordan=((EigClass((-2, 0, 1)), (2,)),))
    assert jk.jordan_dimension() == 4
    assert skew_abstract_signature(jk).slots == ((2,), (2,))


def test_core_and_mantle_dimensions():
    # regular pencil: empty core, full mantle
    regular = skew_canonical(
        SkewJK(dim=2, kronecker=(), jordan=((EigClass((1, 1)), (2,)),))
    )
    assert core_subspace(regular) == []
    assert len(mantle_subspace(regular)) == 2

    # one index pair of each of the two smallest sizes
    kron = skew_canonical(SkewJK(dim=4, kronecker=(2, 1), jordan=()))
    assert len(core_subspace(kron)) == 3
    assert len(mantle_subspace(kron)) == 3

    mixed = SkewJK(
        dim=7,
        kronecker=(2,),
        jordan=((EigClass((0, 1)), (2,)), (EigClass.infinite(), (2,))),
    )
    p = skew_canonical(mixed)
    core = core_subspace(p)
    mantle = mantle_subspace(p)
    assert len(core) == sum(mixed.kronecker)
    assert len(mantle) - len(core) == mixed.jordan_dimension()


def test_core_and_mantle_are_congruence_invariant():
    rng = random.Random(SEED + 1)
    jk = SkewJK(dim=6, kronecker=(2, 1), jordan=((EigClass((2, 1)), (2,)),))
    for _ in range(3):
        p = congruent(skew_canonical(jk), rng)
        assert len(core_subspace(p)) == 3
        assert len(mantle_subspace(p)) == 5


def _core_case(rng, i):
    """Kronecker indices up to 4, dimension up to 14; every third case has
    eigenvalues at t = 0 and t = 1, the first integers the rank scan tries."""
    zero_one = [EigClass((0, 1)), EigClass((-1, 1))]
    while True:
        kron = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True))
        classes = zero_one if i % 3 == 0 else rng.sample(CLASS_POOL, rng.randint(0, 2))
        jordan = sorted(
            ((c, tuple(sorted((2 * rng.randint(1, 2) for _ in range(rng.randint(1, 2))), reverse=True)))
             for c in classes),
            key=lambda cs: cs[0].sort_key(),
        )
        dim = sum(2 * k - 1 for k in kron) + sum(c.root_count * sum(s) for c, s in jordan)
        if dim <= 14:
            return SkewJK(dim=dim, kronecker=kron, jordan=tuple(jordan))


def test_core_matches_dense_oracle():
    rng = random.Random(SEED + 2)
    for i in range(102):
        jk = _core_case(rng, i)
        p = congruent(skew_canonical(jk), rng, bound=3)
        core = core_subspace(p)
        dense = dense_core(p)
        assert len(core) == len(dense) == sum(jk.kronecker)
        # same span: neither adds anything to the other
        assert len(row_space_basis(core + dense, p.n)) == len(core)


def test_core_and_mantle_reuse_the_kernel_chain(monkeypatch):
    # widths 3 and 1 and a class at t = 1: once the invariants are known,
    # the core is the cached limit of the kernel chain and costs no
    # elimination, and the mantle's dimension costs one kernel view, whose
    # one elimination gives the count with no back-substitution; its
    # vectors are back-substituted only when read
    jk = SkewJK(dim=10, kronecker=(3, 1), jordan=((EigClass((-1, 1)), (2, 2)),))
    p = congruent(skew_canonical(jk), random.Random(SEED + 3))
    assert skew_jk_invariants(p) == jk
    eliminations, kernels, substituted = [], [], []
    real_echelon, real_view, real_back = (
        exactla._echelon,
        exactla.KernelView.__init__,
        exactla._back_substitute,
    )

    def echelon(rows, n):
        eliminations.append(n)
        return real_echelon(rows, n)

    def view(self, mat):
        kernels.append(mat.shape)
        real_view(self, mat)

    def back_substitute(rows, pivots, f, n):
        substituted.append(f)
        return real_back(rows, pivots, f, n)

    monkeypatch.setattr(exactla, "_echelon", echelon)
    monkeypatch.setattr(exactla.KernelView, "__init__", view)
    monkeypatch.setattr(exactla, "_back_substitute", back_substitute)
    core = core_subspace(p)
    assert len(core) == 4
    assert eliminations == []
    mantle = mantle_subspace(p)
    assert len(mantle) == 4 + 4
    assert kernels == [(4, 10)]
    assert eliminations == [10]
    assert substituted == []
    assert len(list(mantle)) == 8
    assert substituted == mantle.free and eliminations == [10]


def _block_example():
    # x = {0}, s = {1, 2}, y = {3, 4}
    # x-to-y coupling [1, t], s-to-s part (1 + t) * J
    a = [
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    b = [
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0],
    ]
    return a, b


def test_block_pencil_combines_both_parts():
    a, b = _block_example()
    jk = jk_of_block_pencil(pencil_from_lists(a, b), (1, 2, 2))
    assert jk == SkewJK(
        dim=5, kronecker=(2,), jordan=((EigClass((1, 1)), (2,)),)
    )


def test_block_pencil_sparsity_check():
    a, b = _block_example()
    a[3][4], a[4][3] = 1, -1
    with pytest.raises(SparsityPatternError):
        jk_of_block_pencil(pencil_from_lists(a, b), (1, 2, 2))
    a, b = _block_example()
    with pytest.raises(ValueError):
        jk_of_block_pencil(pencil_from_lists(a, b), (1, 2, 3))


def test_block_pencil_coupling_rank_check():
    # x-to-y coupling [1, 0] drops rank at infinity
    a, b = _block_example()
    b[0][4], b[4][0] = 0, 0
    with pytest.raises(ConstantRankHypothesisError):
        jk_of_block_pencil(pencil_from_lists(a, b), (1, 2, 2))

    # column coupling [t, 1]^T can never have full row rank
    a = [
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, -1, 0, 0],
    ]
    b = [
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [-1, 0, 0, 0],
    ]
    with pytest.raises(ConstantRankHypothesisError):
        jk_of_block_pencil(pencil_from_lists(a, b), (2, 1, 1))


def test_block_pencil_regular_point_check():
    a, b = _block_example()
    a[1][2] = a[2][1] = b[1][2] = b[2][1] = 0
    with pytest.raises(RegularPointHypothesisError):
        jk_of_block_pencil(pencil_from_lists(a, b), (1, 2, 2))
