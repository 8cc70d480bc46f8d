"""Lie algebra structure checks, Poisson pencils, and sampled invariants."""

import random
from fractions import Fraction

import pytest

from penciljk.catalog import Family, build_classical, expected_rep_jk
from penciljk.errors import InternalConsistencyError
from penciljk.exactla import Mat
from penciljk.lie import (
    CERTIFIED,
    LieAlgebra,
    Representation,
    Sampler,
    SkewJKReport,
    check_homomorphism,
    check_jacobi,
    jk_invariants_of_lie,
    jk_invariants_of_rep,
    lie_pencil,
    lie_poisson_matrix,
    rep_operator,
)
from penciljk.semidirect import direct_sum, dual_representation, semidirect
from penciljk.skewjk import SkewJK
from penciljk.strata import abstract_signature

from helpers import (
    SEED,
    _sl2,
    change_basis,
    identity,
    lie_index,
    matmul,
    random_invertible,
    zeros,
)
from oracles import (
    cyclic_jacobi,
    dense_contraction,
    dense_poisson_matrix,
    eval_rank,
    fraction_adjoint,
)


def euclidean2():
    # rotation and two translations of the plane
    return LieAlgebra(3, [(0, 1, 2, 1), (0, 2, 1, -1)])


def heisenberg():
    return LieAlgebra(3, [(0, 1, 2, 1)])


def test_constructor_and_bracket():
    g = _sl2()
    e, f, h = range(3)
    # column j of ad[i] is [e_i, e_j]
    assert g.ad[e].col(f) == (0, 0, 1)
    assert g.ad[f].col(e) == (0, 0, -1)
    assert g.ad[h].col(e) == (2, 0, 0)
    assert g.ad[e] == Mat([[0, 0, -2], [0, 0, 0], [0, 1, 0]])
    assert g.entries() == [(0, 1, 2, 1), (0, 2, 0, -2), (1, 2, 1, 2)]
    with pytest.raises(ValueError):
        LieAlgebra(3, [(1, 1, 2, 1)])  # needs i < j
    with pytest.raises(ValueError):
        LieAlgebra(3, [(0, 1, 3, 1)])  # target out of range


def test_check_jacobi():
    assert check_jacobi(_sl2()) == []
    assert check_jacobi(euclidean2()) == []
    broken = LieAlgebra(3, [(0, 1, 0, 1), (0, 2, 1, 1)])
    assert (0, 1, 2) in check_jacobi(broken)


def _random_entries(rng, dim):
    """A sparse list of rational structure constants, duplicates allowed."""
    out = []
    for _ in range(rng.randint(0, dim + 2)):
        i, j = sorted(rng.sample(range(dim), 2))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        out.append((i, j, rng.randrange(dim), c))
    return out


def _catalog_structures():
    """Every classical family up to n = 4 with one to three copies of its
    defining action and the duals of those: yields the algebras, their
    semi-direct sums with each representation, and the representations."""
    for name, sizes in (("gl", (1, 2, 3, 4)), ("sl", (2, 3, 4)), ("so", (2, 3, 4)), ("sp", (2, 4))):
        for n in sizes:
            g, rho = build_classical(Family(name, n))
            algebras, reps = [g], []
            for m in (1, 2, 3):
                copies = direct_sum(rho, m)
                reps += [copies, dual_representation(copies)]
            algebras += [semidirect(r) for r in reps]
            yield f"{name}:{n}", algebras, reps


def _perturbed(rng, values, slots):
    """Copies of the coefficients ``values``, (slot, coefficient) pairs over
    ``slots``: one with a nonzero coefficient changed, which may cancel it,
    and one with a zero coefficient set, unless no slot holds zero."""
    present = dict(values)
    changed = dict(present)
    changed[rng.choice(sorted(present))] += Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    out = [changed]
    empty = [slot for slot in slots if slot not in present]
    if empty:
        added = dict(present)
        added[rng.choice(empty)] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        out.append(added)
    return out


def test_check_jacobi_matches_cyclic_sum_oracle():
    rng = random.Random(SEED)
    broken = 0
    for _ in range(300):
        dim = rng.randint(2, 5)
        entries = _random_entries(rng, dim)
        expected = cyclic_jacobi(dim, entries)
        assert check_jacobi(LieAlgebra(dim, entries)) == expected, entries
        broken += bool(expected)
    # both verdicts occur, so the comparison is not vacuous either way
    assert 50 < broken < 250
    # classical algebras and their semi-direct sums, one coefficient changed
    rng = random.Random(SEED + 6)
    broken = compared = 0
    for label, algebras, _ in _catalog_structures():
        for g in algebras:
            assert check_jacobi(g) == [], label
            if not g.brackets:
                continue
            slots = [(i, j, k) for i in range(g.dim) for j in range(i + 1, g.dim) for k in range(g.dim)]
            for coeffs in _perturbed(rng, [((i, j, k), c) for i, j, k, c in g.entries()], slots):
                entries = [(*key, c) for key, c in coeffs.items()]
                expected = cyclic_jacobi(g.dim, entries)
                assert check_jacobi(LieAlgebra(g.dim, entries)) == expected, (label, g.dim)
                broken += bool(expected)
                compared += 1
    assert 0 < broken < compared


def test_change_basis_keeps_jacobi_and_index():
    rng = random.Random(SEED)
    sampler = Sampler(SEED)
    g = euclidean2()
    s = Mat(random_invertible(rng, 3).rows)
    # the zero representation on a line carries the algebra along
    zero = Representation(g, 1, (zeros(1, 1),) * 3)
    moved, _ = change_basis(g, zero, s, identity(1))
    assert check_jacobi(moved) == []
    assert lie_index(moved, sampler) == lie_index(g, Sampler(SEED))


def _unmatched_pairs(rho: Representation) -> list[tuple[int, int]]:
    """Pairs i < j with rho([e_i, e_j]) != [rho(e_i), rho(e_j)], from dense
    products over Q."""
    g, mats = rho.algebra, rho.mats
    bracket = {}
    for i, j, k, c in g.entries():
        bracket[i, j] = bracket.get((i, j), zeros(rho.dim_v, rho.dim_v)) + mats[k].scale(c)
    return [
        (i, j)
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
        if bracket.get((i, j), zeros(rho.dim_v, rho.dim_v))
        != matmul(mats[i], mats[j]) - matmul(mats[j], mats[i])
    ]


def test_check_homomorphism():
    g, rho = build_classical(Family("sl", 2))
    assert check_homomorphism(rho) == []
    tampered = Representation(
        g, 2, (rho.mats[0] + Mat([[0, 0], [1, 0]]),) + rho.mats[1:]
    )
    assert check_homomorphism(tampered) != []
    # classical operators are almost all zeros; one entry changed, zero or
    # not, breaks the pairs the dense products say it breaks
    rng = random.Random(SEED + 5)
    g, rho = build_classical(Family("sp", 4))
    assert check_homomorphism(rho) == _unmatched_pairs(rho) == []
    zero_entries = sum(not x for m in rho.mats for r in m.rows for x in r)
    assert zero_entries > 3 * sum(bool(x) for m in rho.mats for r in m.rows for x in r)
    for _ in range(20):
        k, a, b = rng.randrange(g.dim), rng.randrange(rho.dim_v), rng.randrange(rho.dim_v)
        rows = [list(r) for r in rho.mats[k].tolist()]
        rows[a][b] += Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        mats = rho.mats[:k] + (Mat(rows),) + rho.mats[k + 1 :]
        tampered = Representation(g, rho.dim_v, mats)
        bad = check_homomorphism(tampered)
        assert bad and bad == _unmatched_pairs(tampered)
    # copies of every classical action up to n = 4 and their duals, one
    # entry changed where it is nonzero and where it is zero
    rng = random.Random(SEED + 7)
    broken = compared = 0
    for label, _, reps in _catalog_structures():
        for rho in reps:
            assert check_homomorphism(rho) == [], label
            g, d = rho.algebra, rho.dim_v
            slots = [(k, a, b) for k in range(g.dim) for a in range(d) for b in range(d)]
            values = [((k, a, b), rho.mats[k].entry(a, b)) for k, a, b in slots if rho.mats[k].rows[a][b]]
            for coeffs in _perturbed(rng, values, slots):
                rows = [[[Fraction(0)] * d for _ in range(d)] for _ in range(g.dim)]
                for (k, a, b), c in coeffs.items():
                    rows[k][a][b] = c
                tampered = Representation(g, d, tuple(Mat(r) for r in rows))
                bad = check_homomorphism(tampered)
                assert bad == _unmatched_pairs(tampered), label
                broken += bool(bad)
                compared += 1
    # every change breaks the bracket except on the one-dimensional gl(1) and so(2)
    assert 0 < broken < compared


def test_poisson_matrix_heisenberg():
    m = lie_poisson_matrix(heisenberg(), (5, 7, 3))
    assert m.tolist() == [[0, 3, 0], [-3, 0, 0], [0, 0, 0]]


def test_poisson_matrix_reads_structure_constants():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        dim = rng.randint(2, 5)
        entries = _random_entries(rng, dim)
        g = LieAlgebra(dim, entries)
        consts = {}
        for i, j, k, c in entries:
            consts[i, j, k] = consts.get((i, j, k), 0) + c
        assert g.entries() == sorted((*ijk, c) for ijk, c in consts.items() if c)
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
        expected = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j, k, c in g.entries():
            expected[i][j] += c * x[k]
            expected[j][i] -= c * x[k]
        m = lie_poisson_matrix(g, x)
        assert [[m.entry(i, j) for j in range(dim)] for i in range(dim)] == expected


CLASSICAL = [
    Family(name, n)
    for name, sizes in (("gl", (1, 2, 3)), ("sl", (2, 3, 4)), ("so", (3, 4, 5)), ("sp", (2, 4)))
    for n in sizes
]


def _point(rng, length, rational=False):
    return tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rational else rng.randint(-101, 101)
        for _ in range(length)
    )


def test_sparse_contractions_match_dense_oracle_on_classical_families():
    rng = random.Random(SEED + 2)
    for fam in CLASSICAL:
        g, rho = build_classical(fam)
        for rational in (False, True):
            x = _point(rng, g.dim, rational)
            assert lie_poisson_matrix(g, x) == dense_poisson_matrix(g.ad, x), fam
            v = _point(rng, rho.dim_v, rational)
            assert rep_operator(rho, v) == dense_contraction(rho.mats, v), fam


def test_sparse_contractions_match_dense_oracle_on_rational_entries():
    # p/q brackets, repeated (i, j, k) entries and a pair that cancels to 0;
    # the brackets are stored summed, and the cancelled one not at all
    rng = random.Random(SEED + 3)
    cancelled = 0
    for _ in range(200):
        dim = rng.randint(2, 6)
        entries = _random_entries(rng, dim)
        entries += [(i, j, k, c / 2) for i, j, k, c in entries[:2]]
        i, j = sorted(rng.sample(range(dim), 2))
        k = rng.randrange(dim)
        gone = all(e[:3] != (i, j, k) for e in entries)
        if gone:
            c = Fraction(rng.randint(1, 9), rng.randint(2, 7))
            entries += [(i, j, k, c), (i, j, k, -c)]
            cancelled += 1
        rng.shuffle(entries)
        g = LieAlgebra(dim, entries)
        ad = fraction_adjoint(dim, entries)
        assert list(g.ad) == ad
        assert all(c for *_, c in g.brackets) and g.brackets == tuple(sorted(g.brackets))
        assert len({b[:3] for b in g.brackets}) == len(g.brackets)
        assert not gone or all(b[:3] != (i, j, k) for b in g.brackets)
        x = _point(rng, dim, rational=True)
        assert lie_poisson_matrix(g, x) == dense_poisson_matrix(ad, x)
        dim_v = rng.randint(1, 4)
        mats = tuple(
            Mat([[Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 4)) for _ in range(dim_v)] for _ in range(dim_v)])
            for _ in range(dim)
        )
        v = _point(rng, dim_v, rational=True)
        assert rep_operator(Representation(g, dim_v, mats), v) == dense_contraction(mats, v)
    assert cancelled > 100


def test_lie_index_examples():
    assert lie_index(LieAlgebra(3, []), Sampler(SEED)) == 3
    assert lie_index(heisenberg(), Sampler(SEED)) == 1
    assert lie_index(euclidean2(), Sampler(SEED)) == 1
    assert lie_index(_sl2(), Sampler(SEED)) == 1


def test_sampler_determinism():
    a = Sampler(7, height=10)
    b = Sampler(7, height=10)
    draws_a = [a.covector(4) for _ in range(5)]
    draws_b = [b.covector(4) for _ in range(5)]
    assert draws_a == draws_b
    assert all(abs(x) <= 10 for v in draws_a for x in v)
    c = Sampler(8, height=10)
    assert [c.covector(4) for _ in range(5)] != draws_a
    with pytest.raises(ValueError):
        Sampler(0, height=0)


def test_jk_of_euclidean_algebra():
    report = jk_invariants_of_lie(euclidean2(), Sampler(SEED), samples=10)
    assert report.invariants == SkewJK(dim=3, kronecker=(2,), jordan=())
    assert report.index_used == 1
    assert report.genericity_status == CERTIFIED
    assert report.samples_used == 10


def test_jk_of_standard_sl2_representation():
    fam = Family("sl", 2)
    _, rho = build_classical(fam)
    report = jk_invariants_of_rep(rho, Sampler(SEED), samples=10)
    assert abstract_signature(report.invariants) == expected_rep_jk(fam, 1)
    assert report.genericity_status == CERTIFIED


def test_report_validation():
    jk = SkewJK(dim=3, kronecker=(2,), jordan=())
    with pytest.raises(InternalConsistencyError):
        SkewJKReport(
            invariants=jk, genericity_status=CERTIFIED, samples_used=5, index_used=2
        )


def test_sample_count_validation():
    with pytest.raises(ValueError):
        jk_invariants_of_lie(euclidean2(), Sampler(SEED), samples=0)
    with pytest.raises(ValueError):
        lie_index(euclidean2(), Sampler(SEED), samples=0)


def test_index_used_is_the_smallest_sampled_corank():
    # at height 1 some sampled pairs are degenerate, so the coranks differ;
    # the index read off the folded invariants must be the smallest corank,
    # recomputed here by ranking each sampled pencil at many parameters
    varied = 0
    for g in (euclidean2(), heisenberg(), _sl2()):
        report = jk_invariants_of_lie(g, Sampler(SEED, height=1), samples=12)
        sampler = Sampler(SEED, height=1)
        coranks = []
        for _ in range(12):
            x, a = sampler.covector(g.dim), sampler.covector(g.dim)
            coranks.append(g.dim - eval_rank(lie_pencil(g, x, a)))
        assert report.index_used == min(coranks)
        varied += len(set(coranks)) > 1
    assert varied
