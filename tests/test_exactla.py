"""Fraction-free linear algebra over the rationals."""

import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from penciljk.exactla import (
    KernelView,
    Mat,
    _back_substitute,
    _echelon,
    _primitive,
    _reduced,
    charpoly,
    det,
    kernel_basis,
    pivot_columns,
    rank,
    row_space_basis,
    solve,
)

from helpers import (
    SEED,
    apply,
    from_cols,
    hstack,
    identity,
    matmul,
    random_invertible,
    vstack,
    zeros,
)
from oracles import (
    fraction_det,
    fraction_solve,
    free_columns,
    full_row_echelon,
    gcd_back_substitute,
    solve_unique,
)


def test_matrix_shapes_and_blocks():
    a = Mat([[1, 2, 3], [4, 5, 6]])
    assert a.shape == (2, 3)
    assert a.transpose().shape == (3, 2)
    assert hstack([a, a]).shape == (2, 6)
    assert vstack([a, a]).shape == (4, 3)
    d = Mat.block_diag([identity(2), Mat([[7]])])
    assert d.shape == (3, 3)
    assert d.entry(2, 2) == 7
    assert d.entry(0, 2) == 0


def test_submatrix_and_entry():
    a = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = a.submatrix([0, 2], [1, 2])
    assert s == Mat([[2, 3], [8, 9]])


def test_rational_storage_is_canonical():
    half = Fraction(1, 2)
    a = Mat([[half, "1/3"], [2, 0]])
    assert (a.rows, a.den) == (((3, 2), (12, 0)), 6)
    assert a.entry(0, 1) == Fraction(1, 3) and a.row(0) == (half, Fraction(1, 3))
    # equal matrices built along different routes share storage and hash
    b = Mat([[3, 2], [12, 0]]).scale(Fraction(1, 6))
    c = Mat([[half, 0], [2, 0]]) + Mat([[0, "2/6"], [0, 0]])
    d = vstack([b.submatrix([0], [0, 1]), c.submatrix([1], [0, 1])])
    for other in (b, c, d, b.transpose().transpose()):
        assert other == a and hash(other) == hash(a)
    assert Mat([[half, 1]]).scale(2) == Mat([[1, 2]])
    assert Mat([[half]]).scale(0).den == 1
    assert a.tolist() == [[half, Fraction(1, 3)], [2, 0]]
    assert matmul(a, identity(2)) == a and matmul(identity(2), a) == a


def test_det_small_cases():
    assert det(Mat([[3]])) == 3
    assert det(Mat([[1, 2], [3, 4]])) == -2
    assert det(Mat([[2, 0, 1], [0, 1, 0], [1, 0, 1]])) == 1
    assert det(identity(4)) == 1


def test_det_multiplicative():
    rng = random.Random(SEED)
    for _ in range(20):
        a = random_invertible(rng, 4)
        b = random_invertible(rng, 4)
        assert det(matmul(a, b)) == det(a) * det(b)


def test_det_with_fractions():
    a = Mat([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    assert det(a) == Fraction(1, 6) - 1


def test_rank_examples():
    assert rank(zeros(3, 5)) == 0
    assert rank(identity(4)) == 4
    assert rank(Mat([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(Mat([[1, 2, 3], [4, 5, 6]])) == 2


def test_kernel_basis_annihilates():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = Mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        ker = kernel_basis(a)
        assert len(ker) == cols - rank(a)
        for v in ker:
            assert all(x == 0 for x in apply(a, v))
        if ker:
            assert rank(from_cols(ker, cols)) == len(ker)


def test_row_space_basis_spans():
    a = Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = row_space_basis(a.rows, 3)
    assert len(basis) == 2
    stacked = Mat(list(basis) + [list(r) for r in a.rows], n=3)
    assert rank(stacked) == 2


def test_solve_unique_roundtrip():
    rng = random.Random(SEED + 2)
    for _ in range(10):
        a = random_invertible(rng, 4)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        b = apply(a, x)
        assert list(solve_unique(a, b)) == x


def test_solve_unique_rejects_singular():
    a = Mat([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        solve_unique(a, [1, 3])


def test_solve_matches_fraction_gauss_jordan():
    # random rational systems of any width, some of them singular
    rng = random.Random(SEED + 41)
    entry = lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    singular = 0
    for _ in range(300):
        n, k = rng.randint(0, 6), rng.randint(0, 4)
        a = Mat([[entry() for _ in range(n)] for _ in range(n)], n=n)
        b = Mat([[entry() for _ in range(k)] for _ in range(n)], n=k)
        expected = fraction_solve(a.tolist(), b.tolist())
        if expected is None:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                solve(a, b)
        else:
            assert solve(a, b).tolist() == expected
    assert singular >= 10
    # the Möbius shift (A + t0 B)^-1 B of A + tB = S (t - L) T / 6, with L
    # diagonal of eigenvalues 0, 1 and sometimes 2, at the first t0 >= 0
    # that is not one of them
    for i in range(60):
        n = rng.randint(3, 6)
        low = [0, 1, 2][: 2 + i % 2]
        eig = low + [rng.choice((-3, -1, 1, 5)) for _ in range(n - len(low))]
        s_, t_ = random_invertible(rng, n, 3), random_invertible(rng, n, 3)
        lam = Mat([[-eig[r] if r == c else 0 for c in range(n)] for r in range(n)])
        a = matmul(s_, lam, t_).scale(Fraction(1, 6))
        b = matmul(s_, t_).scale(Fraction(1, 6))
        t0 = next(t for t in range(n + 1) if t not in eig)
        assert t0 >= 2
        shifted = a + b.scale(t0)
        assert det(a) == 0 and det(a + b) == 0 and det(shifted) != 0
        assert solve(shifted, b).tolist() == fraction_solve(shifted.tolist(), b.tolist())


def test_solve_keeps_empty_right_sides_and_a_positive_denominator():
    # X is stored canonically, rows over a positive denominator, whatever
    # the sign of the last pivot D of [a | b]; with no right-hand side it
    # is n rows of width 0
    rng = random.Random(SEED + 46)
    negative = empty = 0
    for _ in range(200):
        n, k = rng.randint(1, 5), rng.randint(0, 3)
        a = Mat.from_ints([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], n)
        b = Mat.from_ints([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)], k, rng.randint(1, 3))
        expected = fraction_solve(a.tolist(), b.tolist())
        if expected is None:
            continue
        x = solve(a, b)
        assert x == Mat(expected, n=k) and x.den > 0
        assert x.shape == (n, k)
        echelon = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
        negative += k > 0 and _echelon(echelon, n)[3] < 0
        empty += k == 0
    assert negative >= 40 and empty >= 20


def test_charpoly_matches_fraction_det():
    # det(lambda I - X) at n + 1 integer points, which fix a polynomial of
    # degree n, against Fraction elimination, for random integer X
    rng = random.Random(SEED + 42)
    for n in range(8):
        for _ in range(10):
            x = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            c = charpoly(x)
            assert len(c) == n + 1 and c[0] == 1
            for lam in range(n + 1):
                shifted = [[lam * (i == j) - x[i][j] for j in range(n)] for i in range(n)]
                assert sum(ci * lam ** (n - i) for i, ci in enumerate(c)) == fraction_det(shifted)
    # a strictly upper triangular matrix is nilpotent: lambda^n
    nilpotent = [[rng.randint(-5, 5) if j > i else 0 for j in range(5)] for i in range(5)]
    assert charpoly(nilpotent) == [1, 0, 0, 0, 0, 0]
    assert charpoly([]) == [1]


def test_continued_echelon_equals_one_elimination():
    # stopping after any column and continuing from the saved rank and last
    # pivot leaves the rows, rank, pivots and last pivot of one pass
    rng = random.Random(SEED + 40)
    for _ in range(300):
        m, width = rng.randint(1, 6), rng.randint(1, 8)
        rank_ = rng.randint(0, min(m, width))
        x = [[rng.randint(-4, 4) for _ in range(rank_)] for _ in range(m)]
        y = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rank_)]
        rows = [[sum(a * b for a, b in zip(xr, col)) for col in zip(*y)] if y else [0] * width for xr in x]
        whole = [list(r) for r in rows]
        r, pivots, sign, last = _echelon(whole, width)
        stop = rng.randint(0, width)
        first = _echelon(rows, stop)
        second = _echelon(rows, width, stop, first[0], first[3])
        assert rows == whole
        assert second[0] == r and second[3] == last
        assert first[1] + second[1] == pivots
        assert first[2] * second[2] == sign


def test_reduced_vanishes_exactly_on_the_span():
    # vectors reduced one by one against the echelon rows of those kept
    # before them, in any pivot order: zero exactly when the rank does not
    # grow, and a kept row vanishes in every earlier pivot column
    rng = random.Random(SEED + 41)
    dependent = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        kept: list[list[int]] = []
        echelon: list[tuple[int, list[int]]] = []
        for _ in range(rng.randint(1, 9)):
            if kept and rng.random() < 0.4:
                # an integer combination of the vectors kept so far
                v = [sum(rng.randint(-3, 3) * k[j] for k in kept) for j in range(n)]
            else:
                v = [rng.randint(-9, 9) for _ in range(n)]
            x = _reduced(echelon, tuple(v))
            grows = rank(Mat.from_ints(kept + [v], n)) > len(kept)
            assert any(x) == grows
            if grows:
                assert not any(x[c] for c, _ in echelon)
                echelon.append((next(j for j, a in enumerate(x) if a), x))
                kept.append(v)
            else:
                dependent += 1
    assert dependent >= 200


def _sparse_low_rank(rng, m: int, width: int) -> list[list[int]]:
    """m integer rows of the given width, of a random rank, with about a
    third of the factor entries zero, so that rows often have a zero head
    at a pivot."""
    rank_ = rng.randint(0, min(m, width))
    entry = lambda: rng.choice((0, 0, rng.randint(-4, 4)))
    x = [[entry() for _ in range(rank_)] for _ in range(m)]
    y = [[entry() for _ in range(width)] for _ in range(rank_)]
    return [[sum(a * b for a, b in zip(xr, col)) for col in zip(*y)] if y else [0] * width for xr in x]


def test_echelon_matches_whole_row_oracle():
    # updating only the cells right of each pivot leaves the rows, rank,
    # pivots, sign and last pivot that whole-row updates leave, from
    # scratch and continued, with columns carried past n and with rows
    # whose head at a pivot is zero (they are scaled by pivot / prev)
    rng = random.Random(SEED + 42)
    continued = 0
    for _ in range(500):
        m, n, carried = rng.randint(1, 7), rng.randint(1, 8), rng.randint(0, 3)
        rows = _sparse_low_rank(rng, m, n + carried)
        stop = rng.randint(0, n)
        new, old = [list(r) for r in rows], [list(r) for r in rows]
        first = _echelon(new, stop)
        assert first == full_row_echelon(old, stop)
        assert new == old
        second = _echelon(new, n, stop, first[0], first[3])
        assert second == full_row_echelon(old, n, stop, first[0], first[3])
        assert new == old
        continued += bool(first[1] and second[1])
    # pivots both before and after the stop
    assert continued >= 40
    # row 1 has a zero head under the pivot 2, row 2 a nonzero one
    rows = [[2, 1, 1, 5], [0, 3, 1, 1], [4, 5, 7, 2]]
    oracle = [list(r) for r in rows]
    assert _echelon(rows, 3) == full_row_echelon(oracle, 3)
    assert rows == oracle == [[2, 1, 1, 5], [0, 6, 2, 2], [0, 0, 24, -54]]


def test_kernel_basis_vectors_sit_on_their_free_columns():
    # each vector is nonzero at its own free column, zero at the others
    # and right of its own; the free columns are those without a pivot
    rng = random.Random(SEED + 43)
    for _ in range(300):
        m, n = rng.randint(0, 6), rng.randint(1, 8)
        a = Mat.from_ints(_sparse_low_rank(rng, m, n), n)
        ker = kernel_basis(a)
        free = free_columns(ker)
        pivots = set(pivot_columns(a)) if m else set()
        assert free == [j for j in range(n) if j not in pivots]
        for v, f in zip(ker, free):
            assert v[f] and not any(v[f + 1 :])
            assert not any(v[g] for g in free if g != f)


def test_kernel_view_counts_before_it_back_substitutes():
    # the count and the free columns come off the elimination alone; the
    # vectors, back-substituted on first read and kept, annihilate the
    # matrix, are those of ``kernel_basis`` in the same order, and are zero
    # outside their free column and the pivot columns left of it
    rng = random.Random(SEED + 44)
    for _ in range(300):
        m, n = rng.randint(0, 6), rng.randint(1, 8)
        a = Mat.from_ints(_sparse_low_rank(rng, m, n), n)
        view = KernelView(a)
        pivots = pivot_columns(a) if m else []
        assert len(view) == n - rank(a)
        assert view.free == [j for j in range(n) if j not in pivots]
        assert view._vectors is None
        vectors = list(view)
        assert view.vectors is view.vectors
        assert vectors == kernel_basis(a) == [view[i] for i in range(len(view))]
        for v, f in zip(vectors, view.free):
            assert all(x == 0 for x in apply(a, v))
            assert not any(v[j] for j in range(n) if j != f and (j > f or j not in pivots))


def test_cramer_back_substitution_matches_gcd_oracle():
    # started at the pivot of the last pivot row left of its free column,
    # a vector back-substitutes by exact divisions alone: on random
    # Bareiss forms, sparse and dense, it is an integer kernel vector with
    # that pivot at its free column, and its primitive form is the one
    # the gcd-rescaling oracle gives
    rng = random.Random(SEED + 45)
    scaled = 0
    for i in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 9)
        if i % 2:
            rows = _sparse_low_rank(rng, m, n)
        else:
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        mat = Mat.from_ints(rows, n)
        echelon = [list(r) for r in rows]
        _, pivots, _, _ = _echelon(echelon, n)
        for f in (j for j in range(n) if j not in pivots):
            x = _back_substitute(echelon, pivots, f, n)
            k = bisect_left(pivots, f)
            assert x[f] == (echelon[k - 1][pivots[k - 1]] if k else 1)
            assert not any(apply(mat, x))
            assert _primitive(x) == _primitive(gcd_back_substitute(echelon, pivots, f, n))
            scaled += abs(x[f]) > 1
    assert scaled >= 200
