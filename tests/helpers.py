"""Shared generators for the test suite.

Random objects are always drawn from a seeded random.Random so every test
run sees the same data.  All canonical pencils, strict and skew, are built
here from scratch out of the same chain and Jordan blocks; the package has
no canonical-form assembler, so recovery tests do not depend on the code
they are checking.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul

from penciljk.exactla import Mat, det, rank
from penciljk.jsonio import _matrix_to_json
from penciljk.lie import (
    LieAlgebra,
    Representation,
    Sampler,
    check_homomorphism,
    check_jacobi,
    lie_poisson_matrix,
)
from penciljk.pencils import EigClass, Pencil, StrictInvariants, strict_invariants
from penciljk.skewjk import SkewJK

from qpoly import Poly, monic

SEED = 20250825

CLASS_POOL = (
    EigClass((0, 1)),         # t
    EigClass((-1, 1)),        # t - 1
    EigClass((1, 1)),         # t + 1
    EigClass((-3, 1)),        # t - 3
    EigClass((1, 2)),         # t + 1/2
    EigClass((1, 0, 1)),      # t^2 + 1
    EigClass((-2, 0, 1)),     # t^2 - 2
    EigClass((-1, -1, 1)),    # t^2 - t - 1
    EigClass((-2, 0, 0, 1)),  # t^3 - 2
    EigClass(None),           # infinity
)


def zeros(m: int, n: int) -> Mat:
    return Mat.from_ints([[0] * n for _ in range(m)], n)


def hstack(blocks) -> Mat:
    """Blocks of one row count, side by side."""
    if not blocks:
        raise ValueError("nothing to stack")
    m = blocks[0].m
    if any(b.m != m for b in blocks):
        raise ValueError("row count mismatch")
    den = lcm(*[b.den for b in blocks])
    rows = [[den // b.den * x for b in blocks for x in b.rows[i]] for i in range(m)]
    return Mat.from_ints(rows, sum(b.n for b in blocks), den)


def vstack(blocks) -> Mat:
    """Blocks of one column count, one above the other."""
    if not blocks:
        raise ValueError("nothing to stack")
    n = blocks[0].n
    if any(b.n != n for b in blocks):
        raise ValueError("column count mismatch")
    den = lcm(*[b.den for b in blocks])
    rows = [[den // b.den * x for x in r] for b in blocks for r in b.rows]
    return Mat.from_ints(rows, n, den)


def pencil_from_lists(a_rows, b_rows) -> Pencil:
    return Pencil(Mat(a_rows), Mat(b_rows))


def pencil_to_json(p: Pencil) -> dict:
    return {"m": p.m, "n": p.n, "A": _matrix_to_json(p.a), "B": _matrix_to_json(p.b)}


def are_strictly_equivalent(p: Pencil, q: Pencil) -> bool:
    return p.shape == q.shape and strict_invariants(p) == strict_invariants(q)


def infinite_sizes(inv: StrictInvariants) -> tuple[int, ...]:
    """The Jordan sizes at infinity of a pencil's strict invariants."""
    for c, s in inv.jordan:
        if c.is_infinite:
            return s
    return ()


def reversed_pencil(p: Pencil) -> Pencil:
    """The pencil B + s*A; its eigenvalue at 0 is p's infinity."""
    return Pencil(p.b, p.a)


def class_at_root(root) -> EigClass:
    """The class t - root of a rational eigenvalue, stored as v*t - u for
    root = u/v in lowest terms."""
    root = Fraction(root)
    return EigClass((-root.numerator, root.denominator))


def poly_eval(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def divides(p: Poly, q: Poly) -> bool:
    return q.is_zero() if p.is_zero() else (q % p).is_zero()


def is_constant(p: Poly) -> bool:
    return p.degree() < 1


def identity(n: int) -> Mat:
    return Mat.from_ints([[int(i == j) for j in range(n)] for i in range(n)], n)


def from_cols(cols, m: int) -> Mat:
    """The m-row matrix whose columns are the given vectors."""
    return Mat([list(c) for c in cols], n=m).transpose()


def matmul(*mats: Mat) -> Mat:
    """The product of the given matrices, left to right."""
    out = mats[0]
    for other in mats[1:]:
        if out.n != other.m:
            raise ValueError(f"shape mismatch {out.m}x{out.n} * {other.m}x{other.n}")
        cols = [[r[j] for r in other.rows] for j in range(other.n)]
        rows = [[sum(map(mul, row, col)) for col in cols] for row in out.rows]
        out = Mat.from_ints(rows, other.n, out.den * other.den)
    return out


def apply(mat: Mat, v) -> tuple[Fraction, ...]:
    """The product of mat and the column vector v."""
    v = [Fraction(x) for x in v]
    if len(v) != mat.n:
        raise ValueError("vector length mismatch")
    return tuple(sum(map(mul, row, v), Fraction(0)) / mat.den for row in mat.rows)


def random_invertible(rng: random.Random, k: int, bound: int = 5) -> Mat:
    """Integer matrix with entries in [-bound, bound] and nonzero determinant."""
    while True:
        mat = Mat([[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)])
        if det(mat) != 0:
            return mat


def scramble(p: Pencil, rng: random.Random, bound: int = 5) -> Pencil:
    """A random strictly equivalent pencil."""
    left = random_invertible(rng, p.m, bound)
    right = random_invertible(rng, p.n, bound)
    return Pencil(matmul(left, p.a, right), matmul(left, p.b, right))


def random_strict_invariants(
    rng: random.Random, max_m: int = 10, max_n: int = 12
) -> StrictInvariants:
    while True:
        horizontal = tuple(
            sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 2))), reverse=True)
        )
        vertical = tuple(
            sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 2))), reverse=True)
        )
        classes = rng.sample(CLASS_POOL, rng.randint(0, 3))
        jordan = []
        for cls in classes:
            sizes = tuple(
                sorted(
                    (rng.randint(1, 3) for _ in range(rng.randint(1, 2))), reverse=True
                )
            )
            jordan.append((cls, sizes))
        jordan.sort(key=lambda cs: cs[0].sort_key())
        jdim = sum(cls.root_count * sum(sizes) for cls, sizes in jordan)
        n = sum(horizontal) + sum(v - 1 for v in vertical) + jdim
        m = sum(w - 1 for w in horizontal) + sum(vertical) + jdim
        r = sum(w - 1 for w in horizontal) + sum(v - 1 for v in vertical) + jdim
        if not (1 <= m <= max_m and 1 <= n <= max_n):
            continue
        return StrictInvariants(
            m=m,
            n=n,
            rank=r,
            horizontal=horizontal,
            vertical=vertical,
            jordan=tuple(jordan),
        )


# ---------------------------------------------------------------------------
# canonical pencils, strict and skew


def _embed_skew(fa: Mat, fb: Mat) -> tuple[Mat, Mat]:
    """[[0, F], [-F^T, 0]] for both coefficients; always a skew pair."""
    p, q = fa.m, fa.n
    za = zeros(p, p)
    zb = zeros(q, q)
    a = vstack([hstack([za, fa]), hstack([fa.transpose().scale(-1), zb])])
    b = vstack([hstack([za, fb]), hstack([fb.transpose().scale(-1), zb])])
    return a, b


def _chain_pair(width: int) -> tuple[Mat, Mat]:
    """A (width-1) x width pair whose only invariant is one width index;
    width 1 gives the 0 x 1 pair."""
    a = Mat([[1 if j == i else 0 for j in range(width)] for i in range(width - 1)], n=width)
    b = Mat([[1 if j == i + 1 else 0 for j in range(width)] for i in range(width - 1)], n=width)
    return a, b


def _jordan_pair(cls: EigClass, size: int) -> tuple[Mat, Mat]:
    """A square pair with the single elementary divisor cls**size.

    The companion matrix of cls**size has that power as its one invariant
    factor, so A = -companion, B = identity realizes it as det(A + tB).
    """
    if cls.is_infinite:
        a = identity(size)
        b = Mat(
            [[1 if j == i + 1 else 0 for j in range(size)] for i in range(size)]
        )
        return a, b
    power = monic(cls.poly) ** size
    dim = power.degree()
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(1, dim):
        rows[i][i - 1] = Fraction(-1)
    for i in range(dim):
        rows[i][dim - 1] += power.coeffs[i]
    return Mat(rows), identity(dim)


def _block_diag(pairs: list[tuple[Mat, Mat]]) -> Pencil:
    return Pencil(Mat.block_diag([a for a, _ in pairs]), Mat.block_diag([b for _, b in pairs]))


def canonical_of(inv: StrictInvariants) -> Pencil:
    """A block-diagonal pencil whose strict invariants are exactly ``inv``;
    classes of any degree are realized by companion blocks."""
    pairs = [_chain_pair(w) for w in inv.horizontal]
    pairs += [(a.transpose(), b.transpose()) for a, b in map(_chain_pair, inv.vertical)]
    pairs += [_jordan_pair(cls, s) for cls, sizes in inv.jordan for s in sizes]
    p = _block_diag(pairs)
    assert p.shape == (inv.m, inv.n)
    return p


def skew_canonical(jk: SkewJK) -> Pencil:
    """A skew pencil whose folded invariants are exactly ``jk``."""
    pairs = [_chain_pair(k) for k in jk.kronecker]
    pairs += [_jordan_pair(cls, s2 // 2) for cls, sizes in jk.jordan for s2 in sizes]
    p = _block_diag([_embed_skew(fa, fb) for fa, fb in pairs])
    assert p.n == jk.dim
    return p


def congruent(p: Pencil, rng: random.Random, bound: int = 5) -> Pencil:
    t = random_invertible(rng, p.m, bound)
    tt = t.transpose()
    return Pencil(matmul(tt, p.a, t), matmul(tt, p.b, t))


def random_skew_jk(rng: random.Random, max_dim: int = 12) -> SkewJK:
    while True:
        kron = tuple(
            sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 3))), reverse=True)
        )
        classes = rng.sample(CLASS_POOL, rng.randint(0, 2))
        jordan = []
        for cls in classes:
            sizes = tuple(
                sorted(
                    (2 * rng.randint(1, 2) for _ in range(rng.randint(1, 2))),
                    reverse=True,
                )
            )
            jordan.append((cls, sizes))
        jordan.sort(key=lambda cs: cs[0].sort_key())
        dim = sum(2 * k - 1 for k in kron) + sum(
            cls.root_count * sum(sizes) for cls, sizes in jordan
        )
        if not (1 <= dim <= max_dim):
            continue
        return SkewJK(dim=dim, kronecker=kron, jordan=tuple(jordan))


# ---------------------------------------------------------------------------
# small algebra/representation pairs


def change_basis(
    g: LieAlgebra, rho: Representation, pg: Mat, pv: Mat
) -> tuple[LieAlgebra, Representation]:
    """The same pair written on new bases of the algebra and the space."""
    from oracles import inverse  # oracles imports this module

    n = g.dim
    pg_inv = inverse(pg)
    brackets = g.entries()
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            w = [Fraction(0)] * n
            for i, j, k, c in brackets:
                # [e_i, e_j] = c e_k and [e_j, e_i] = -c e_k
                w[k] += (pg.entry(i, a) * pg.entry(j, b) - pg.entry(j, a) * pg.entry(i, b)) * c
            coords = apply(pg_inv, w)
            for k, c in enumerate(coords):
                if c:
                    entries.append((a, b, k, c))
    g2 = LieAlgebra(n, entries)
    assert not check_jacobi(g2)
    pv_inv = inverse(pv)
    mats = []
    for a in range(n):
        acc = zeros(rho.dim_v, rho.dim_v)
        for i in range(n):
            c = pg.entry(i, a)
            if c:
                acc = acc + rho.mats[i].scale(c)
        mats.append(matmul(pv_inv, acc, pv))
    rho2 = Representation(g2, rho.dim_v, tuple(mats))
    assert not check_homomorphism(rho2)
    return g2, rho2


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


def _diag(values) -> Mat:
    k = len(values)
    return Mat([[values[i] if i == j else 0 for j in range(k)] for i in range(k)])


def _sl2() -> LieAlgebra:
    return LieAlgebra(3, [(0, 1, 2, 1), (0, 2, 0, -2), (1, 2, 1, 2)])


def pair_pool() -> list[tuple[str, LieAlgebra, Representation]]:
    """Pairs (g, rho) with dim g <= 4, dim V <= 4.

    The first nine have a free generic vector under the dual action, which
    makes the semi-direct comparison applicable; the rest exist to stress
    the block-structure check.
    """
    out = []

    g = LieAlgebra(1, [])
    out.append(("scalar", g, Representation(g, 1, (Mat([[2]]),))))

    g = LieAlgebra(2, [])
    out.append(
        ("abelian2", g, Representation(g, 2, (identity(2), _diag([1, 2]))))
    )
    g = LieAlgebra(3, [])
    out.append(
        (
            "abelian3",
            g,
            Representation(g, 3, (identity(3), _diag([1, 2, 3]), _diag([1, 4, 9]))),
        )
    )
    g = LieAlgebra(4, [])
    out.append(
        (
            "abelian4",
            g,
            Representation(
                g,
                4,
                (
                    identity(4),
                    _diag([1, 2, 3, 4]),
                    _diag([1, 4, 9, 16]),
                    _diag([1, 8, 27, 64]),
                ),
            ),
        )
    )

    g = LieAlgebra(2, [(0, 1, 1, 1)])  # affine line: [e0, e1] = e1
    out.append(
        (
            "affine",
            g,
            Representation(g, 2, (Mat([[1, 0], [0, 0]]), Mat([[0, 1], [0, 0]]))),
        )
    )

    g = LieAlgebra(3, [(0, 1, 1, 1)])  # affine line plus a scalar
    z = zeros(3, 3)
    e0 = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    e1 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e2 = Mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    out.append(("affine+scalar", g, Representation(g, 3, (e0, e1, e2))))

    g = _sl2()
    e = Mat([[0, 1], [0, 0]])
    f = Mat([[0, 0], [1, 0]])
    h = _diag([1, -1])
    two = tuple(Mat.block_diag([x, x]) for x in (e, f, h))
    out.append(("sl2 twice", g, Representation(g, 4, two)))

    g = _sl2()
    e3 = Mat([[0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    f3 = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0]])
    h3 = _diag([3, 1, -1, -3])
    out.append(("sl2 cubic forms", g, Representation(g, 4, (e3, f3, h3))))

    g = LieAlgebra(4, [(0, 1, 2, 1), (0, 2, 0, -2), (1, 2, 1, 2)])  # gl2 = sl2 + center
    gl = (e, f, h, identity(2))
    two = tuple(Mat.block_diag([x, x]) for x in gl)
    out.append(("gl2 twice", g, Representation(g, 4, two)))

    # pairs below have a nontrivial generic stabilizer under the dual action
    g = LieAlgebra(3, [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, -1)])  # rotations
    l1 = Mat([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    l2 = Mat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    l3 = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    out.append(("rotations3", g, Representation(g, 3, (l1, l2, l3))))

    g = LieAlgebra(3, [(0, 1, 2, 1)])  # heisenberg
    x = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    y = Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    zc = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    out.append(("heisenberg", g, Representation(g, 3, (x, y, zc))))

    for _, g, rho in out:
        assert not check_jacobi(g)
        assert not check_homomorphism(rho)
    return out


APPLICABLE_POOL_SIZE = 9
