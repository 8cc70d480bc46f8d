"""Rational polynomials, factor bases, and the Smith chain."""

import random
from fractions import Fraction

from penciljk.polys import (
    Poly,
    _zgcd,
    _zprimitive,
    _zsquarefree,
    coprime_basis,
    format_poly,
    integer_factors,
    poly_gcd,
)

from helpers import class_at_root, divides, is_constant, poly_eval
from oracles import (
    cleared,
    smith_invariant_factors,
    squarefree_decomposition,
    squarefree_part,
    sympy_factors,
    valuation,
)


def P(*coeffs):
    return Poly(coeffs)


def test_poly_basic_structure():
    assert P().is_zero()
    assert P().degree() == -1
    assert P(0, 0).is_zero()
    assert is_constant(P(2))
    assert Poly.x() == P(0, 1)
    assert class_at_root(3).poly == P(-3, 1)
    assert P(1, 2, 1).leading() == 1


def test_poly_arithmetic():
    f = P(1, 1)
    g = P(-1, 1)
    assert f * g == P(-1, 0, 1)
    assert f + g == P(0, 2)
    assert f - f == P()
    assert f**3 == P(1, 3, 3, 1)
    assert (f * 2).coeffs == (2, 2)


def test_poly_eval_and_roots():
    f = P(-6, 1, 1)  # (t+3)(t-2)
    assert poly_eval(f, 2) == 0
    assert poly_eval(f, -3) == 0
    assert poly_eval(f, 0) == -6


def test_gcd_and_lcm():
    f = P(-1, 1) * P(1, 1)
    g = P(-1, 1) * P(2, 1)
    assert poly_gcd(f, g) == P(-1, 1)
    assert poly_gcd(P(), f) == f.monic()
    assert is_constant(poly_gcd(f, P(3)))


def test_gcd_distributes_over_common_factor():
    rng = random.Random(11)
    for _ in range(20):
        f = Poly([rng.randint(-3, 3) for _ in range(3)] + [1])
        g = Poly([rng.randint(-3, 3) for _ in range(2)] + [1])
        h = Poly([rng.randint(-3, 3) for _ in range(2)] + [1])
        left = poly_gcd(f * g, f * h)
        right = (f.monic() * poly_gcd(g, h)).monic()
        assert left == right


def test_squarefree_decomposition():
    f = P(-1, 1) ** 3 * P(1, 1)
    parts = dict(squarefree_decomposition(f))
    assert parts == {P(1, 1): 1, P(-1, 1): 3}
    assert squarefree_part(f) == (P(-1, 1) * P(1, 1)).monic()
    # Yun over Z in the package against Yun over Q here
    rng = random.Random(5)
    for _ in range(30):
        g = P(rng.choice((1, -2, 3)))
        for _ in range(rng.randint(1, 4)):
            g = g * P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 3))], 1) ** rng.randint(1, 3)
        z = cleared(g)
        low = next(i for i, c in enumerate(z) if c)
        mine = [(Poly(part).monic(), mult) for part, mult in _zsquarefree(_zprimitive(z[low:]))]
        theirs = squarefree_decomposition(Poly(z[low:]))
        assert mine == theirs


def test_coprime_basis_splits_shared_factors():
    f = P(-1, 1) * P(1, 0, 1)
    g = P(-1, 1) * P(-2, 0, 1)
    basis = coprime_basis([f, g])
    assert P(-1, 1) in basis
    assert P(1, 0, 1) in basis
    assert P(-2, 0, 1) in basis
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            assert is_constant(poly_gcd(a, b))


def test_coprime_basis_handles_powers_and_fractions():
    f = P(Fraction(1, 2), 1) ** 2
    basis = coprime_basis([f])
    assert basis == [P(Fraction(1, 2), 1)]


def test_integer_factors_match_fraction_path():
    # products of linear, quadratic and cubic irreducibles with random
    # multiplicities and integer scalings; two products share some factors
    pool = [
        P(0, 1), P(-1, 1), P(3, 1), P(Fraction(1, 2), 1), P(Fraction(-2, 3), 1),
        P(1, 0, 1), P(-2, 0, 1), P(-1, -1, 1), P(Fraction(-1, 2), 0, 1),
        P(-2, 0, 0, 1), P(1, 1, 0, 1),
    ]
    rng = random.Random(11)
    for _ in range(60):
        shared = rng.sample(pool, rng.randint(0, 3))
        f, g = P(rng.choice((1, -2, 3))), P(rng.choice((1, -1, 6)))
        for q in shared:
            f = f * q ** rng.randint(1, 3)
            g = g * q ** rng.randint(1, 3)
        for q in rng.sample(pool, 2):
            f = f * q ** rng.randint(0, 2)
        if rng.random() < 0.5:
            g = g * rng.choice(pool)
        d = poly_gcd(f, g)
        expected = [(q, valuation(d, q)) for q, _ in sympy_factors(cleared(d))]
        z = _zgcd(cleared(f), cleared(g))
        assert Poly(z).monic() == d
        assert integer_factors(z) == expected
    assert integer_factors([5]) == []
    assert integer_factors([0, 0, 4]) == [(P(0, 1), 2)]


def test_format_poly():
    samples = [
        (P(0, 1), "t"),
        (P(-1, 1), "t-1"),
        (P(Fraction(1, 2), 1), "t+1/2"),
        (P(1, 0, 1), "t^2+1"),
        (P(-2, 0, 0, 1), "t^3-2"),
        (P(-1, -1, 1), "t^2-t-1"),
    ]
    for f, text in samples:
        assert format_poly(f, "t") == text


def test_smith_chain_divisibility_and_content():
    # entries of t*I - companion(f) for f = (t-1)^2 (t+2)
    f = P(-1, 1) ** 2 * P(2, 1)
    k = f.degree()
    entries = [[Poly() for _ in range(k)] for _ in range(k)]
    for j in range(k):
        for i in range(k):
            entries[i][j] = Poly([0, 1]) if i == j else Poly()
    for i in range(1, k):
        entries[i][i - 1] = entries[i][i - 1] - P(1)
    for i in range(k):
        entries[i][k - 1] = entries[i][k - 1] + P(f.coeffs[i])
    factors = smith_invariant_factors(entries)
    nontrivial = [g for g in factors if g.degree() >= 1]
    assert nontrivial == [f.monic()]
    for a, b in zip(factors, factors[1:]):
        assert divides(a, b)


def test_smith_of_diagonal_mixes():
    entries = [
        [P(-1, 1), P()],
        [P(), P(-1, 1) * P(1, 1)],
    ]
    factors = smith_invariant_factors(entries)
    assert factors[0] == P(-1, 1)
    assert factors[1] == (P(-1, 1) * P(1, 1)).monic()
