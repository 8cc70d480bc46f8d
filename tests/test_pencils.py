"""Strict-equivalence invariants of matrix pencils, checked against
independent oracles (evaluation ranks, stacked kernel matrices, Smith
normal form, interpolated determinants)."""

import random
from fractions import Fraction

import pytest

import penciljk.exactla as exactla
import penciljk.pencils as pencils
import penciljk.polys as polys
import penciljk.skewjk as skewjk
from penciljk.errors import InternalConsistencyError
from penciljk.pencils import (
    _CACHE_SIZE,
    EigClass,
    Pencil,
    StrictInvariants,
    _candidate_classes,
    _jordan_structure,
    _rank_scan,
    _sizes_at_class,
    are_strictly_equivalent,
    canonical_pencil,
    characteristic_polynomial,
    elementary_divisors,
    invariant_factors,
    minimal_indices,
    pencil_from_lists,
    pencil_rank,
    regular_value,
    strict_invariants,
)
from penciljk.polys import Poly, smith_invariant_factors

from helpers import (
    CLASS_POOL,
    SEED,
    canonical_of,
    random_invertible,
    random_strict_invariants,
    scramble,
)
from oracles import eval_rank, fraction_candidates, interp_det, stacked_minimal_indices


def P(*coeffs):
    return Poly(coeffs)


def random_pencil(rng, max_m=6, max_n=6, bound=3):
    """Entries p/q with |p| <= bound and q in {1, 2, 3}."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    entry = lambda: Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))
    draw = lambda: [[entry() for _ in range(n)] for _ in range(m)]
    return pencil_from_lists(draw(), draw())


def test_rank_matches_evaluation_oracle():
    rng = random.Random(SEED)
    for _ in range(40):
        p = random_pencil(rng)
        assert pencil_rank(p) == eval_rank(p)


def test_regular_value_comes_from_the_rank_scan(monkeypatch):
    rng = random.Random(SEED + 9)
    for _ in range(40):
        p = random_pencil(rng)
        # stacking p on itself keeps its rank below min(m, n) when n > m
        doubled = Pencil(exactla.Mat.vstack([p.a, p.a]), exactla.Mat.vstack([p.b, p.b]))
        for q in (p, doubled):
            r = eval_rank(q)
            assert pencil_rank(q) == r
            first = next(t for t in range(min(q.m, q.n) + 1) if exactla.rank(q.at(t)) == r)
            assert regular_value(q) == first
    # eigenvalues 0 and 1 next to singular blocks: rank 4 of 5, first reached at 2
    inv = StrictInvariants(
        m=5,
        n=5,
        rank=4,
        horizontal=(2,),
        vertical=(2,),
        jordan=((EigClass(P(-1, 1)), (1,)), (EigClass(P(0, 1)), (1,))),
    )
    assert regular_value(scramble(canonical_of(inv), rng)) == 2
    # once the normal rank is known, the regular value costs no rank
    p = random_pencil(rng)
    pencil_rank(p)
    calls = []
    real = pencils.rank
    monkeypatch.setattr(pencils, "rank", lambda mat: calls.append(mat) or real(mat))
    regular_value(p)
    assert calls == []


def test_minimal_indices_match_stacked_kernel_oracle():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        p = random_pencil(rng, max_m=5, max_n=5, bound=2)
        assert minimal_indices(p) == stacked_minimal_indices(p)


def test_invariant_factors_match_smith_form():
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 20:
        p = random_pencil(rng, max_m=4, max_n=4, bound=2)
        r = pencil_rank(p)
        if r == 0:
            continue
        smith = [f.monic() for f in smith_invariant_factors(p.entries())]
        assert list(invariant_factors(p)) == smith
        checked += 1


def test_eigenvalue_convention():
    # A + t*B drops rank where t is minus a diagonal ratio
    p = pencil_from_lists([[1, 0], [0, 2]], [[1, 0], [0, 1]])
    divisors, inf_sizes = elementary_divisors(p)
    assert inf_sizes == ()
    assert {cls: sizes for cls, sizes in divisors} == {P(1, 1): (1,), P(2, 1): (1,)}


def test_singular_example_all_parts():
    # row 0: width-2 chain [t, 1]; row 1: eigenvalue 0; row 2: infinite
    # block [1]; row 3: zero row, a height-1 block
    p = pencil_from_lists(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    inv = strict_invariants(p)
    assert inv.rank == 3
    assert inv.horizontal == (2,)
    assert inv.vertical == (1,)
    assert inv.jordan == (
        (EigClass(P(0, 1)), (1,)),
        (EigClass.infinite(), (1,)),
    )


def test_characteristic_form_against_interpolated_determinant():
    rng = random.Random(SEED + 3)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 5)
        p = random_pencil(rng, max_m=n, max_n=n, bound=3)
        if p.m != p.n:
            continue
        det = interp_det(p)
        if det.is_zero():
            continue
        form = characteristic_polynomial(p)
        assert form.dehomogenized() == det.monic()
        assert form.alpha_valuation() == p.n - det.degree()
        assert form.degree == p.n
        checked += 1


def test_canonical_roundtrip_random():
    rng = random.Random(SEED + 4)
    for _ in range(10):
        inv = random_strict_invariants(rng, max_m=8, max_n=8)
        p = canonical_of(inv)
        assert p.shape == (inv.m, inv.n)
        assert strict_invariants(p) == inv
    # a class with non-integer coefficients, t^2 - 1/2, next to singular blocks
    inv = StrictInvariants(
        m=8,
        n=8,
        rank=7,
        horizontal=(2,),
        vertical=(1,),
        jordan=((EigClass(P(Fraction(-1, 2), 0, 1)), (2, 1)),),
    )
    for p in (canonical_of(inv), scramble(canonical_of(inv), rng)):
        assert strict_invariants(p) == inv


def test_strict_equivalence_under_basis_change():
    rng = random.Random(SEED + 5)
    inv = random_strict_invariants(rng, max_m=7, max_n=7)
    p = canonical_of(inv)
    q = scramble(p, rng)
    assert are_strictly_equivalent(p, q)
    assert strict_invariants(q) == inv


def test_strict_equivalence_negative():
    a = pencil_from_lists([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    b = pencil_from_lists([[1, 1], [0, 1]], [[1, 0], [0, 1]])
    # same shape and rank, different Jordan structure at t = -1
    assert not are_strictly_equivalent(a, b)
    c = pencil_from_lists([[1]], [[1]])
    assert not are_strictly_equivalent(a, c)


def test_canonical_pencil_assignment():
    inv = StrictInvariants(
        m=3,
        n=3,
        rank=3,
        horizontal=(),
        vertical=(),
        jordan=((EigClass(P(-1, 1)), (1,)), (EigClass(P(0, 1)), (2,))),
    )
    relabeled = canonical_pencil(
        inv, {EigClass(P(0, 1)): 5, EigClass(P(-1, 1)): Fraction(1, 2)}
    )
    divisors, _ = elementary_divisors(relabeled)
    assert {cls: sizes for cls, sizes in divisors} == {
        P(-5, 1): (2,),
        P(Fraction(-1, 2), 1): (1,),
    }
    with pytest.raises(ValueError):
        canonical_pencil(inv, {EigClass(P(0, 1)): 3, EigClass(P(-1, 1)): 3})


def test_canonical_pencil_rejects_irrational_classes():
    inv = StrictInvariants(
        m=2,
        n=2,
        rank=2,
        horizontal=(),
        vertical=(),
        jordan=((EigClass(P(-2, 0, 1)), (1,)),),
    )
    with pytest.raises(ValueError):
        canonical_pencil(inv)
    # the degree-agnostic builder still realizes it
    assert strict_invariants(canonical_of(inv)) == inv


def test_reversed_swaps_zero_and_infinity():
    p = pencil_from_lists([[0, 0], [0, 1]], [[1, 0], [0, 0]])
    inv = strict_invariants(p)
    assert inv.jordan == (
        (EigClass(P(0, 1)), (1,)),
        (EigClass.infinite(), (1,)),
    )
    assert strict_invariants(p.reversed()).jordan == inv.jordan


def test_eigclass_validation():
    with pytest.raises(ValueError):
        EigClass(P(1, 2))  # not monic
    with pytest.raises(ValueError):
        EigClass(P(3))  # constant
    assert EigClass.infinite().root_count == 1
    assert EigClass(P(-2, 0, 1)).root_count == 2
    assert EigClass.at_root(Fraction(1, 2)).label() == "t-1/2"


def test_invariants_validation():
    with pytest.raises(InternalConsistencyError):
        StrictInvariants(m=2, n=2, rank=3, horizontal=(), vertical=(), jordan=())
    with pytest.raises(InternalConsistencyError):
        # bookkeeping: widths must account for n - rank exactly
        StrictInvariants(m=2, n=3, rank=2, horizontal=(), vertical=(), jordan=())


def test_zero_and_empty_pencils():
    z = pencil_from_lists([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    inv = strict_invariants(z)
    assert inv.rank == 0
    assert inv.horizontal == (1, 1)
    assert inv.vertical == (1, 1)
    assert inv.jordan == ()
    wide = pencil_from_lists([[1, 1, 0]], [[0, 1, 1]])
    assert pencil_rank(wide) == 1
    assert strict_invariants(wide).horizontal == (2, 1)


def test_pencil_caches_stay_bounded():
    rng = random.Random(SEED + 6)
    seen = set()
    while len(seen) < 100:
        p = random_pencil(rng)
        if p not in seen:
            seen.add(p)
            strict_invariants(p)
    for cached in (_rank_scan, _jordan_structure, invariant_factors):
        info = cached.cache_info()
        assert info.maxsize == _CACHE_SIZE
        assert info.currsize <= _CACHE_SIZE
    # no other cache on the invariant path may grow without bound either
    cached = {
        f
        for m in (exactla, pencils, polys, skewjk)
        for f in vars(m).values()
        if hasattr(f, "cache_info")
    }
    assert cached == {_rank_scan, _jordan_structure, invariant_factors}
    # nor a module-level dict used as a cache
    assert not [
        name
        for m in (exactla, pencils, polys, skewjk)
        for name, v in vars(m).items()
        if type(v) is dict and not name.startswith("__")
    ]


def test_minor_bound_stops_resolvent_ranks(monkeypatch):
    # t^3 - 2 is irreducible over Q: two 3x3 companion blocks and a
    # width-2 horizontal block, scrambled so that both minors reach full
    # degree (in canonical form 0 is a regular value, and there every
    # full-rank minor keeps the constant column of the [t, 1] block)
    cubic = P(-2, 0, 0, 1)
    inv = StrictInvariants(
        m=7,
        n=8,
        rank=7,
        horizontal=(2,),
        vertical=(),
        jordan=((EigClass(cubic), (1, 1)),),
    )
    p = scramble(canonical_of(inv), random.Random(SEED + 8))
    r = pencil_rank(p)
    candidates, inf_bound = _candidate_classes(p, r)
    assert candidates == [(cubic, 2)]
    assert inf_bound == 0
    calls = []
    real = pencils.rank

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(pencils, "rank", counted)
    # defect 2 at k = 1 already meets the bound, so no T_2 is ranked
    assert _sizes_at_class(p, cubic, r, 2) == (1, 1)
    assert len(calls) == 1
    assert _sizes_at_class(p.reversed(), Poly.x(), r, inf_bound) == ()
    assert len(calls) == 1


def test_sizes_without_a_tight_bound_agree():
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 25:
        p = random_pencil(rng, max_m=5, max_n=5, bound=2)
        r = pencil_rank(p)
        if r == 0:
            continue
        candidates, inf_bound = _candidate_classes(p, r)
        loose = min(p.m, p.n)
        for cls, bound in candidates:
            assert _sizes_at_class(p, cls, r, loose) == _sizes_at_class(p, cls, r, bound)
        q, x = p.reversed(), Poly.x()
        assert _sizes_at_class(q, x, r, loose) == _sizes_at_class(q, x, r, inf_bound)
        checked += 1


@pytest.mark.parametrize("infinite", [False, True])
def test_bound_below_the_truth_fails(monkeypatch, infinite):
    # class t - 1 with sizes (2, 1), infinite sizes (1, 1), a height-2
    # block; one case bounds t - 1 by 2, one below its total 3, the other
    # bounds infinity by 1, one below its total 2
    one = P(-1, 1)
    inv = StrictInvariants(
        m=7,
        n=6,
        rank=6,
        horizontal=(),
        vertical=(2,),
        jordan=((EigClass(one), (2, 1)), (EigClass.infinite(), (1, 1))),
    )
    p = canonical_of(inv)
    real = pencils._candidate_classes

    def lowered(q, r):
        candidates, inf_bound = real(q, r)
        if infinite:
            return candidates, 1
        return [(f, 2 if f == one else b) for f, b in candidates], inf_bound

    monkeypatch.setattr(pencils, "_candidate_classes", lowered)
    _jordan_structure.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError):
            strict_invariants(p)
    finally:
        _jordan_structure.cache_clear()


def test_integer_candidates_match_fraction_path():
    # random draws: mostly linear candidates, some shared by accident
    rng = random.Random(SEED + 10)
    checked = 0
    while checked < 40:
        p = random_pencil(rng, max_m=5, max_n=5, bound=3)
        r = pencil_rank(p)
        if r == 0:
            continue
        assert _candidate_classes(p, r) == fraction_candidates(p, r)
        checked += 1
    # quadratic and cubic classes with repeated sizes, next to singular
    # and infinite blocks, scrambled
    higher = [c for c in CLASS_POOL if c.root_count > 1 and not c.is_infinite]
    for i in range(12):
        picked = rng.sample(higher, 2) + [EigClass(P(rng.randint(-3, 3), 1)), EigClass.infinite()]
        jordan = sorted(
            ((c, tuple(sorted((rng.randint(1, 2) for _ in range(rng.randint(1, 2))), reverse=True)))
             for c in picked[: 2 + i % 3]),
            key=lambda cs: cs[0].sort_key(),
        )
        horizontal = (2,) if i % 2 else ()
        jdim = sum(c.root_count * sum(s) for c, s in jordan)
        inv = StrictInvariants(
            m=jdim + len(horizontal),
            n=jdim + 2 * len(horizontal),
            rank=jdim + len(horizontal),
            horizontal=horizontal,
            vertical=(),
            jordan=tuple(jordan),
        )
        p = scramble(canonical_of(inv), rng, bound=3)
        candidates, inf_bound = _candidate_classes(p, inv.rank)
        assert (candidates, inf_bound) == fraction_candidates(p, inv.rank)
        found = dict(candidates)
        for c, sizes in inv.jordan:
            if not c.is_infinite:
                assert found[c.poly] >= sum(sizes)
        assert strict_invariants(p) == inv
