"""Strict-equivalence invariants of matrix pencils, checked against
independent oracles (evaluation ranks, stacked kernel matrices, Smith
normal form, interpolated determinants)."""

import gc
import random
import weakref
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul

import pytest

import penciljk.exactla as exactla
import penciljk.pencils as pencils
import penciljk.polys as polys
import penciljk.skewjk as skewjk
from penciljk.errors import InternalConsistencyError
from penciljk.exactla import Mat, preimage_chain, rank, row_space_basis, solve
from penciljk.jsonio import class_to_str
from penciljk.pencils import (
    EigClass,
    Pencil,
    StrictInvariants,
    _class_totals,
    _complement,
    _deficiency,
    _kernel_chains,
    _regular_part,
    _sizes_at_class,
    elementary_divisors,
    minimal_indices,
    pencil_rank,
    regular_value,
    strict_invariants,
)
from penciljk.skewjk import SkewJK, skew_jk_invariants

from helpers import (
    CLASS_POOL,
    SEED,
    are_strictly_equivalent,
    canonical_of,
    class_at_root,
    congruent,
    infinite_sizes,
    matmul,
    pencil_from_lists,
    random_skew_jk,
    random_strict_invariants,
    reversed_pencil,
    scramble,
    skew_canonical,
    vstack,
    zeros,
)
from oracles import (
    all_minor_totals,
    class_matrix,
    companion_sizes,
    eval_rank,
    fraction_candidates,
    fraction_det,
    gcd_back_substitute,
    interp_det,
    patch_dense_checks,
    pencil_entries,
    pivot_complement,
    power_sizes,
    resolvent_sizes,
    restart_chain,
    smith_invariant_factors,
    stacked_minimal_indices,
)
from qpoly import Poly, monic


def random_pencil(rng, max_m=6, max_n=6, bound=3):
    """Entries p/q with |p| <= bound and q in {1, 2, 3}."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    entry = lambda: Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))
    draw = lambda: [[entry() for _ in range(n)] for _ in range(m)]
    return pencil_from_lists(draw(), draw())


def invariant_factors(p: Pencil) -> list[Poly]:
    """Monic invariant factors d_1 | ... | d_r of A + t*B, assembled from
    the elementary divisors: the i-th largest size of every class goes
    into d_(r+1-i)."""
    r = pencil_rank(p)
    out = [Poly([1])] * r
    for cls, sizes in elementary_divisors(p)[0]:
        for i, s in enumerate(sizes):
            out[r - 1 - i] = out[r - 1 - i] * monic(cls) ** s
    return out


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
        doubled = Pencil(vstack([p.a, p.a]), vstack([p.b, p.b]))
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
        jordan=((EigClass((-1, 1)), (1,)), (EigClass((0, 1)), (1,))),
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


def _points_ranked(monkeypatch, p: Pencil) -> tuple[tuple[int, int], int]:
    """(normal rank, regular value) of a fresh pencil, and the number of
    points t at which the pencil layer took rank(A + t*B) to find them;
    rank(A) at t = 0 is read off the right chain's first step, and is not
    counted."""
    calls = []
    real = exactla.rank
    monkeypatch.setattr(pencils, "rank", lambda mat: calls.append(mat) or real(mat))
    result = pencil_rank(p), regular_value(p)
    monkeypatch.setattr(pencils, "rank", real)
    return result, len(calls)


def test_rank_scan_stops_at_the_degree_bound(monkeypatch):
    # the right chain's limit at t = 0 proves the normal rank r, and its
    # first kernel gives rank(A); t = 1, 2, ... are ranked only while
    # rank(A) < r.  diag(t, t-1, ..., t-(n-1)) has rank n-1 at t = 0..n-1,
    # so it ranks t = 1..n: n points
    for n in range(1, 6):
        p = pencil_from_lists(
            [[-i if i == j else 0 for j in range(n)] for i in range(n)],
            [[int(i == j) for j in range(n)] for i in range(n)],
        )
        assert _points_ranked(monkeypatch, p) == ((n, n), n)
    # the skew sum of [[0, t-a], [a-t, 0]] for a = 0..k-1 has rank 2k-2 at
    # t = 0..k-1, so it ranks t = 1..k: k points
    for k in range(1, 5):
        a = exactla.Mat.block_diag([exactla.Mat([[0, -i], [i, 0]]) for i in range(k)])
        b = exactla.Mat.block_diag([exactla.Mat([[0, 1], [-1, 0]])] * k)
        assert _points_ranked(monkeypatch, Pencil(a, b)) == ((2 * k, k), k)
    # an odd-dimensional skew pencil regular at t = 0 ranks no point, where
    # a scan bounded by Pfaffian degrees ranks (R+2)/2 + 1; singular there,
    # it ranks t = 1, 2, ... up to its regular value
    rng = random.Random(SEED + 18)
    regular_at_zero = singular_at_zero = 0
    while regular_at_zero < 10 or singular_at_zero < 3:
        jk = random_skew_jk(rng)
        if jk.dim % 2 == 0:
            continue
        p = congruent(skew_canonical(jk), rng)
        r = jk.dim - len(jk.kronecker)
        roots = [cls.poly for cls, _ in jk.jordan if not cls.is_infinite]
        value = lambda f, t: sum(c * t**i for i, c in enumerate(f))
        mu = next(t for t in range(r + 1) if all(value(f, t) for f in roots))
        assert _points_ranked(monkeypatch, p) == ((r, mu), mu)
        regular_at_zero += mu == 0
        singular_at_zero += mu > 0
    # a pencil regular at t = 0 ranks no point, whether it reaches
    # min(m, n) there or not; the zero pencil, whose chain limit is
    # everything and whose image is zero, is one of them
    zero = pencil_from_lists([[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]])
    assert _points_ranked(monkeypatch, zero) == ((0, 0), 0)
    wide = pencil_from_lists([[1, 1, 0]], [[0, 1, 1]])
    assert _points_ranked(monkeypatch, wide) == ((1, 0), 0)
    tall = pencil_from_lists([[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]])
    assert _points_ranked(monkeypatch, tall) == ((2, 0), 0)
    empty = Pencil(zeros(0, 3), zeros(0, 3))
    assert _points_ranked(monkeypatch, empty)[0] == (0, 0)


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
        smith = smith_invariant_factors(pencil_entries(p))
        assert invariant_factors(p) == smith
        checked += 1


def test_eigenvalue_convention():
    # A + t*B drops rank where t is minus a diagonal ratio
    p = pencil_from_lists([[1, 0], [0, 2]], [[1, 0], [0, 1]])
    divisors, inf_sizes = elementary_divisors(p)
    assert inf_sizes == ()
    assert {cls: sizes for cls, sizes in divisors} == {(1, 1): (1,), (2, 1): (1,)}


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
        (EigClass((0, 1)), (1,)),
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
        finite, inf_sizes = elementary_divisors(p)
        product = Poly([1])
        for cls, sizes in finite:
            product = product * monic(cls) ** sum(sizes)
        assert product == det.monic()
        assert sum(inf_sizes) == p.n - det.degree()
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
        jordan=((EigClass((-1, 0, 2)), (2, 1)),),
    )
    for p in (canonical_of(inv), scramble(canonical_of(inv), rng)):
        assert strict_invariants(p) == inv
    # an irrational class, t^2 - 2, alone
    inv = StrictInvariants(
        m=2,
        n=2,
        rank=2,
        horizontal=(),
        vertical=(),
        jordan=((EigClass((-2, 0, 1)), (1,)),),
    )
    assert strict_invariants(canonical_of(inv)) == inv


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


def test_reversed_swaps_zero_and_infinity():
    p = pencil_from_lists([[0, 0], [0, 1]], [[1, 0], [0, 0]])
    inv = strict_invariants(p)
    assert inv.jordan == (
        (EigClass((0, 1)), (1,)),
        (EigClass.infinite(), (1,)),
    )
    assert strict_invariants(reversed_pencil(p)).jordan == inv.jordan


def test_eigclass_validation():
    # a class is stored as a primitive integer polynomial with a positive
    # leading coefficient, never as its monic rational form
    for bad in (
        (2, 2),  # content 2
        (1, -1),  # negative leading coefficient
        (-1, 0, -2),
        (3,),  # constant
        (),
        (1, 0),  # trailing zero
        (Fraction(1, 2), 1),  # rational coefficients
        [-1, 1],  # not a tuple
        Poly((-1, 1)),  # a Fraction polynomial
    ):
        with pytest.raises(ValueError):
            EigClass(bad)
    assert EigClass.infinite().root_count == 1
    assert EigClass((-2, 0, 1)).root_count == 2
    assert EigClass((1, 2)).root_count == 1
    assert class_to_str(class_at_root(Fraction(1, 2))) == "t-1/2"


def test_invariants_validation():
    with pytest.raises(InternalConsistencyError):
        StrictInvariants(m=2, n=2, rank=3, horizontal=(), vertical=(), jordan=())
    with pytest.raises(InternalConsistencyError):
        # bookkeeping: widths must account for n - rank exactly
        StrictInvariants(m=2, n=3, rank=2, horizontal=(), vertical=(), jordan=())
    t, t1, inf = EigClass((0, 1)), EigClass((1, 1)), EigClass.infinite()
    # each record below breaks one rule and keeps every count and sum
    for bad in (
        dict(m=1, n=3, rank=1, horizontal=(1, 2), vertical=(), jordan=()),
        dict(m=3, n=1, rank=1, horizontal=(), vertical=(1, 2), jordan=()),
        dict(m=3, n=3, rank=3, horizontal=(), vertical=(), jordan=((t, (1, 2)),)),
        dict(m=2, n=2, rank=2, horizontal=(), vertical=(), jordan=((inf, (1,)), (t, (1,)))),
        dict(m=2, n=2, rank=2, horizontal=(), vertical=(), jordan=((t, (1,)), (t, (1,)))),
        dict(m=1, n=1, rank=1, horizontal=(), vertical=(), jordan=((t, ()), (t1, (1,)))),
    ):
        with pytest.raises(InternalConsistencyError):
            StrictInvariants(**bad)
    StrictInvariants(m=2, n=2, rank=2, horizontal=(), vertical=(), jordan=((t, (1,)), (inf, (1,))))


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
    # a pencil keeps its own singular structure, so nothing holds a
    # classified pencil once the caller drops it (tests/test_layout.py
    # checks that no function of the package is a memo)
    rng = random.Random(SEED + 6)
    for i in range(40):
        if i % 2:
            p = random_pencil(rng)
            strict_invariants(p)
        else:
            p = congruent(skew_canonical(random_skew_jk(rng)), rng)
            skew_jk_invariants(p)
            skewjk.mantle_subspace(p)
        freed = weakref.ref(p)
        del p
        gc.collect()
        assert freed() is None
    # nor a module-level dict used as a cache
    assert not [
        name
        for m in (exactla, pencils, polys, skewjk)
        for name, v in vars(m).items()
        if type(v) is dict and not name.startswith("__")
    ]


def test_minor_bound_stops_resolvent_ranks(monkeypatch):
    # t^3 - 2 is irreducible over Q: two 3x3 companion blocks and a
    # width-2 horizontal block, scrambled.  The regular part is 6 x 6, and
    # its determinant gives the exact totals: 2 at the cubic, 0 at infinity
    cubic = (-2, 0, 0, 1)
    inv = StrictInvariants(
        m=7,
        n=8,
        rank=7,
        horizontal=(2,),
        vertical=(),
        jordan=((EigClass(cubic), (1, 1)),),
    )
    p = scramble(canonical_of(inv), random.Random(SEED + 8))
    reg = _regular_part(p)
    assert reg.shape == (6, 6)
    t0 = regular_value(p)
    m = solve(reg.at(t0), reg.b)
    totals, inf_total = _class_totals(m, t0)
    assert (totals, inf_total) == ([(cubic, 2)], 0)
    calls = []
    real = pencils.rank

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(pencils, "rank", counted)
    # defect 2 at k = 1 already meets the total, so no kernel is taken and
    # the chain runs no step; g(M) is 6 wide, where the companion expansion
    # of the regular part would be 3 * 6 and that of the whole pencil 3 * 8
    assert _sizes_at_class(m, t0, cubic, 2, reg) == (1, 1)
    assert calls == [(6, 6)]
    assert _sizes_at_class(m, t0, None, 0, reg) == ()
    assert calls == [(6, 6)]
    # once the rank scan and the chains are done, that one g(M) is all the
    # eigenvalue stage ranks
    minimal_indices(p)
    calls.clear()
    assert elementary_divisors(p) == ([(cubic, (1, 1))], ())
    assert calls == [(6, 6)]


def test_sizes_without_a_tight_bound_agree():
    # sizes on the regular part, stopped at the exact total, against
    # resolvents of the whole pencil ranked until the defect repeats; a
    # total one above the truth fails
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 25:
        p = random_pencil(rng, max_m=5, max_n=5, bound=2)
        r = pencil_rank(p)
        if r == 0:
            continue
        cases = _chain_cases(p, with_empty_infinity=True)
        for m, t0, reg, cls, total, whole, oracle_cls in cases:
            expected = resolvent_sizes(whole, oracle_cls, r)
            assert sum(expected) == total
            assert _sizes_at_class(m, t0, cls, total, reg) == expected
            with pytest.raises(InternalConsistencyError):
                _sizes_at_class(m, t0, cls, total + 1, reg)
        checked += 1


def _shifted(p: Pencil) -> tuple[Mat, int, Pencil]:
    """M = (A_R + t0 B_R)^-1 B_R of the regular part A_R + t B_R of p, t0,
    the regular value of p, and the regular part."""
    reg, t0 = _regular_part(p), regular_value(p)
    return solve(reg.at(t0), reg.b), t0, reg


def _chain_cases(p: Pencil, with_empty_infinity: bool = False) -> list[tuple]:
    # every class of the pencil, finite and infinite (None), with its total
    # and the regular part with its M and t0, and the whole pencil with the
    # class the resolvent oracle reads it at (the reversed pencil at 0 for
    # infinity)
    m, t0, reg = _shifted(p)
    totals, inf_total = _class_totals(m, t0)
    cases = [(m, t0, reg, cls, total, p, cls) for cls, total in totals]
    if inf_total or with_empty_infinity:
        cases.append((m, t0, reg, None, inf_total, reversed_pencil(p), (0, 1)))
    return cases


# classes of degree 1 to 3 and infinity, with sizes up to 4 and repeats
_JORDAN_DRAWS = (
    (((-1, 1), (3, 3, 1)), (None, (2, 1))),
    (((1, 2), (4, 1)), ((-2, 0, 1), (2, 2))),
    (((-2, 0, 0, 1), (2, 1)), (None, (3,))),
    (((1, 0, 1), (3, 1, 1)),),
    (((0, 1), (4, 2, 2)), ((-1, -1, 1), (1,)), (None, (1, 1))),
    (((-2, 0, 0, 1), (1, 1)), (None, (4, 2))),
)


def test_jordan_chain_matches_resolvent_oracle():
    # sizes read off the Jordan chain of the regular part against k-fold
    # Fraction resolvents of the whole pencil, on scrambled canonical
    # pencils (some with singular blocks next to the classes) and on
    # congruence-scrambled skew pencils, whose folded blocks come in pairs
    rng = random.Random(SEED + 16)
    cases = []
    for i, draw in enumerate(_JORDAN_DRAWS):
        jordan = tuple(
            sorted(((EigClass(cls), sizes) for cls, sizes in draw), key=lambda cs: cs[0].sort_key())
        )
        # every other draw gets a width-2 and a height-1 block: two more
        # rows and columns, one more rank
        singular = i % 2
        jdim = sum(c.root_count * sum(sizes) for c, sizes in jordan)
        inv = StrictInvariants(
            m=jdim + 2 * singular,
            n=jdim + 2 * singular,
            rank=jdim + singular,
            horizontal=(2,) * singular,
            vertical=(1,) * singular,
            jordan=jordan,
        )
        p = scramble(canonical_of(inv), rng, bound=3)
        expected = {c.poly or (0, 1): sizes for c, sizes in jordan}
        cases.append((p, inv.rank, expected))
    while len(cases) < len(_JORDAN_DRAWS) + 25:
        jk = random_skew_jk(rng, max_dim=10)
        if not jk.jordan:
            continue
        p = congruent(skew_canonical(jk), rng, bound=3)
        r = jk.dim - len(jk.kronecker)
        # a folded size s2 stands for two blocks of size s2 / 2
        expected = {
            c.poly or (0, 1): tuple(s2 // 2 for s2 in sizes for _ in range(2))
            for c, sizes in jk.jordan
        }
        cases.append((p, r, expected))
    for p, r, expected in cases:
        found = {}
        for m, t0, reg, cls, total, whole, oracle_cls in _chain_cases(p):
            sizes = _sizes_at_class(m, t0, cls, total, reg)
            assert sizes == resolvent_sizes(whole, oracle_cls, r)
            with pytest.raises(InternalConsistencyError, match="stop below the total"):
                _sizes_at_class(m, t0, cls, total + 1, reg)
            found[oracle_cls] = sizes
        assert found == expected


# t, t - 1 and t - 2 make A, A + B and A + 2B singular, so that t0 reaches 3
_SHIFTING = (EigClass((0, 1)), EigClass((-1, 1)), EigClass((-2, 1)))


def _shift_classes(rng, i: int) -> list[EigClass]:
    """Up to three random classes; every third draw holds t and t - 1, so
    that t0 >= 2, and every sixth t - 2 as well."""
    forced = list(_SHIFTING[: 2 + (i % 6 == 0)]) if i % 3 == 0 else []
    pool = [c for c in CLASS_POOL + _SHIFTING[2:] if c not in forced]
    return forced + rng.sample(pool, rng.randint(0 if forced else 1, 3 - len(forced)))


def _mobius_jordan(rng, i: int, size, limit: int) -> tuple[list, int]:
    """Classes from ``_shift_classes`` with one or two block sizes each,
    drawn by ``size``, and their Jordan dimension, at most ``limit``."""
    while True:
        jordan = sorted(
            (
                (c, tuple(sorted((size() for _ in range(rng.randint(1, 2))), reverse=True)))
                for c in _shift_classes(rng, i)
            ),
            key=lambda cs: cs[0].sort_key(),
        )
        jdim = sum(c.root_count * sum(sizes) for c, sizes in jordan)
        if jdim <= limit:
            return jordan, jdim


def _mobius_strict(rng, i: int) -> StrictInvariants:
    """Random strict invariants whose Jordan dimension is at most 9."""
    jordan, jdim = _mobius_jordan(rng, i, lambda: rng.randint(1, 3), 9)
    horizontal = (rng.randint(1, 3),) if rng.random() < 0.3 else ()
    vertical = (rng.randint(1, 3),) if rng.random() < 0.3 else ()
    return StrictInvariants(
        m=sum(w - 1 for w in horizontal) + sum(vertical) + jdim,
        n=sum(horizontal) + sum(u - 1 for u in vertical) + jdim,
        rank=sum(w - 1 for w in horizontal) + sum(u - 1 for u in vertical) + jdim,
        horizontal=horizontal,
        vertical=vertical,
        jordan=tuple(jordan),
    )


def _mobius_skew(rng, i: int) -> SkewJK:
    """Random folded skew invariants whose Jordan dimension is at most 10."""
    jordan, jdim = _mobius_jordan(rng, i, lambda: 2 * rng.randint(1, 2), 10)
    kron = (rng.randint(1, 2),) if rng.random() < 0.3 else ()
    return SkewJK(dim=sum(2 * k - 1 for k in kron) + jdim, kronecker=kron, jordan=tuple(jordan))


def test_mobius_sizes_match_companion_chain_and_resolvents():
    # on 300 scrambled strict pencils and 100 congruent skew pencils, the
    # sizes read off the powers of the Möbius-shifted n_R x n_R matrix equal
    # those of the companion expansion's kernel chain and of k-fold Fraction
    # resolvents, both run on the regular part (reversed at infinity) until
    # their defects repeat, and the sizes the pencil was built with
    rng = random.Random(SEED + 18)
    cases = []
    for i in range(300):
        inv = _mobius_strict(rng, i)
        cases.append((scramble(canonical_of(inv), rng, bound=3), inv.jordan))
    for i in range(100):
        jk = _mobius_skew(rng, i)
        # a folded size s2 stands for two blocks of size s2 / 2
        jordan = tuple((c, tuple(s2 // 2 for s2 in sizes for _ in range(2))) for c, sizes in jk.jordan)
        cases.append((congruent(skew_canonical(jk), rng, bound=3), jordan))
    degrees, shifts = set(), []
    for p, jordan in cases:
        reg, t0 = _regular_part(p), regular_value(p)
        # the regular value is the first t >= 0 at which A_R + t B_R is
        # invertible
        assert t0 == next(t for t in range(reg.n + 1) if fraction_det(reg.at(t).tolist()))
        m = solve(reg.at(t0), reg.b)
        totals, inf_total = _class_totals(m, t0)
        found = {}
        for cls, total in totals + ([(None, inf_total)] if inf_total else []):
            q, at = (reg, cls) if cls else (reversed_pencil(reg), (0, 1))
            sizes = _sizes_at_class(m, t0, cls, total, reg)
            assert sizes == companion_sizes(q, at) == resolvent_sizes(q, at, reg.n)
            found[cls] = sizes
            degrees.add(len(cls) - 1 if cls else None)
        assert found == {c.poly: sizes for c, sizes in jordan}
        shifts.append(t0)
    assert degrees == {1, 2, 3, None}
    assert sum(t0 >= 2 for t0 in shifts) >= 100 and max(shifts) >= 3


# block sizes that a semisimple class cannot have: repeated and unequal
_UNEVEN_SIZES = ((3, 1), (2, 2), (2, 1, 1))


def _rational_class(rng, other: EigClass | None = None) -> EigClass:
    """The class of a random root u/v with |u| <= 4 and v <= 3, stored as
    (-u, v), other than ``other``."""
    while True:
        u, v = rng.randint(-4, 4), rng.randint(1, 3)
        if gcd(u, v) == 1 and EigClass((-u, v)) != other:
            return EigClass((-u, v))


def test_pencil_route_sizes_match_powers_of_g(monkeypatch):
    # at a degree-1 class and at infinity the sizes come from the Wong
    # chain of the regular pencil, whose entries are the pencil's, and
    # G = D^d g(M) is built only for classes of degree 2 or more; on
    # scrambled pencils with non-semisimple rational and infinite blocks,
    # some next to a quadratic class, a second rational class or singular
    # blocks, they equal the sizes read off the powers of G and those the
    # pencil was built with
    real = pencils._class_matrix

    def higher_degree_only(m, t0, cls):
        assert cls is not None and len(cls) > 2
        return real(m, t0, cls)

    monkeypatch.setattr(pencils, "_class_matrix", higher_degree_only)
    rng = random.Random(SEED + 19)
    seen = set()
    for i in range(90):
        first = _rational_class(rng)
        jordan = [(first, rng.choice(_UNEVEN_SIZES)), (EigClass.infinite(), rng.choice(_UNEVEN_SIZES))]
        if i % 3 == 0:
            jordan.append((EigClass((-2, 0, 1)), (rng.randint(1, 2),)))
        elif i % 3 == 1:
            jordan.append((_rational_class(rng, first), (rng.randint(1, 2),)))
        jordan.sort(key=lambda cs: cs[0].sort_key())
        singular = i % 2
        jdim = sum(c.root_count * sum(sizes) for c, sizes in jordan)
        inv = StrictInvariants(
            m=jdim + 2 * singular,
            n=jdim + 2 * singular,
            rank=jdim + singular,
            horizontal=(2,) * singular,
            vertical=(1,) * singular,
            jordan=tuple(jordan),
        )
        p = scramble(canonical_of(inv), rng, bound=3)
        reg, t0 = _regular_part(p), regular_value(p)
        m = solve(reg.at(t0), reg.b)
        totals, inf_total = _class_totals(m, t0)
        found = {}
        for cls, total in totals + [(None, inf_total)]:
            sizes = _sizes_at_class(m, t0, cls, total, reg)
            assert sizes == power_sizes(m, t0, cls, total)
            found[cls] = sizes
            if cls is None or len(cls) == 2:
                seen.add((cls is None, sizes))
        assert found == {c.poly: sizes for c, sizes in inv.jordan}
        assert strict_invariants(p) == inv
    assert seen >= {(inf, sizes) for inf in (False, True) for sizes in _UNEVEN_SIZES}


def test_jordan_chain_eliminates_only_regular_part_rows(monkeypatch):
    # t^3 - 2 with sizes (3, 1) on a 12 x 12 regular part: G = D^3 g(M) is
    # 12 x 12 too, and the chain runs to its third step with at most
    # 3 * 3 = 9 extra columns; the companion expansion would be 36 x 36,
    # and k-fold resolvents of it 72 x 72 and then 108 x 108.  The chain
    # eliminates [G | I] once, pivoting in G's 12 columns and carrying I's
    # along, and at each step continues that elimination in the columns
    # of the vectors the last step added only: dim W_k = 6, 9, 12
    cubic = (-2, 0, 0, 1)
    inv = StrictInvariants(
        m=12, n=12, rank=12, horizontal=(), vertical=(), jordan=((EigClass(cubic), (3, 1)),)
    )
    p = scramble(canonical_of(inv), random.Random(SEED + 17))
    m, t0, reg = _shifted(p)
    assert reg.shape == (12, 12)
    shapes = []
    real = exactla._echelon

    def recorded(rows, n, *state):
        shapes.append((len(rows), n, len(rows[0]) - n, state[:1]))
        return real(rows, n, *state)

    monkeypatch.setattr(exactla, "_echelon", recorded)
    assert _sizes_at_class(m, t0, cubic, 4, reg) == (3, 1)
    # one rank of G, one elimination of [G | I] from column 0, then per
    # step the same elimination continued from the last width, with I's
    # 12 columns still carried; no row space is eliminated
    assert shapes == [
        (12, 12, 0, ()),
        (12, 12, 12, (0,)),
        (12, 12 + 6, 12, (12,)),
        (12, 18 + 3, 12, (18,)),
    ]


def _low_rank(rng, m: int, n: int, r: int) -> Mat:
    """A random m x n matrix of rank at most r, with entries p/q for q up
    to 4."""
    x = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    y = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(r)]
    return Mat([[sum(a * b for a, b in zip(xr, col)) for col in zip(*y)] if y else [0] * n for xr in x], n=n)


def _chain_pair(rng) -> tuple[Mat, Mat]:
    """Random (M, B) of random ranks.  Half the time B is M Z for a random
    Z, so that B maps into the range of M and the chain, ker M plus the
    images of ker M under Z, Z^2, ..., grows for several steps."""
    n = rng.randint(0, 7)
    if rng.random() < 0.5:
        m = rng.randint(0, 7)
        return (
            _low_rank(rng, m, n, rng.randint(0, min(m, n))),
            _low_rank(rng, m, n, rng.randint(0, min(m, n))),
        )
    m = rng.randint(n, 7)
    a = _low_rank(rng, m, n, max(0, n - rng.randint(1, 2)))
    return a, matmul(a, _low_rank(rng, n, n, n))


def _same_chain(bases, oracle, n: int) -> bool:
    """Whether two lists of chain bases agree step by step: each basis is
    independent and spans the oracle's space."""
    return len(bases) == len(oracle) and all(
        len(row_space_basis(x, n)) == len(x) == len(y) == len(row_space_basis(x + y, n))
        for x, y in zip(bases, oracle)
    )


def test_continued_chain_matches_restart_oracle():
    rng = random.Random(SEED + 30)
    grew = 0
    for _ in range(1000):
        a, b = _chain_pair(rng)
        bases = [basis for basis, _ in islice(preimage_chain(a, b), 6)]
        assert _same_chain(bases, list(islice(restart_chain(a, b), 6)), a.n)
        grew += len(bases[2]) > len(bases[1]) > len(bases[0])
    # the comparison covers chains that grow for at least two steps
    assert grew >= 100


def _singular_pencils(rng) -> list[Pencil]:
    """Scrambled strict pencils and congruent skew pencils, each with a
    singular block."""
    out = []
    while len(out) < 30:
        inv = random_strict_invariants(rng)
        if inv.horizontal or inv.vertical:
            out.append(scramble(canonical_of(inv), rng))
    while len(out) < 45:
        jk = random_skew_jk(rng)
        if jk.kronecker:
            out.append(congruent(skew_canonical(jk), rng))
    return out


def test_continued_chain_matches_restart_oracle_on_pencils():
    # the kernel chains at the regular value, on both sides, and the Jordan
    # chain at every finite class of the regular part
    for p in _singular_pencils(random.Random(SEED + 31)):
        mu = regular_value(p)
        pairs = [(q.at(mu), q.b) for q in (p, p.transposed)]
        reg = _regular_part(p)
        if reg.n:
            m, t0, _ = _shifted(p)
            identity = Mat.from_ints([[int(i == j) for j in range(reg.n)] for i in range(reg.n)], reg.n)
            classes = [cls for cls, _ in _class_totals(m, t0)[0]] + [None]
            pairs += [(class_matrix(m, t0, cls), identity) for cls in classes]
        for a, b in pairs:
            bases = [basis for basis, _ in islice(preimage_chain(a, b), 6)]
            assert _same_chain(bases, list(islice(restart_chain(a, b), 6)), a.n)


def test_continued_chain_back_substitution_matches_gcd_oracle(monkeypatch):
    # every vector a chain back-substitutes, from its first elimination or
    # from one continued into appended columns, is the one the
    # gcd-rescaling oracle gives, up to its content and sign
    real = exactla._back_substitute
    calls = []

    def checked(rows, pivots, f, n):
        x = real(rows, pivots, f, n)
        assert exactla._primitive(x) == exactla._primitive(gcd_back_substitute(rows, pivots, f, n))
        calls.append(f)
        return x

    monkeypatch.setattr(exactla, "_back_substitute", checked)
    rng = random.Random(SEED + 33)
    continued = 0
    for _ in range(500):
        a, b = _chain_pair(rng)
        start = len(calls)
        for _ in islice(preimage_chain(a, b), 6):
            pass
        continued += any(f >= a.n for f in calls[start:])
    assert continued >= 100


def test_continued_rows_equal_one_stacked_elimination(monkeypatch):
    # every continued elimination leaves exactly the rows that eliminating
    # [db * M_int | -dm * B_int D_1 | ... | -dm * B_int D_k | -dm * B_int]
    # from scratch gives, pivoting left of the last n columns, where D_j
    # holds the vectors that step j added
    real = exactla._echelon
    continued = []

    def recorded(rows, n, *state):
        out = real(rows, n, *state)
        if state:
            continued.append(([list(r) for r in rows], n, out))
        return out

    monkeypatch.setattr(exactla, "_echelon", recorded)
    rng = random.Random(SEED + 32)
    checked = 0
    for _ in range(500):
        a, b = _chain_pair(rng)
        continued.clear()
        bases = [basis for basis, _ in islice(preimage_chain(a, b), 4)]
        # the first call eliminates M's columns, the next three continue
        assert len(continued) == 4
        for k, (rows, width, (r, pivots, _, last)) in enumerate(continued[1:]):
            # the basis is only ever extended, so D_1, ..., D_(k+1) are
            # the tails it gained
            assert bases[k + 1][: len(bases[k])] == bases[k]
            added = list(bases[k])
            assert width == a.n + len(added)
            stacked = [
                [b.den * x for x in ra]
                + [-a.den * sum(map(mul, rb, v)) for v in added]
                + [-a.den * y for y in rb]
                for ra, rb in zip(a.rows, b.rows)
            ]
            whole = real(stacked, width)
            assert rows == stacked
            assert (r, last) == (whole[0], whole[3])
            assert whole[1][r - len(pivots):] == pivots
            checked += bool(pivots)
    assert checked >= 100


def test_dependent_candidates_are_rejected(monkeypatch):
    # B kills a vector of W_k outside W_(k-1), so a free column of the new
    # block gives a candidate already in W_k; the chain must leave it out
    # and still span what the restart oracle spans.  Accepting every
    # candidate makes the basis grow past n, which raises instead of
    # looping for ever
    rejected = []
    real = exactla._reduced

    def recorded(echelon, v):
        x = real(echelon, v)
        rejected[-1] += not any(x)
        return x

    monkeypatch.setattr(exactla, "_reduced", recorded)
    rng = random.Random(SEED + 35)
    chains = []
    # capped, so that a hook the chain no longer calls fails here instead
    # of drawing for ever
    for _ in range(5000):
        a, b = _chain_pair(rng)
        rejected.append(0)
        bases = [basis for basis, _ in islice(preimage_chain(a, b), 6)]
        assert _same_chain(bases, list(islice(restart_chain(a, b), 6)), a.n)
        if rejected[-1]:
            chains.append((a, b))
            if len(chains) == 50:
                break
    assert len(chains) == 50
    # width-1 horizontal blocks are zero columns, in ker M and ker B
    inv = StrictInvariants(
        m=4, n=7, rank=4, horizontal=(3, 1, 1), vertical=(), jordan=((EigClass((-2, 1)), (2,)),)
    )
    p = scramble(canonical_of(inv), random.Random(SEED + 36))
    rejected.append(0)
    assert strict_invariants(p) == inv
    assert rejected[-1] >= 2
    chains.append((p.a, p.b))
    monkeypatch.setattr(exactla, "_reduced", lambda echelon, v: [1] * len(v))
    for a, b in chains:
        with pytest.raises(InternalConsistencyError, match="grew past the dimension"):
            list(islice(preimage_chain(a, b), a.n + 2))


def test_full_rank_pencils_run_one_chain(monkeypatch):
    # heights (3, 2) and t - 1 with size 2: a 7 x 5 pencil of full column
    # rank, whose right chain stops at its first step, which finds W_1 = 0
    # and takes the place of rank(A); its transpose has full row rank and
    # runs no left chain
    calls = []
    real = pencils.preimage_chain

    def counted(m, b):
        calls.append(m.shape)
        return real(m, b)

    monkeypatch.setattr(pencils, "preimage_chain", counted)
    inv = StrictInvariants(
        m=7, n=5, rank=5, horizontal=(), vertical=(3, 2), jordan=((EigClass((-1, 1)), (2,)),)
    )
    p = scramble(canonical_of(inv), random.Random(SEED + 33))
    assert minimal_indices(p) == ((), (3, 2))
    assert calls == [(7, 5), (5, 7)]
    # the rest runs only the Jordan chain at t - 1, on the 2 x 2 regular part
    assert strict_invariants(p) == inv
    assert calls == [(7, 5), (5, 7), (2, 2)]
    calls.clear()
    assert minimal_indices(p.transposed) == ((3, 2), ())
    assert calls == [(5, 7)]


@lru_cache(maxsize=1)
def _rank_fault_cases() -> tuple[tuple, list[tuple[Pencil, StrictInvariants]]]:
    """150 scrambled strict pencils and 150 congruent skew pencils, each
    with its invariants, and the state of the generator that drew them."""
    rng = random.Random(SEED + 34)
    cases = []
    while len(cases) < 300:
        if len(cases) % 2:
            p = scramble(canonical_of(random_strict_invariants(rng, 7, 8)), rng)
        else:
            p = congruent(skew_canonical(random_skew_jk(rng, 8)), rng)
        cases.append((p, strict_invariants(p)))
    return rng.getstate(), cases


def test_chain_kernels_must_agree_with_the_ranks(monkeypatch):
    # a deficiency of the right chain's limit one off proves a wrong normal
    # rank r.  One too low is exceeded by a rank, or, met at t = 0 or at an
    # eigenvalue, contradicts the left limit's deficiency (a skew pencil's
    # rank is even, so there it is never met); one too high is reached by no
    # t in 0..r.  Every pencil raises, and none gets a wrong answer
    state, cases = _rank_fault_cases()
    rng = random.Random()
    rng.setstate(state)
    real = pencils._deficiency
    for delta, message in (
        (1, "exceeds the normal rank|coimage has the wrong dimension"),
        (-1, r"no integer t in 0\.\.r reaches"),
    ):
        for p, want in cases:
            p = Pencil(p.a, p.b)
            # the left limit's deficiency is taken on the transposed pencil
            off = lambda q, v, p=p: (lambda d, ann: (d + delta * (q is p), ann))(*real(q, v))
            monkeypatch.setattr(pencils, "_deficiency", off)
            with pytest.raises(InternalConsistencyError, match=message):
                assert strict_invariants(p) == want
    # at a regular value t > 0 the chain runs again, and its limit's
    # deficiency is checked against the rank the limit at t = 0 proved
    inv = StrictInvariants(
        m=5,
        n=5,
        rank=4,
        horizontal=(2,),
        vertical=(2,),
        jordan=((EigClass((-1, 1)), (1,)), (EigClass((0, 1)), (1,))),
    )
    p = scramble(canonical_of(inv), rng)
    seen = []

    def second_off(q, v):
        d, ann = real(q, v)
        seen.append(q is p)
        return d + (seen.count(True) == 2), ann

    monkeypatch.setattr(pencils, "_deficiency", second_off)
    with pytest.raises(InternalConsistencyError, match="limit at the regular value disagrees"):
        strict_invariants(p)
    monkeypatch.undo()
    one, p = _mixed_case()
    # at t - 1 the defect is 2 of a total of 3, so the chain runs; a rank
    # one too high leaves a defect of 1 that its kernel contradicts
    m, t0, reg = _shifted(p)
    real_rank = pencils.rank
    monkeypatch.setattr(pencils, "rank", lambda mat: real_rank(mat) + 1)
    with pytest.raises(InternalConsistencyError, match=r"disagrees with the rank of g\(M\)"):
        _sizes_at_class(m, t0, one.poly, 3, reg)


def test_deficiency_and_rejection_count_must_agree(monkeypatch):
    # every deficiency one too high, on the right and the left limits
    # alike, can pass the rank checks: on a size-1 Jordan block at t = 0
    # the pencil would read as one of width 1 and height 1.  The candidates
    # each chain rejected count the same deficiency by another route, so
    # every pencil raises; so does a count one off either way
    _, cases = _rank_fault_cases()
    real = pencils._deficiency
    monkeypatch.setattr(pencils, "_deficiency", lambda q, v: (lambda d, ann: (d + 1, ann))(*real(q, v)))
    for p, _ in cases:
        with pytest.raises(InternalConsistencyError):
            strict_invariants(Pencil(p.a, p.b))
    monkeypatch.undo()
    real_chain = pencils._kernel_chain

    def shifted(shift):
        def chain(m, b, dim):
            dims, basis, rejected = real_chain(m, b, dim)
            return dims, basis, rejected + shift(b)

        return chain

    for delta in (1, -1):
        monkeypatch.setattr(pencils, "_kernel_chain", shifted(lambda b: delta))
        for p, _ in cases:
            with pytest.raises(InternalConsistencyError, match="rejected|by the left chain's count"):
                strict_invariants(Pencil(p.a, p.b))
        # the left chain's count alone, on the pencils that are not skew,
        # whose left chain runs on the transposed B
        for p, _ in cases[1::2]:
            monkeypatch.setattr(pencils, "_kernel_chain", shifted(lambda b, p=p: delta * (b is not p.b)))
            with pytest.raises(InternalConsistencyError, match="by the left chain's count"):
                strict_invariants(Pencil(p.a, p.b))
    monkeypatch.undo()


def test_rejected_candidates_count_the_kernel_of_b():
    # the count that comes with W_(k+1) is dim(W_k ∩ ker B) = dim W_k - rank(B W_k)
    rng = random.Random(SEED + 37)
    rejecting = 0
    for _ in range(300):
        a, b = _chain_pair(rng)
        previous = []
        for basis, rejected in islice(preimage_chain(a, b), 5):
            image = [[sum(map(mul, row, v)) for row in b.rows] for v in previous]
            assert rejected == len(previous) - rank(Mat.from_ints(image, b.m))
            rejecting += rejected > 0
            previous = basis
    assert rejecting >= 50


def _mixed_case() -> tuple[EigClass, Pencil]:
    # class t - 1 with sizes (2, 1), infinite sizes (1, 1), a height-2 block
    one = EigClass((-1, 1))
    inv = StrictInvariants(
        m=7,
        n=6,
        rank=6,
        horizontal=(),
        vertical=(2,),
        jordan=((one, (2, 1)), (EigClass.infinite(), (1, 1))),
    )
    return one, canonical_of(inv)


def _shift_totals(monkeypatch, one: EigClass, infinite: bool, shift: int) -> None:
    real = pencils._class_totals

    def shifted(m, t0):
        totals, inf_total = real(m, t0)
        if infinite:
            return totals, inf_total + shift
        return [(f, t + shift if f == one.poly else t) for f, t in totals], inf_total

    monkeypatch.setattr(pencils, "_class_totals", shifted)


@pytest.mark.parametrize("infinite", [False, True])
def test_bound_below_the_truth_fails(monkeypatch, infinite):
    # one total below the truth: t - 1 given 2 instead of 3 (its defect
    # meets 2 at k = 1, so the sizes come out (1, 1) and the bookkeeping
    # fails), or infinity given 1 instead of 2 (its first defect exceeds it)
    one, p = _mixed_case()
    _shift_totals(monkeypatch, one, infinite, -1)
    with pytest.raises(InternalConsistencyError):
        strict_invariants(p)


@pytest.mark.parametrize("infinite", [False, True])
def test_total_above_the_truth_fails(monkeypatch, infinite):
    # one total above the truth: the defects stop growing below it
    one, p = _mixed_case()
    _shift_totals(monkeypatch, one, infinite, 1)
    with pytest.raises(InternalConsistencyError, match="stop below the total"):
        strict_invariants(p)


def test_an_equal_pencil_computes_its_own_chains(monkeypatch):
    # the singular structure belongs to the pencil object, not to its
    # value: an equal pencil built later runs its own chains, so a fault
    # injected after p was classified shows on it instead of p's results.
    # A regular pencil with A invertible, where a deficiency one too high
    # proves a normal rank below rank(A)
    inv = StrictInvariants(
        m=4,
        n=4,
        rank=4,
        horizontal=(),
        vertical=(),
        jordan=((EigClass((-1, 1)), (2, 1)), (EigClass.infinite(), (1,))),
    )
    p = scramble(canonical_of(inv), random.Random(SEED + 38))
    assert strict_invariants(p) == inv
    real = pencils._deficiency
    monkeypatch.setattr(pencils, "_deficiency", lambda q, v: (lambda d, ann: (d + 1, ann))(*real(q, v)))
    q = Pencil(p.a, p.b)
    assert q == p and hash(q) == hash(p)
    with pytest.raises(InternalConsistencyError, match="exceeds the normal rank"):
        strict_invariants(q)


def test_regular_value_on_an_eigenvalue_fails(monkeypatch):
    # the Möbius shift is taken at the pencil's regular value; moved onto
    # the eigenvalue 1 of the class t - 1, A_R + B_R is singular, and the
    # solve for M fails the same way as on a singular regular part
    one, p = _mixed_case()
    chains = _kernel_chains(p)
    assert chains.regular != 1
    assert elementary_divisors(p)[0] == [(one.poly, (2, 1))]
    monkeypatch.setattr(pencils, "_kernel_chains", lambda q: chains._replace(regular=1))
    with pytest.raises(InternalConsistencyError, match="regular value is an eigenvalue"):
        elementary_divisors(Pencil(p.a, p.b))


def test_mobius_check_can_fail(monkeypatch):
    # one entry of N in M = N / D changed: totals and sizes would both read
    # the wrong M, so only the product (A_R + t0 B_R) N = D B_R catches it
    _, p = _mixed_case()
    real = pencils.solve

    def off_by_one(a, b):
        m = real(a, b)
        rows = [list(r) for r in m.rows]
        rows[0][0] += 1
        return Mat.from_ints(rows, m.n, m.den)

    monkeypatch.setattr(pencils, "solve", off_by_one)
    with pytest.raises(InternalConsistencyError, match="does not solve its system"):
        elementary_divisors(p)


def test_integer_candidates_match_fraction_path():
    # random draws: the totals read off M's characteristic polynomial equal
    # those from the gcd of every full-rank minor over Q and those of the
    # regular part's determinant, interpolated from Fraction determinants,
    # and sit inside the two-minor candidates, which may hold extra classes;
    # the all-minors oracle factors its gcd with sympy
    pytest.importorskip("sympy")
    rng = random.Random(SEED + 10)
    checked = 0
    while checked < 40:
        p = random_pencil(rng, max_m=5, max_n=5, bound=3)
        r = pencil_rank(p)
        if r == 0:
            continue
        totals, inf_total = _class_totals(*_shifted(p)[:2])
        assert (totals, inf_total) == all_minor_totals(p, r)
        reg = _regular_part(p)
        det = interp_det(reg)
        product = Poly([1])
        for cls, total in totals:
            product = product * monic(cls) ** total
        assert product == det.monic()
        assert inf_total == reg.n - det.degree()
        candidates, inf_bound = fraction_candidates(p, r)
        bounds = dict(candidates)
        assert all(total <= bounds[f] for f, total in totals)
        assert inf_total <= inf_bound
        checked += 1
    # quadratic and cubic classes with repeated sizes, next to singular
    # and infinite blocks, scrambled: the totals are exactly the sums of
    # the sizes, class by class
    higher = [c for c in CLASS_POOL if c.root_count > 1 and not c.is_infinite]
    for i in range(12):
        picked = rng.sample(higher, 2) + [EigClass((rng.randint(-3, 3), 1)), EigClass.infinite()]
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
        reg = _regular_part(p)
        assert reg.shape == (jdim, jdim)
        totals, inf_total = _class_totals(*_shifted(p)[:2])
        assert totals == [(c.poly, sum(s)) for c, s in inv.jordan if not c.is_infinite]
        assert inf_total == sum(infinite_sizes(inv))
        candidates, inf_bound = fraction_candidates(p, inv.rank)
        bounds = dict(candidates)
        assert all(total <= bounds[f] for f, total in totals)
        assert inf_total <= inf_bound
        assert strict_invariants(p) == inv


def test_no_candidate_without_blocks(monkeypatch):
    # among these, the two-minor candidates of the random 1 x 3 draw and of
    # the skew pencil with the single Kronecker index 2 held a class that
    # carries no block
    returned = []
    real = pencils._sizes_at_class

    def recorded(m, t0, cls, total, reg):
        sizes = real(m, t0, cls, total, reg)
        returned.append((cls, sizes))
        return sizes

    monkeypatch.setattr(pencils, "_sizes_at_class", recorded)
    rng = random.Random(SEED + 11)
    cases = [random_pencil(rng, max_m=5, max_n=5, bound=2) for _ in range(40)]
    rng = random.Random(SEED + 12)
    cases += [congruent(skew_canonical(random_skew_jk(rng)), rng) for _ in range(40)]
    for p in cases:
        start = len(returned)
        finite, inf_sizes = elementary_divisors(p)
        calls = returned[start:]
        # one call per finite class, each with blocks, then one for infinity
        assert calls[:-1] == finite
        assert all(sizes for _, sizes in calls[:-1])
        assert calls[-1] == (None, inf_sizes)


def _transposed_invariants(inv: StrictInvariants) -> StrictInvariants:
    return StrictInvariants(
        m=inv.n,
        n=inv.m,
        rank=inv.rank,
        horizontal=inv.vertical,
        vertical=inv.horizontal,
        jordan=inv.jordan,
    )


def _infinite_sizes_by_smith(p: Pencil) -> tuple[int, ...]:
    # the elementary divisors s**k of B + s*A are the infinite blocks of A + t*B
    sizes = []
    for f in smith_invariant_factors(pencil_entries(reversed_pencil(p))):
        k = next(i for i, c in enumerate(f.coeffs) if c)
        if k:
            sizes.append(k)
    return tuple(sorted(sizes, reverse=True))


def test_regular_part_is_the_jordan_part():
    # the regular part is square of the Jordan dimension, of full normal
    # rank, and the invariants read off it are the pencil's
    rng = random.Random(SEED + 13)

    def check(p: Pencil, jdim: int) -> Pencil:
        reg = _regular_part(p)
        assert reg.shape == (jdim, jdim)
        assert eval_rank(reg) == jdim
        return reg

    for _ in range(150):
        inv = random_strict_invariants(rng)
        p = scramble(canonical_of(inv), rng)
        for q, expected in ((p, inv), (p.transposed, _transposed_invariants(inv))):
            check(q, inv.jordan_dimension())
            assert strict_invariants(q) == expected
    for _ in range(100):
        jk = random_skew_jk(rng)
        p = congruent(skew_canonical(jk), rng)
        reg = check(p, jk.jordan_dimension())
        assert reg.a.is_skew() and reg.b.is_skew()
        assert skew_jk_invariants(p) == jk
    # rational draws against the Smith form of the pencil and of its
    # reversal, and the Fraction determinant of the regular part
    checked = 0
    while checked < 30:
        p = random_pencil(rng, max_m=4, max_n=4, bound=2)
        inv = strict_invariants(p)
        if inv.rank == 0:
            continue
        reg = check(p, inv.jordan_dimension())
        smith = smith_invariant_factors(pencil_entries(p))
        assert invariant_factors(p) == smith
        product = Poly([1])
        for f in smith:
            product = product * f
        det = interp_det(reg)
        assert det.monic() == product.monic()
        assert infinite_sizes(inv) == _infinite_sizes_by_smith(p)
        assert reg.n - det.degree() == sum(infinite_sizes(inv))
        checked += 1


def test_skew_pencils_run_one_chain(monkeypatch):
    calls = []
    real = pencils._kernel_chain

    def counted(mat, b, dim):
        calls.append(mat.shape)
        return real(mat, b, dim)

    monkeypatch.setattr(pencils, "_kernel_chain", counted)
    rng = random.Random(SEED + 14)
    jk = random_skew_jk(rng)
    while len(jk.kronecker) < 2:
        jk = random_skew_jk(rng)
    p = congruent(skew_canonical(jk), rng)
    _, _, widths, heights, right, left, _ = _kernel_chains(p)
    assert len(calls) == 1
    assert widths == heights == jk.kronecker
    assert left == right
    # a strictly equivalent pencil that is not skew runs both chains
    calls.clear()
    q = scramble(p, rng)
    assert not q.a.is_skew()
    assert minimal_indices(q) == (widths, heights)
    assert len(calls) == 2


def _deflation_case() -> Pencil:
    # widths (3, 1), heights (2,), class t - 1 with sizes (2, 1), scrambled
    inv = StrictInvariants(
        m=7,
        n=8,
        rank=6,
        horizontal=(3, 1),
        vertical=(2,),
        jordan=((EigClass((-1, 1)), (2, 1)),),
    )
    return scramble(canonical_of(inv), random.Random(SEED + 15))


@pytest.mark.parametrize(
    "fault, message",
    [
        ("right", "not square"),
        ("left", "coimage has the wrong dimension"),
        ("drop", "not square"),
        ("singular", "regular part is singular"),
    ],
)
def test_deflation_checks_can_fail(monkeypatch, fault, message):
    p = _deflation_case()
    real_chains = _kernel_chains(p)
    right, left = real_chains.right, real_chains.left
    # a vector outside the horizontal (or vertical) blocks in place of the
    # last one of the chain limit, the limit short of one vector, or a
    # regular part with a zero column; the image of the right limit is
    # cached with it, so a right limit that moves without it leaves a
    # complement of the wrong size
    outside = tuple([1] * p.n)
    if fault == "right":
        chains = real_chains._replace(right=right[:-1] + (outside,))
    elif fault == "left":
        chains = real_chains._replace(left=left[:-1] + (tuple([1] * p.m),))
    elif fault == "drop":
        chains = real_chains._replace(right=right[:-1])
    if fault == "singular":
        real = pencils._regular_part

        def zero_column(q):
            reg = real(q)
            cut = lambda mat: exactla.Mat([r[:-1] + (0,) for r in mat.rows], n=mat.n)
            return Pencil(cut(reg.a), cut(reg.b))

        monkeypatch.setattr(pencils, "_regular_part", zero_column)
    else:
        monkeypatch.setattr(pencils, "_kernel_chains", lambda q: chains)
    with pytest.raises(InternalConsistencyError, match=message):
        elementary_divisors(p)


def test_complement_matches_pivot_oracle():
    # on random kernels and random independent vectors inside them, the
    # free-coordinate complement keeps exactly the vectors that the pivot
    # columns of [inside | basis] keep; a vector moved off the kernel at a
    # coordinate that is not free keeps its free coordinates, and raises
    rng = random.Random(SEED + 37)
    partial = moved = 0
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(1, 8)
        basis = exactla.KernelView(_low_rank(rng, m, n, rng.randint(0, min(m, n))))
        inside: list[tuple[int, ...]] = []
        for _ in range(rng.randint(0, len(basis))):
            used = rng.sample(range(len(basis)), rng.randint(1, len(basis)))
            coeffs = [(rng.randint(-3, 3), basis[j]) for j in used]
            v = tuple(sum(c * w[i] for c, w in coeffs) for i in range(n))
            if rank(Mat.from_ints(inside + [v], n)) > len(inside):
                inside.append(v)
        assert _complement(inside, basis) == pivot_complement(inside, basis, n)
        partial += 0 < len(inside) < len(basis)
        free = basis.free
        bound = [j for j in range(n) if j not in free]
        if inside and bound:
            v = list(inside[-1])
            v[rng.choice(bound)] += rng.choice((-1, 1))
            with pytest.raises(InternalConsistencyError, match="outside the kernel"):
                _complement(inside[:-1] + [tuple(v)], basis)
            moved += 1
    assert partial >= 100 and moved >= 100


def test_kernel_views_and_sparse_restriction_match_the_dense_oracles(monkeypatch):
    # on 150 scrambled strict and 150 congruent skew pencils, each
    # deficiency has the count, free columns and functionals of the eager
    # ``kernel_basis`` route, and each regular part has the rows of the
    # product over every coordinate of its complements
    calls = patch_dense_checks(monkeypatch, pencils)
    rng = random.Random(SEED + 41)
    for k in range(300):
        if k % 2:
            inv = random_strict_invariants(rng, 7, 8)
            assert strict_invariants(scramble(canonical_of(inv), rng)) == inv
        else:
            jk = random_skew_jk(rng, 8)
            assert skew_jk_invariants(congruent(skew_canonical(jk), rng)) == jk
    assert calls["deficiency"] >= 450 and calls["restricted"] >= 150


def test_functionals_are_back_substituted_only_for_complements(monkeypatch):
    # a pencil with an empty Jordan part, or with no singular block, reads
    # its kernel views only for their counts, strict or skew; the probe
    # sees the back-substitutions of a pencil with both parts, ker U for
    # the columns and then Ann W for the rows
    read = []
    real = exactla.KernelView.vectors

    def vectors(view):
        if view._vectors is None:
            read.append(len(view))
        return real.fget(view)

    monkeypatch.setattr(exactla.KernelView, "vectors", property(vectors))
    rng = random.Random(SEED + 42)
    one = EigClass((-1, 1))
    for inv in (
        StrictInvariants(m=4, n=5, rank=3, horizontal=(3, 1), vertical=(2,), jordan=()),
        StrictInvariants(
            m=4, n=4, rank=4, horizontal=(), vertical=(), jordan=((one, (2, 1)), (EigClass.infinite(), (1,)))
        ),
    ):
        assert strict_invariants(scramble(canonical_of(inv), rng)) == inv
    for jk in (
        SkewJK(dim=9, kronecker=(3, 2, 1), jordan=()),
        SkewJK(dim=6, kronecker=(), jordan=((one, (4, 2)),)),
    ):
        assert skew_jk_invariants(congruent(skew_canonical(jk), rng)) == jk
    assert read == []
    p = _deflation_case()
    strict_invariants(p)
    assert read == [len(_deficiency(p.transposed, list(p.chains.left))[1]), len(p.chains.ann_image)]


def test_limit_vector_outside_the_kernel_raises(monkeypatch):
    # the last vector of the right limit moved off ker U at a coordinate
    # that is not free in ker U's basis: its free coordinates, and so the
    # count of vectors the complement keeps, are those of the true limit,
    # while [inside | basis] would gain a pivot.  The membership check in
    # the complement must raise
    p = _deflation_case()
    real_chains = _kernel_chains(p)
    ker_coimage = pencils._deficiency(p.transposed, list(real_chains.left))[1]
    free = ker_coimage.free
    bound = next(j for j in range(p.n) if j not in free)
    v = list(real_chains.right[-1])
    v[bound] += 1
    right = real_chains.right[:-1] + (tuple(v),)
    assert [v[f] for f in free] == [real_chains.right[-1][f] for f in free]
    wrong = pivot_complement(right, ker_coimage, p.n)
    assert len(wrong) == len(pivot_complement(real_chains.right, ker_coimage, p.n)) + 1
    monkeypatch.setattr(pencils, "_kernel_chains", lambda q: real_chains._replace(right=right))
    with pytest.raises(InternalConsistencyError, match="outside the kernel it is completed in"):
        elementary_divisors(p)


def test_short_first_kernel_of_the_right_chain_raises(monkeypatch):
    # rank(A) is read off the right chain's first kernel alone, so one
    # vector short there reads as rank(A) + 1: above r at a regular t = 0,
    # and at rank(A) = r - 1 the left chain's kernel or the regular part
    # disagrees.  Every such pencil raises.  Below r - 1 the chain runs
    # again at the regular value, whose result is the answer, and an A of
    # full column rank has no vector to lose
    _, cases = _rank_fault_cases()
    real = pencils.preimage_chain
    raised = 0
    for p, want in cases:
        p = Pencil(p.a, p.b)

        def short(m, b, p=p):
            chain = real(m, b)
            if m is p.a:
                basis, rejected = next(chain)
                yield basis[:-1], rejected
            yield from chain

        monkeypatch.setattr(pencils, "preimage_chain", short)
        low = rank(p.a)
        if want.rank - 1 <= low < p.n:
            with pytest.raises(InternalConsistencyError):
                strict_invariants(p)
            raised += 1
        else:
            assert strict_invariants(p) == want
    assert raised >= 150
    monkeypatch.undo()
