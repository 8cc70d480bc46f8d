"""Integer polynomials and their factorization over Z.

A polynomial is a sequence of ints, lowest degree first (``ZPoly`` for
the plain lists the algorithms work on).  An eigenvalue class is a monic
irreducible polynomial over Q, and by Gauss's lemma it has exactly one
primitive integer associate with a positive leading coefficient: that
tuple is how a class is stored.  ``integer_factors`` splits the integer
determinant of a pencil's regular part into such factors, with
multiplicities, in one factorization over Z.  Only ``poly_sort_key`` and
``format_poly``, which order and print classes, divide by the leading
coefficient to reach the monic rational form.

The factorization is the classical Zassenhaus algorithm (von zur Gathen
and Gerhard, *Modern Computer Algebra*, chapters 14 and 15), in pure
Python.  The content and any power of t come off first; Yun's algorithm
on primitive integer remainder sequences gives the squarefree parts.  A
linear part is irreducible, and a quadratic part splits exactly when its
discriminant is a perfect square (``math.isqrt``), into two linear
factors read off the square root.  For each part of degree 3 or more, a
few primes that keep its leading coefficient and keep it squarefree are
tried, each by distinct-degree factorization, and the one
with the fewest factors is kept; the degrees a factor over Z could have
must be subset sums of the factor degrees mod every prime tried, which
often proves a part irreducible at once.  Equal-degree (Cantor and
Zassenhaus) splitting gives the factors mod p, multifactor Hensel lifting
on a balanced factor tree carries them past twice the leading coefficient
times the Mignotte bound, and subsets of the lifted factors are tried by
increasing size, keeping the ones that divide exactly.  That search can
be exponential in the number of modular factors, so once it has tried
``MAX_RECOMBINATION_SUBSETS`` subsets it is refused with
:class:`~penciljk.errors.FactorizationLimitError`.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd as int_gcd, isqrt
from typing import Sequence

from .errors import FactorizationLimitError


def poly_sort_key(p: Sequence[int]):
    """Order of classes: by degree, then by the coefficients of the monic
    associate, lowest degree first.  A monic p is its own associate, and
    ints compare with Fractions by value, so it needs no division."""
    lead = p[-1]
    if lead == 1:
        return (len(p) - 1, tuple(p))
    return (len(p) - 1, tuple(Fraction(c, lead) for c in p))


def format_poly(p: Sequence[int], var: str = "x") -> str:
    """The monic associate of a nonzero integer polynomial, highest degree
    first, with rational coefficients written p/q."""
    parts: list[str] = []
    for d in range(len(p) - 1, -1, -1):
        c = Fraction(p[d], p[-1])
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            xpart = var if d == 1 else f"{var}^{d}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# fraction-free integer polynomial helpers

ZPoly = list[int]


def _zdeg(p: ZPoly) -> int:
    return len(p) - 1


def _ztrim(p: ZPoly) -> ZPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _zmul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _zadd(a: ZPoly, b: ZPoly) -> ZPoly:
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] += c
    return _ztrim(out)


def _zcontent(p: ZPoly) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, c)
    return g


def _zpseudo_divmod(a: ZPoly, b: ZPoly) -> tuple[int, ZPoly, ZPoly]:
    """Return (s, q, r) with s*a = q*b + r, deg r < deg b, s a power of lc(b)."""
    if not b:
        raise ZeroDivisionError
    da, db = _zdeg(a), _zdeg(b)
    if da < db:
        return 1, [], list(a)
    lead = b[-1]
    s = 1
    r = list(a)
    q = [0] * (da - db + 1)
    for i in range(da, db - 1, -1):
        if len(r) - 1 < i:
            continue
        c = r[i] if i < len(r) else 0
        if c == 0:
            continue
        # scale remainder so the division is integral
        s *= lead
        r = [lead * x for x in r]
        q = [lead * x for x in q]
        q[i - db] += c
        for j, bc in enumerate(b):
            r[i - db + j] -= c * bc
        _ztrim(r)
    return s, _ztrim(q), r


# ---------------------------------------------------------------------------
# factorization over Z (Zassenhaus: factor mod p, Hensel-lift, recombine)

# Recombination tries subsets of the modular factors, so its cost can grow
# like 2**r in the number r of factors mod the chosen prime.  Past this
# many subsets tried (a few seconds of work) the factorization is refused
# rather than left to run for hours.
MAX_RECOMBINATION_SUBSETS = 400_000
# good primes whose factor counts are compared before one is chosen
_PRIMES_TRIED = 3


def _zprimitive(p: ZPoly) -> ZPoly:
    """p divided by its content, with a positive leading coefficient."""
    g = _zcontent(p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else [c // g for c in p]


def _zderivative(p: ZPoly) -> ZPoly:
    return [i * c for i, c in enumerate(p)][1:]


def _zgcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd of two nonzero integer polynomials (primitive remainder
    sequence: each pseudo-remainder is divided by its content)."""
    a, b = _zprimitive(a), _zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        _, _, r = _zpseudo_divmod(a, b)
        a, b = b, _zprimitive(r) if r else r
    return a


def _zexact_div(a: ZPoly, b: ZPoly) -> ZPoly | None:
    """a / b when b divides a in Z[x], else None."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    if len(r) <= db:
        return None
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c, rest = divmod(r[i], lead)
        if rest:
            return None
        if c:
            q[i - db] = c
            for j, bc in enumerate(b):
                r[i - db + j] -= c * bc
    return None if any(r[:db]) else q


def _zsquarefree(p: ZPoly) -> list[tuple[ZPoly, int]]:
    """Yun's algorithm over Z on a primitive polynomial of positive degree:
    pairwise coprime primitive squarefree parts with their multiplicities.
    Gauss's lemma makes every division by a primitive gcd exact in Z[x]."""
    dp = _zderivative(p)
    a = _zgcd(p, dp)
    b, c = _zexact_div(p, a), _zexact_div(dp, a)
    out: list[tuple[ZPoly, int]] = []
    i = 1
    while len(b) > 1:
        d = _zadd(c, [-x for x in _zderivative(b)])
        a = _zgcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b, c = _zexact_div(b, a), _zexact_div(d, a) if d else []
        i += 1
    return out


# -- arithmetic on polynomials with coefficients mod m (lowest degree first)


def _mtrim(a: ZPoly, m: int) -> ZPoly:
    return _ztrim([c % m for c in a])


def _mmul(a: ZPoly, b: ZPoly, m: int) -> ZPoly:
    return _mtrim(_zmul(a, b), m)


def _mdivmod(a: ZPoly, b: ZPoly, m: int) -> tuple[ZPoly, ZPoly]:
    """Division by b, whose leading coefficient is a unit mod m."""
    r = _mtrim(a, m)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, m)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % m
        if c:
            q[i - db] = c
            for j, bc in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * bc) % m
    return q, _ztrim(r[:db])


def _mmonic(a: ZPoly, m: int) -> ZPoly:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _pgcd(a: ZPoly, b: ZPoly, p: int) -> ZPoly:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _mdivmod(a, b, p)[1]
    return _mmonic(a, p) if a else a


def _pxgcd(a: ZPoly, b: ZPoly, p: int) -> tuple[ZPoly, ZPoly]:
    """(s, t) with s*a + t*b = 1 over F_p, for coprime a and b;
    deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mtrim(_zadd(s0, [-c for c in _zmul(q, s1)]), p)
        t0, t1 = t1, _mtrim(_zadd(t0, [-c for c in _zmul(q, t1)]), p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _ppowmod(a: ZPoly, e: int, f: ZPoly, p: int) -> ZPoly:
    """a**e mod f over F_p, f monic."""
    out, base = [1], _mdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mdivmod(_zmul(out, base), f, p)[1]
        e >>= 1
        if e:
            base = _mdivmod(_zmul(base, base), f, p)[1]
    return out


def _distinct_degree(f: ZPoly, p: int) -> list[tuple[ZPoly, int]]:
    """Distinct-degree factorization of a monic squarefree f over F_p:
    (product of all irreducible factors of degree d, d) for each d."""
    out: list[tuple[ZPoly, int]] = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _ppowmod(h, p, f, p)
        g = _pgcd(f, _mtrim(_zadd(h, [0, -1]), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mdivmod(f, g, p)[0]
            h = _mdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: ZPoly, d: int, p: int, rng: random.Random) -> list[ZPoly]:
    """Cantor–Zassenhaus split of a monic squarefree g over F_p (p odd)
    whose irreducible factors all have degree d."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = _ztrim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        u = _pgcd(g, _mtrim(_zadd(_ppowmod(a, e, g, p), [-1]), p), p)
        if 1 < len(u) < len(g):
            return _equal_degree(u, d, p, rng) + _equal_degree(_mdivmod(g, u, p)[0], d, p, rng)


def _hensel_step(
    f: ZPoly, g: ZPoly, h: ZPoly, s: ZPoly, t: ZPoly, m: int
) -> tuple[ZPoly, ZPoly, ZPoly, ZPoly]:
    """Lift f = g*h, s*g + t*h = 1 (h monic) from mod m to mod m**2
    (von zur Gathen & Gerhard, Algorithm 15.10)."""
    m2 = m * m
    e = _mtrim(_zadd(f, [-c for c in _zmul(g, h)]), m2)
    q, r = _mdivmod(_zmul(s, e), h, m2)
    g = _mtrim(_zadd(_zadd(g, _zmul(t, e)), _zmul(q, g)), m2)
    h = _mtrim(_zadd(h, r), m2)
    b = _mtrim(_zadd(_zadd(_zmul(s, g), _zmul(t, h)), [-1]), m2)
    c, d = _mdivmod(_zmul(s, b), h, m2)
    s = _mtrim(_zadd(s, [-x for x in d]), m2)
    t = _mtrim(_zadd(t, [-x for x in _zadd(_zmul(t, b), _zmul(c, g))]), m2)
    return g, h, s, t


def _hensel_lift(f: ZPoly, factors: list[ZPoly], p: int, steps: int) -> list[ZPoly]:
    """Monic lifts mod p**(2**steps) of monic factors with
    f = lc(f) * prod(factors) mod p, pairwise coprime mod p: a balanced
    factor tree, each node lifted quadratically."""
    if len(factors) == 1:
        return [_mmonic(f, p ** (2**steps))]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _mmul(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = _mmul(h, u, p)
    s, t = _pxgcd(g, h, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:half], p, steps) + _hensel_lift(h, factors[half:], p, steps)


def _primes():
    yield 3
    q = 5
    while True:
        if all(q % k for k in range(3, int(q**0.5) + 1, 2)):
            yield q
        q += 2


def _degree_sums(degrees: list[int]) -> int:
    """Bit mask of the degrees of all products of the given factors."""
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _zfactor_squarefree(f: ZPoly) -> list[ZPoly]:
    """Primitive irreducible factors of a primitive squarefree f with a
    positive leading coefficient and f(0) != 0.

    A quadratic c + b t + a t^2 splits over Q exactly when its
    discriminant b^2 - 4ac is a square s^2, into the primitive parts of
    2a t + b - s and 2a t + b + s, whose product is f by Gauss's lemma;
    otherwise it is irreducible."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc > 0 else 0
        if s * s != disc:
            return [f]
        return [_zprimitive([b - s, 2 * a]), _zprimitive([b + s, 2 * a])]
    # choose among a few good primes the one with the fewest factors; a
    # factor over Z is a product of factors mod every prime, so its degree
    # is a subset sum of the factor degrees mod each of them
    best = None
    mask = (1 << (n + 1)) - 1
    tried = 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        fp = _mmonic(_mtrim(f, p), p)
        if len(_pgcd(fp, _mtrim(_zderivative(fp), p), p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        degrees = [d for g, d in ddf for _ in range((len(g) - 1) // d)]
        mask &= _degree_sums(degrees)
        if len(degrees) == 1 or mask == (1 | 1 << n):
            return [f]
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, ddf)
        tried += 1
        if tried == _PRIMES_TRIED:
            break
    _, p, ddf = best
    rng = random.Random(n)
    modular = [u for g, d in ddf for u in _equal_degree(g, d, p, rng)]
    # a factor's coefficients are at most the Mignotte bound
    # binom(n, n // 2) * ||f||_2 in size; lc(f) times it must be recovered
    # from its symmetric residue
    bound = 2 * f[-1] * comb(n, n // 2) * (isqrt(sum(c * c for c in f)) + 1)
    steps, modulus = 0, p
    while modulus <= bound:
        steps, modulus = steps + 1, modulus * modulus
    lifted = _hensel_lift(f, modular, p, steps)
    return _recombine(f, lifted, modulus, mask)


def _symmetric(a: ZPoly, m: int) -> ZPoly:
    """Residues mod m as integers in (-m/2, m/2]."""
    return _ztrim([c - m if c > m // 2 else c for c in (x % m for x in a)])


def _recombine(f: ZPoly, lifted: list[ZPoly], m: int, mask: int) -> list[ZPoly]:
    """True factors from products of the lifted modular factors, trying
    subsets by increasing size (von zur Gathen & Gerhard, Algorithm 15.19);
    ``mask`` holds the degrees a factor can have.  Raises
    :class:`FactorizationLimitError` past ``MAX_RECOMBINATION_SUBSETS``
    subsets tried."""
    n, r = len(f) - 1, len(lifted)
    out: list[ZPoly] = []
    tried = 0
    size = 1
    while 2 * size <= len(lifted):
        lead, const = f[-1], f[0]
        for subset in combinations(range(len(lifted)), size):
            tried += 1
            if tried > MAX_RECOMBINATION_SUBSETS:
                raise FactorizationLimitError(
                    f"factoring a degree-{n} polynomial over Z tried "
                    f"{MAX_RECOMBINATION_SUBSETS} subsets of its {r} modular factors "
                    "without finishing"
                )
            if not (mask >> sum(len(lifted[i]) - 1 for i in subset)) & 1:
                continue
            # cheap necessary test first: the constant term of lead * the
            # candidate factor divides lead * f(0)
            low = lead
            for i in subset:
                low = low * lifted[i][0] % m
            low = _symmetric([low], m)
            if not low or lead * const % low[0]:
                continue
            g = [lead]
            for i in subset:
                g = _mmul(g, lifted[i], m)
            g = _zprimitive(_symmetric(g, m))
            q = _zexact_div(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out


def integer_factors(p: ZPoly) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors over Q of a nonzero integer polynomial, each as
    its primitive integer associate with a positive leading coefficient
    and with its multiplicity, sorted by ``poly_sort_key``.

    One factorization over Z (Gauss's lemma makes it one over Q), so each
    multiplicity is the valuation of ``p`` at its factor.  A constant
    ``p`` has no factors.  Raises :class:`FactorizationLimitError` when
    recombination needs more than ``MAX_RECOMBINATION_SUBSETS`` subsets of
    the modular factors.
    """
    p = _ztrim(list(p))
    if len(p) < 2:
        return []
    low = next(i for i, c in enumerate(p) if c)
    out: list[tuple[ZPoly, int]] = [([0, 1], low)] if low else []
    if len(p) - low > 1:
        for part, mult in _zsquarefree(_zprimitive(p[low:])):
            out.extend((g, mult) for g in _zfactor_squarefree(part))
    return sorted(((tuple(g), mult) for g, mult in out), key=lambda fm: poly_sort_key(fm[0]))


def poly_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd, with a positive leading coefficient, of two integer
    polynomials that are not both zero."""
    a, b = _ztrim(list(a)), _ztrim(list(b))
    return _zgcd(a, b) if a and b else _zprimitive(a or b)


def coprime_basis(polys: Sequence[ZPoly]) -> list[tuple[int, ...]]:
    """Irreducible polynomials, each primitive with a positive leading
    coefficient, generating the nonzero inputs multiplicatively up to
    constants; distinct outputs are coprime."""
    out: set[tuple[int, ...]] = set()
    for p in polys:
        if not any(p):
            raise ValueError("coprime basis of a zero polynomial")
        out.update(f for f, _ in integer_factors(p))
    return sorted(out, key=poly_sort_key)
