"""Univariate polynomials over the rationals and polynomial matrix tools.

``Poly`` stores coefficients lowest degree first, trailing zeros stripped,
so the representation of each polynomial is unique.  Integer polynomials
(``ZPoly``, plain lists of ints, lowest degree first) carry the hot path:
``integer_factors`` splits the integer determinant of a pencil's regular
part into its irreducible factors, with multiplicities, in one
factorization over Z and without any Fraction arithmetic.
The Smith form of a polynomial matrix is computed fraction-free: rows are
scaled to integer coefficients and all reductions use pseudo-division in
Z[x] followed by content removal, which keeps coefficient growth in
check.  Unit factors are irrelevant for invariant factors, so results are
normalized monic at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Sequence

from .exactla import _frac


class Poly:
    """Polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def linear_root(cls, root) -> "Poly":
        """Monic degree-one polynomial vanishing at ``root``."""
        return cls([-_frac(root), 1])

    # -- structure ----------------------------------------------------

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree()
        lead = other.coeffs[-1]
        q = [Fraction(0)] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                f = c / lead
                q[i - db] = f
                for j, oc in enumerate(other.coeffs):
                    rem[i - db + j] -= f * oc
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, k: int) -> "Poly":
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm; returns [(monic squarefree factor, multiplicity)]."""
    if p.degree() < 1:
        return []
    p = p.monic()
    d = p.derivative()
    a = poly_gcd(p, d)
    b = p // a
    c = d // a
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree() >= 1:
        z = c - b.derivative()
        f = poly_gcd(b, z)
        if f.degree() >= 1:
            out.append((f.monic(), i))
        b = b // f
        c = z // f
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    out = Poly([1])
    for f, _ in squarefree_decomposition(p):
        out = out * f
    return out.monic()


def _factor_squarefree(p: Poly) -> tuple[Poly, ...]:
    """Split a squarefree monic polynomial into its irreducible monic factors."""
    import sympy

    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x, domain="QQ")
    _, parts = sp.factor_list()
    out = []
    for f, mult in parts:
        cs = [Fraction(c.p, c.q) for c in reversed(f.monic().all_coeffs())]
        out.extend([Poly(cs)] * mult)
    return tuple(sorted(out, key=poly_sort_key))


def coprime_basis(polys: Sequence[Poly]) -> list[Poly]:
    """Monic irreducible polynomials generating the inputs multiplicatively.

    Every nonzero input is, up to a constant, a product of powers of the
    output polynomials; distinct outputs are coprime, so valuations with
    respect to them are well defined.
    """
    out: set[Poly] = set()
    for p in polys:
        if p.is_zero():
            raise ValueError("coprime basis of a zero polynomial")
        for f, _ in squarefree_decomposition(p):
            out.update(_factor_squarefree(f))
    return sorted(out, key=poly_sort_key)


def poly_sort_key(p: Poly):
    return (p.degree(), p.coeffs)


# ---------------------------------------------------------------------------
# formatting


def format_poly(p: Poly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for d in range(p.degree(), -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            xpart = var if d == 1 else f"{var}^{d}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts)


def parse_poly(s: str, var: str = "x") -> Poly:
    """Inverse of :func:`format_poly` (accepts any sum of c*x^d terms)."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    terms: list[tuple[Fraction, int]] = []
    i = 0
    while i < len(s):
        sign = 1
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        term = s[i:j]
        if not term:
            raise ValueError(f"bad polynomial string {s!r}")
        if var in term:
            head, _, tail = term.partition(var)
            if head in ("", "*"):
                coeff = Fraction(1)
            else:
                coeff = Fraction(head.rstrip("*"))
            if tail.startswith("^"):
                deg = int(tail[1:])
            elif tail == "":
                deg = 1
            else:
                raise ValueError(f"bad polynomial term {term!r}")
        else:
            coeff = Fraction(term)
            deg = 0
        terms.append((sign * coeff, deg))
        i = j
    top = max(d for _, d in terms)
    cs = [Fraction(0)] * (top + 1)
    for c, d in terms:
        cs[d] += c
    return Poly(cs)


# ---------------------------------------------------------------------------
# homogeneous binary forms


@dataclass(frozen=True)
class BinForm:
    """Homogeneous binary form of the stated total degree.

    ``coeffs[j]`` multiplies ``beta**j * alpha**(degree-j)``.  The form is
    normalized so that the polynomial part in beta is monic.
    """

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count disagrees with degree")

    @classmethod
    def from_parts(cls, alpha_power: int, affine: Poly) -> "BinForm":
        """alpha**alpha_power times the homogenization of ``affine``."""
        if affine.is_zero():
            raise ValueError("zero binary form")
        affine = affine.monic()
        deg = alpha_power + affine.degree()
        cs = list(affine.coeffs) + [Fraction(0)] * alpha_power
        return cls(deg, tuple(cs))

    def dehomogenized(self) -> Poly:
        """The polynomial obtained by setting alpha = 1."""
        return Poly(self.coeffs)

    def alpha_valuation(self) -> int:
        return self.degree - self.dehomogenized().degree()


# ---------------------------------------------------------------------------
# fraction-free integer polynomial helpers (Smith form internals)

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


def _zscale_sub(a: ZPoly, s: int, b: ZPoly, q: ZPoly) -> ZPoly:
    """s*a - q*b."""
    qb = _zmul(q, b)
    out = [s * c for c in a]
    if len(out) < len(qb):
        out.extend([0] * (len(qb) - len(out)))
    for i, c in enumerate(qb):
        out[i] -= c
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


def integer_factors(p: ZPoly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors over Q of a nonzero integer polynomial,
    each with its multiplicity, sorted by ``poly_sort_key``.

    One factorization over Z (Gauss's lemma makes it one over Q), so each
    multiplicity is the valuation of ``p`` at its factor.  A constant
    ``p`` has no factors.
    """
    if len(p) < 2:
        return []
    from sympy import Poly as SymPoly, Symbol  # imported late: sympy loads slowly

    _, parts = SymPoly(list(reversed(p)), Symbol("t"), domain="ZZ").factor_list()
    out = []
    for f, mult in parts:
        cs = [int(c) for c in f.all_coeffs()]
        out.append((Poly([Fraction(c, cs[0]) for c in reversed(cs)]), mult))
    out.sort(key=lambda fm: poly_sort_key(fm[0]))
    return out


def _zdivides(p: ZPoly, q: ZPoly) -> bool:
    """Does p divide q over Q?"""
    if not q:
        return True
    if not p:
        return False
    _, _, r = _zpseudo_divmod(q, p)
    return not r


def _z_to_poly(p: ZPoly) -> Poly:
    return Poly([Fraction(c) for c in p])


def _poly_row_to_z(row: Sequence[Poly]) -> list[ZPoly]:
    mult = 1
    for p in row:
        for c in p.coeffs:
            mult = int_lcm(mult, c.denominator)
    return [_ztrim([int(c * mult) for c in p.coeffs]) for p in row]


def smith_invariant_factors(entries: Sequence[Sequence[Poly]]) -> list[Poly]:
    """Monic invariant factors d_1 | d_2 | ... of a polynomial matrix.

    Row/column swaps, constant row scalings and adding a polynomial
    multiple of one row/column to another are the only operations used,
    all unimodular over Q[x].
    """
    m = len(entries)
    n = len(entries[0]) if m else 0
    a: list[list[ZPoly]] = [_poly_row_to_z(row) for row in entries]
    factors: list[Poly] = []
    top = 0
    while top < m and top < n:
        # locate a pivot of minimal degree in the remaining block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j]:
                    key = (_zdeg(a[i][j]), max(abs(c) for c in a[i][j]))
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(top + 1, m):
                if a[i][top]:
                    s, q, r = _zpseudo_divmod(a[i][top], a[top][top])
                    a[i] = [_zscale_sub(x, s, a[top][k], q) for k, x in enumerate(a[i])]
                    g = _zcontent([c for p in a[i] for c in p])
                    if g > 1:
                        a[i] = [[c // g for c in p] for p in a[i]]
                    if r:
                        # remainder has lower degree: promote it to pivot
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the pivot row
            for j in range(top + 1, n):
                if a[top][j]:
                    s, q, r = _zpseudo_divmod(a[top][j], a[top][top])
                    for i2 in range(top, m):
                        a[i2][j] = _zscale_sub(a[i2][j], s, a[i2][top], q)
                    col = [c for i2 in range(m) for c in a[i2][j]]
                    g = _zcontent(col)
                    if g > 1:
                        for i2 in range(m):
                            a[i2][j] = [c // g for c in a[i2][j]]
                    if r:
                        for i2 in range(m):
                            a[i2][top], a[i2][j] = a[i2][j], a[i2][top]
                        dirty = True
                        break
            if dirty:
                continue
            if any(a[i][top] for i in range(top + 1, m)):
                continue
            # pivot must divide the rest of the matrix
            witness = None
            for i in range(top + 1, m):
                for j in range(top + 1, n):
                    if a[i][j] and not _zdivides(a[top][top], a[i][j]):
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            # fold the offending row into the pivot row; the next reduction
            # pass strictly lowers the pivot degree, so this terminates
            a[top] = [_zadd(p, q) for p, q in zip(a[top], a[witness])]
        factors.append(_z_to_poly(a[top][top]).monic())
        top += 1
    for k in range(1, len(factors)):
        if not factors[k - 1].divides(factors[k]):
            raise AssertionError("invariant factor chain broken")
    return factors
