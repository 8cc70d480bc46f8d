"""Polynomials over Q with Fraction coefficients: the test-side oracle ring.

The package stores an eigenvalue class as the primitive integer associate
of its monic polynomial and never does arithmetic over Q.  This ring does:
``Poly`` is monic-capable, divides with remainder over Q, and prints and
orders itself from its monic Fraction coefficients, so tests can check the
package's integer routes (factoring, gcds, formatting, class order)
against plain rational arithmetic.

``Poly`` stores coefficients lowest degree first, trailing zeros stripped,
so the representation of each polynomial is unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class Poly:
    """Polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def sort_key(self):
        """Order of monic polynomials: by degree, then by coefficients,
        lowest degree first."""
        return (self.degree(), self.coeffs)

    def format(self, var: str = "x") -> str:
        """Highest degree first, rational coefficients written p/q."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for d in range(self.degree(), -1, -1):
            c = self.coeffs[d]
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

    def __repr__(self) -> str:
        return f"Poly({self.format()!r})"


def monic_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def primitive(p: Poly) -> tuple[int, ...]:
    """The primitive integer associate of a nonzero p with a positive
    leading coefficient: how the package stores a class."""
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // g for c in ints)


def monic(p: Sequence[int]) -> Poly:
    """The monic polynomial over Q of a stored class."""
    return Poly(p).monic()
