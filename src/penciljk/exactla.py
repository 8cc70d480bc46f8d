"""Exact linear algebra over the rationals.

A matrix is stored as integer rows over one positive common denominator:
entry (i, j) is ``rows[i][j] / den``, and ``den`` shares no factor with
all the entries at once, so equal matrices have equal storage.
Constructors accept ints, Fractions and strings; ``entry``, ``row``,
``col`` and ``tolist`` hand back Fractions.

Rank, kernel, row space, determinant, the solution of a square system
and the preimage chain all go through one fraction-free (Bareiss)
elimination of the integer rows, and no other module drives that
elimination.  The common denominator changes neither the rank nor the
kernel, and only rescales the determinant and the solution.  The package
takes no determinant and no row space: ``det`` and ``row_space_basis``
are kept for the tests and for the benchmark tracer, which names them.  The characteristic polynomial needs
no elimination: ``charpoly`` runs Berkowitz's division-free recurrence.
Kernel and row-space vectors are returned as primitive integer vectors
(content removed, first nonzero entry positive), so results are
canonical and cheap to feed back into integer elimination.

A kernel can also be held as a ``KernelView``: one elimination whose
nullity and free columns are read off the echelon form, and whose
vectors, the ``kernel_basis`` of the matrix in the same order, are
back-substituted only when first read.  One back-substitution routine
serves ``KernelView``, ``kernel_basis`` (those vectors), the candidates
of ``preimage_chain`` and ``solve``, whose right-hand sides are the free
columns of [a | b].  The vector of a free column f is zero outside f and
the pivot columns left of it, so a product with it can run over its
nonzero coordinates alone.
Back-substitution sets x_f to the pivot D of the last pivot row left of
f, which is the minor of the input on those rows and pivot columns.  By
Cramer's rule D times the solution with x_f = 1 is an integer vector, so
every division is exact and no step takes a gcd or rescales x; the
content comes off once, at the end, where a kernel vector is wanted.

``preimage_chain`` runs the nested kernel chain (Wong sequence)

    W_1 = ker M,   W_{k+1} = preimage under M of B(W_k)

as one elimination that only grows.  With M and B stored as integer rows
over denominators dm and db, and the columns of a matrix D spanning W_k,
M x = B D y holds exactly when [db * M_int | -dm * B_int D] (x, y) = 0,
so W_{k+1} is the projection of that kernel onto x.  Let D_1 = ker M and
let D_j hold the vectors that W_j adds to W_(j-1).  The rows kept are

    [db * M_int | -dm * B_int D_1 | ... | -dm * B_int D_k | carried],

eliminated with pivots sought only left of the carried part, which
starts as -dm * B_int and takes every row operation.  W_1 is read off
the M columns.  Each step appends the carried part times D_k as new
columns in front of it and continues the elimination from the previous
width, at the rank and last pivot where it stopped.

Why the rows are those that eliminating [db * M_int | -dm * B_int D_1 |
... | -dm * B_int D_k] from scratch gives: an elimination chooses each
pivot from the column it is in, after the operations on the columns to
its left, and applies every operation to whole rows.  An operation
replaces a row by a combination of two rows followed by an exact
division by the previous pivot, and it commutes with multiplying a
group of columns on the right by a fixed matrix.  So the carried part
times D_j equals the columns -dm * B_int D_j would have become had they
been there from the start, and both eliminations make the same choices
on the same columns.

Why only the new block's free columns can add directions: every free
column gives a kernel vector (x, y) with y = 1 there and 0 at the other
free columns.  For a free column in M's part or in an earlier block
D_j, every pivot added since lies to its right, and those rows involve
only columns right of the free one, where y is zero, so their
coordinates back-substitute to zero.  Its vector is the one it gave
when D_j was the last block, padded with zeros; its x is ker M, or a
candidate of step j, and so lies in W_(j+1), inside W_k.  So the
candidates of the new block's free columns, with W_k, span W_(k+1).

When a candidate can still lie in W_k: the kernel vectors (x, y) with
x = 0 are those with B D y = 0, so by the count of free columns W_(k+1)
gains dim(ker B ∩ W_k) - dim(ker B ∩ W_(k-1)) fewer directions than the
new block has free columns.  That happens when B kills a vector of W_k
that is not in W_(k-1), as for the zero columns of width-1 horizontal
blocks, which lie in ker M and in ker B and give x = 0.  So a candidate
joins the basis only when it reduces to nonzero against a fraction-free
echelon copy of the basis kept alongside; a basis of more than n vectors
would show that this test failed, and is an internal error.

What the rejected candidates count: each step rejects as many candidates
as its new block has free columns beyond the directions W_(k+1) gains,
dim(ker B ∩ W_k) - dim(ker B ∩ W_(k-1)) by the count above, and the
first step rejects none.  So the running total that comes with W_(k+1)
telescopes to dim(ker B ∩ W_k), and at the limit V = W_(k+1) = W_k it is
dim(V ∩ ker B) = dim V - dim BV.  ``pencils`` compares it with the same
number taken by eliminating the rows BV.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import InternalConsistencyError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def as_fraction(x) -> Fraction:
    """An int, Fraction or numeric string as a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """Integers over the least common denominator of the given rationals."""
    vals = [x if type(x) is int else as_fraction(x) for x in values]
    den = lcm(*[x.denominator for x in vals])
    if den == 1:
        return [x.numerator for x in vals], 1
    return [x.numerator * (den // x.denominator) for x in vals], den


class Mat:
    """Immutable rational matrix.  Zero row or column counts are allowed."""

    __slots__ = ("m", "n", "rows", "den")

    def __init__(self, rows: Sequence[Sequence], n: int | None = None):
        data = [list(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if n is not None and n != width:
                raise ValueError("explicit width disagrees with rows")
        else:
            if n is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = n
        flat, den = clear_denominators(x for r in data for x in r)
        self.m = len(data)
        self.n = width
        self.rows = tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(self.m))
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ints(cls, rows: Sequence[Sequence[int]], n: int, den: int = 1) -> "Mat":
        """The matrix rows / den, for integer rows of width n and a positive den."""
        rows = tuple(tuple(r) for r in rows)
        if den != 1:
            g = gcd(den, *[x for r in rows for x in r])
            if g != 1:
                rows = tuple(tuple(x // g for x in r) for r in rows)
                den //= g
        out = object.__new__(cls)
        out.m = len(rows)
        out.n = n
        out.rows = rows
        out.den = den
        return out

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def row(self, i: int) -> Vec:
        return tuple(Fraction(x, self.den) for x in self.rows[i])

    def col(self, j: int) -> Vec:
        return tuple(Fraction(r[j], self.den) for r in self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i][j], self.den)

    def transpose(self) -> "Mat":
        rows = [[r[j] for r in self.rows] for j in range(self.n)]
        return Mat.from_ints(rows, self.m, self.den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return Mat.from_ints(rows, len(col_idx), self.den)

    def tolist(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.m)]

    def is_zero(self) -> bool:
        return not any(x for r in self.rows for x in r)

    def is_square(self) -> bool:
        return self.m == self.n

    def is_skew(self) -> bool:
        if self.m != self.n:
            return False
        return all(self.rows[i][j] == -self.rows[j][i] for i in range(self.m) for j in range(i, self.n))

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: "Mat", sign: int) -> "Mat":
        self._same_shape(other)
        den = lcm(self.den, other.den)
        s, o = den // self.den, sign * (den // other.den)
        rows = [[s * a + o * b for a, b in zip(r, q)] for r, q in zip(self.rows, other.rows)]
        return Mat.from_ints(rows, self.n, den)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def __neg__(self) -> "Mat":
        return Mat.from_ints([[-a for a in r] for r in self.rows], self.n, self.den)

    def scale(self, c) -> "Mat":
        c = as_fraction(c)
        rows = [[c.numerator * a for a in r] for r in self.rows]
        return Mat.from_ints(rows, self.n, self.den * c.denominator)

    def _same_shape(self, other: "Mat") -> None:
        if self.m != other.m or self.n != other.n:
            raise ValueError(f"shape mismatch {self.m}x{self.n} vs {other.m}x{other.n}")

    # -- block assembly -----------------------------------------------

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        n = sum(b.n for b in blocks)
        den = lcm(*[b.den for b in blocks])
        rows = []
        j0 = 0
        for b in blocks:
            left, right = [0] * j0, [0] * (n - j0 - b.n)
            rows.extend(left + [den // b.den * x for x in r] + right for r in b.rows)
            j0 += b.n
        return Mat.from_ints(rows, n, den)

    # -- misc ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.m == other.m
            and self.n == other.n
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.den, self.rows))

    def __repr__(self) -> str:
        return f"Mat({[[str(x) for x in r] for r in self.tolist()]})"


# ---------------------------------------------------------------------------
# integer elimination core


def _echelon(
    rows: list[list[int]], n: int, start: int = 0, r: int = 0, prev: int = 1
) -> tuple[int, list[int], int, int]:
    """In-place fraction-free (Bareiss) row echelon form of integer rows.

    Returns (rank, pivot columns, sign of the row permutation, last pivot).
    Every intermediate entry is a minor of the input (Sylvester's
    identity), so the division by the previous pivot is exact, and for a
    square matrix of full rank sign * last pivot is its determinant.  The
    pivot of each column is its smallest nonzero entry in absolute value.
    Pivots are sought in the first n columns, and every column right of
    the pivot is updated, so any columns past n are carried along.  Left
    of the pivot the rows below it are already zero, and in its column
    they become zero, so only the cells right of it change.

    ``start``, ``r`` and ``prev`` continue an elimination that stopped at
    column ``start`` with rank ``r`` and last pivot ``prev`` (see the
    module docstring); then only the pivot columns from ``start`` on are
    returned, and the sign is that of this call's row swaps.
    """
    m = len(rows)
    sign = 1
    piv_cols: list[int] = []
    for c in range(start, n):
        if r == m:
            break
        best = -1
        size = 0
        for i in range(r, m):
            x = rows[i][c]
            if x and (best < 0 or abs(x) < size):
                best = i
                size = abs(x)
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            sign = -sign
        top = rows[r]
        pivot = top[c]
        tail = top[c + 1 :]
        # every row picks up a factor of the pivot, even where its head is
        # zero, since dropping it would break the later exact divisions
        for i in range(r + 1, m):
            row = rows[i]
            head = row[c]
            if head:
                row[c] = 0
                row[c + 1 :] = [(x * pivot - head * y) // prev for x, y in zip(row[c + 1 :], tail)]
            elif pivot != prev:
                row[c + 1 :] = [x * pivot // prev for x in row[c + 1 :]]
        prev = pivot
        piv_cols.append(c)
        r += 1
    return r, piv_cols, sign, prev


def _int_copy(mat: Mat) -> list[list[int]]:
    return [list(r) for r in mat.rows]


def pivot_columns(mat: Mat) -> list[int]:
    """Columns where rank(mat[:, :j+1]) exceeds rank(mat[:, :j])."""
    return _echelon(_int_copy(mat), mat.n)[1]


def rank(mat: Mat) -> int:
    if mat.m == 0 or mat.n == 0:
        return 0
    return _echelon(_int_copy(mat), mat.n)[0]


def det(mat: Mat) -> Fraction:
    if not mat.is_square():
        raise ValueError("determinant of a non-square matrix")
    if mat.m == 0:
        return Fraction(1)
    r, _, sign, last = _echelon(_int_copy(mat), mat.n)
    if r < mat.n:
        return Fraction(0)
    return Fraction(sign * last, mat.den**mat.n)


def solve(a: Mat, b: Mat) -> Mat:
    """The matrix X with a X = b, for an invertible square a.

    One elimination of [a_int | b_int] leaves an upper triangular a part,
    its i-th pivot in column i, whose last pivot D is +-det(a_int).  The
    column n + j of b_int is then a free column whose kernel vector, as
    ``_back_substitute`` starts it at x_(n+j) = D, is (-D a_int^-1 b_j, D):
    minus its first n entries are column j of D * a_int^-1 b_int, integers
    by Cramer's rule.  The denominators give X = (da / db) * a_int^-1 b_int.
    """
    n, k = a.n, b.n
    if a.m != n or b.m != n:
        raise ValueError(f"cannot solve a {a.m}x{n} system for {b.m} rows")
    rows = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    r, pivots, _, last = _echelon(rows, n)
    if r < n:
        raise ZeroDivisionError("singular matrix")
    # a negative D turns into a positive denominator by negating X's rows
    sign = -1 if last > 0 else 1
    out: list[list[int]] = [[] for _ in range(n)]
    for j in range(n, n + k):
        for row, x in zip(out, _back_substitute(rows, pivots, j, j + 1)):
            row.append(sign * a.den * x)
    return Mat.from_ints(out, k, b.den * abs(last))


def charpoly(rows: Sequence[Sequence[int]]) -> list[int]:
    """c_0 = 1, c_1, ..., c_n with det(lambda I - X) = sum_i c_i lambda^(n-i),
    for a square matrix X of integer rows, by Berkowitz's division-free
    recurrence (Inform. Process. Lett. 18, 1984): with X_r the leading
    r x r block, and R, C and a the rest of row r, column r and the
    diagonal entry, the polynomial of X_(r+1) is the lower triangular
    Toeplitz matrix with first column (1, -a, -R C, -R X_r C, ...,
    -R X_r^(r-1) C) times that of X_r."""
    poly = [1]
    for r in range(len(rows)):
        block = [row[:r] for row in rows[:r]]
        left, v = rows[r][:r], [row[r] for row in rows[:r]]
        column = [1, -rows[r][r]]
        for _ in range(r):
            column.append(-sum(map(mul, left, v)))
            v = [sum(map(mul, row, v)) for row in block]
        poly = [sum(column[k - j] * poly[j] for j in range(min(k, r) + 1)) for k in range(r + 2)]
    return poly


def _primitive(ints: Sequence[int]) -> IntVec:
    """Remove the content and make the first nonzero entry positive."""
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _back_substitute(rows: list[list[int]], piv_cols: list[int], f: int, n: int) -> list[int]:
    """The kernel vector of echelon rows with x_f = D at the free column f
    and every other free coordinate zero, as an integer vector of length
    n; ``rows[k]`` is the row of the pivot in column ``piv_cols[k]``, the
    pivot columns increase, and D is the pivot of the last pivot row left
    of f (1 when there is none).

    Only the pivots left of f are solved for: a row whose pivot lies right
    of f involves only columns right of it, where x is zero, so its
    coordinate is zero too, and every sum runs over the columns up to f.
    The k pivot rows left of f are fraction-free combinations of k input
    rows, and their last pivot D is the k x k minor of those rows on the
    pivot columns (Sylvester's identity).  By Cramer's rule D times the
    solution with x_f = 1 is an integer vector, so with x_f = D every
    coordinate is an integer, and each step is one exact division by its
    pivot.  The caller removes the content, once, from the part it keeps."""
    end = f + 1
    left = bisect_left(piv_cols, f)
    x = [0] * end
    x[f] = rows[left - 1][piv_cols[left - 1]] if left else 1
    for k in range(left - 1, -1, -1):
        c = piv_cols[k]
        row = rows[k]
        x[c] = -sum(map(mul, row[c + 1 : end], x[c + 1 :])) // row[c]
    return x + [0] * (n - end)


class KernelView(Sequence):
    """The right kernel of a matrix as one elimination: its nullity
    (``len``) and free columns (``free``, increasing) are read off the
    echelon form, and the vectors are back-substituted the first time any
    of them is read, all at once, and kept.  Those vectors are the
    ``kernel_basis`` of the matrix, in the same order, so a caller that
    needs only how many functionals vanish on an image pays for no
    back-substitution."""

    __slots__ = ("n", "free", "_rows", "_pivots", "_vectors")

    def __init__(self, mat: Mat):
        rows = _int_copy(mat)
        _, pivots, _, _ = _echelon(rows, mat.n)
        kept = set(pivots)
        self.n = mat.n
        self.free = [f for f in range(mat.n) if f not in kept]
        self._rows, self._pivots, self._vectors = rows, pivots, None

    @property
    def vectors(self) -> list[IntVec]:
        if self._vectors is None:
            rows, pivots, n = self._rows, self._pivots, self.n
            self._vectors = [_primitive(_back_substitute(rows, pivots, f, n)) for f in self.free]
            self._rows = self._pivots = None
        return self._vectors

    def __len__(self) -> int:
        return len(self.free)

    def __getitem__(self, i):
        return self.vectors[i]

    def __iter__(self) -> Iterator[IntVec]:
        return iter(self.vectors)


def kernel_basis(mat: Mat) -> list[IntVec]:
    """Exact basis of the right kernel, as primitive integer vectors.

    One vector per free column f: the solution with x_f = 1 and the other
    free coordinates zero, back-substituted in integers and rescaled.  So
    each vector is nonzero at its own free column, zero at the others, and
    zero right of its own; the vectors come in the order of their free
    columns.  They are the vectors of a ``KernelView``, which also holds
    the count and the free columns, read off the elimination.
    """
    return KernelView(mat).vectors


def row_space_basis(vectors: Sequence[Sequence], n: int) -> list[IntVec]:
    """Primitive basis of the span of the given row vectors."""
    rows = [clear_denominators(v)[0] for v in vectors]
    r, _, _, _ = _echelon(rows, n)
    return [_primitive(rows[k]) for k in range(r)]


def _reduced(echelon: list[tuple[int, list[int]]], v: IntVec) -> list[int]:
    """v eliminated against fraction-free echelon rows, each stored with the
    column of its pivot; zero exactly when v lies in their span.

    The steps are those that a Bareiss elimination with the rows on top
    and v below applies to v, so each division by the previous pivot is
    exact (Sylvester's identity does not need the pivot columns in
    increasing order), the result vanishes in every pivot column, and it
    is the last pivot times v minus a combination of the rows."""
    x = list(v)
    prev = 1
    for c, row in echelon:
        pivot, head = row[c], x[c]
        x = [(a * pivot - head * y) // prev for a, y in zip(x, row)]
        prev = pivot
    return x


def preimage_chain(m: Mat, b: Mat) -> Iterator[tuple[list[IntVec], int]]:
    """Bases of W_1 = ker M, W_2, ... of the chain W_{k+1} = M^-1(B W_k),
    as primitive integer vectors, each with the number of candidates
    rejected so far, which with W_(k+1) is dim(ker B ∩ W_k) (see the
    module docstring); the caller decides where to stop.

    One elimination grows with the chain (see the module docstring): each
    step appends the carried B part times the vectors the last step added,
    continues the elimination in those columns only, and back-substitutes
    only their free columns.  A candidate joins the basis when it reduces
    to nonzero against an echelon copy of the basis, so a basis that
    would grow past n is an internal error.
    """
    n = m.n
    rows = [[b.den * x for x in rm] + [-m.den * y for y in rb] for rm, rb in zip(m.rows, b.rows)]
    pivots: list[int] = []
    basis: list[IntVec] = []
    echelon: list[tuple[int, list[int]]] = []
    width, grown, r, prev, rejected = 0, n, 0, 1, 0
    while True:
        # continue the elimination in the columns from ``width`` to
        # ``grown``: M's at the start, then the block last appended
        r, new_pivots, _, prev = _echelon(rows, grown, width, r, prev)
        pivots += new_pivots
        kept = set(new_pivots)
        added = []
        for f in range(width, grown):
            if f in kept:
                continue
            v = _primitive(_back_substitute(rows, pivots, f, grown)[:n])
            x = _reduced(echelon, v)
            lead = next((j for j, a in enumerate(x) if a), None)
            if lead is None:
                rejected += 1
            else:
                echelon.append((lead, x))
                added.append(v)
        basis = basis + added
        if len(basis) > n:
            raise InternalConsistencyError("a preimage chain basis grew past the dimension")
        yield basis, rejected
        # the carried part sits after the ``grown`` columns eliminated so far
        for row in rows:
            carried = row[grown:]
            row[grown:grown] = [sum(map(mul, carried, v)) for v in added]
        width, grown = grown, grown + len(added)
