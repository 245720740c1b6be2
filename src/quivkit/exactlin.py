"""Exact linear algebra over Q and F_p: fields, matrices, subspaces.

All arithmetic is exact.  A rational scalar is a plain int when it is
integral and a `fractions.Fraction` (lowest terms, positive denominator)
otherwise; prime-field scalars are ints in [0, p).
Subspaces are stored as sparse rows in reduced row-echelon form, so two
subspaces are equal as sets exactly when their stored rows are identical.
There is one elimination, the incremental sparse `Echelon`: subspaces grow
in it, and `rank` of a dense `Mat` runs on it too.  Kernels, solves and
inverses share one tagged column echelon, `_column_echelon`.  `rref` is the
dense view of the span of a matrix's rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import QuivkitError


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases above is exact for every n below this bound.
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round to base a for odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n >= _MR_LIMIT
    that is not a perfect square."""
    d_sel = 5
    while (j := _jacobi(d_sel, n)) != -1:
        if j == 0:
            return False
        d_sel = -d_sel - 2 if d_sel > 0 else -d_sel + 2
    q = (1 - d_sel) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k (P = 1) and Q^k mod n, k running over the leading bits of d
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d_sel * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Exact below _MR_LIMIT; above it the Baillie-PSW test, which has no
    known counterexample (Baillie and Wagstaff 1980)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2) and isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


class RationalField:
    """The field Q.  An integral value is a plain int, any other a Fraction
    (lowest terms, positive denominator).  The two mix exactly under +, -
    and *, compare and hash equal and print alike, so integral matrices are
    reduced at int speed; every operation returns an int for an integral
    result."""

    char = 0
    zero = 0
    one = 1

    def of(self, x):
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return self.of(1 / a)

    def fmt(self, a) -> str:
        return str(a)

    @property
    def name(self) -> str:
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("quivkit.field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p (p prime).  Values are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise QuivkitError("NOT_PRIME", f"{p} is not prime")
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        p = self.char
        if type(x) is int:
            return x % p
        x = Fraction(x)
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.char}")
        return pow(a, self.char - 2, self.char)

    def fmt(self, a) -> str:
        return f"{a} mod {self.char}"

    @property
    def name(self) -> str:
        return f"F{self.char}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("quivkit.field", self.char))

    def __repr__(self):
        return f"GF({self.char})"


QQ = RationalField()
_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


# Longest characteristic that a field tag may name, and longest integer
# literal a document may hold, in decimal digits.
MAX_CHAR_DIGITS = 1000


def field_by_name(name: str):
    """Parse a field tag: "Q" or "F<p>"."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        if len(digits) > MAX_CHAR_DIGITS:
            raise QuivkitError("BAD_FIELD", f"characteristic has {len(digits)} digits "
                                            f"(at most {MAX_CHAR_DIGITS})")
        return GF(int(digits))
    raise QuivkitError("BAD_FIELD", f"unknown field {name!r} (use Q or F<p>)")


# ---------------------------------------------------------------------------
# vectors (plain lists of field values)
# ---------------------------------------------------------------------------

def vec_unit(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def vec_is_zero(field, u):
    return not any(u)


def dot(field, u, v):
    add, mul = field.add, field.mul
    acc = field.zero
    for a, b in zip(u, v):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


def sparse(v):
    """The sparse form of a dense vector: a dict {index: nonzero value}."""
    return {i: c for i, c in enumerate(v) if c}


def dense(field, n, terms):
    """The length-n dense vector of a sparse one."""
    out = [field.zero] * n
    for i, c in terms.items():
        out[i] = c
    return out


def add_scaled(field, v, c, w):
    """v += c * w on sparse vectors, in place, dropping zeros; returns v."""
    add, mul, zero = field.add, field.mul, field.zero
    for k, x in w.items():
        y = add(v.get(k, zero), mul(c, x))
        if y:
            v[k] = y
        else:
            v.pop(k, None)
    return v


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Dense matrix with exact entries, row-major."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        if len(data) != rows or any(map(cols.__ne__, map(len, data))):
            raise QuivkitError("BAD_SHAPE", f"expected {rows}x{cols} data")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [[field.zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise QuivkitError("BAD_SHAPE", "cols required for empty row list")
            cols = len(rows[0])
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_cols(cls, field, cols_list, rows=None):
        cols_list = [list(c) for c in cols_list]
        if rows is None:
            if not cols_list:
                raise QuivkitError("BAD_SHAPE", "rows required for empty col list")
            rows = len(cols_list[0])
        data = [[cols_list[j][i] for j in range(len(cols_list))] for i in range(rows)]
        return cls(field, rows, len(cols_list), data)

    @classmethod
    def from_sparse_cols(cls, field, cols_list, rows):
        """The matrix whose columns are the sparse vectors `cols_list`."""
        data = [[field.zero] * len(cols_list) for _ in range(rows)]
        for j, col in enumerate(cols_list):
            for i, c in col.items():
                data[i][j] = c
        return cls(field, rows, len(cols_list), data)

    def copy(self):
        return Mat(self.field, self.rows, self.cols, [row[:] for row in self.data])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def matvec(self, v):
        f = self.field
        out = []
        for row in self.data:
            out.append(dot(f, row, v))
        return out

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise QuivkitError("BAD_SHAPE", "matmul dimension mismatch")
        f = self.field
        ocols = other.transpose().data
        data = [[dot(f, row, c) for c in ocols] for row in self.data]
        return Mat(f, self.rows, other.cols, data)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(vec_is_zero(self.field, r) for r in self.data)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def rref(m: Mat):
    """Reduced row-echelon form and pivot column list (unique, canonical):
    the dense view of the span of m's rows, padded with zero rows."""
    span = _span(m.field, m.cols, map(sparse, m.data))
    zeros = [[m.field.zero] * m.cols for _ in range(m.rows - span.dim)]
    return Mat(m.field, m.rows, m.cols, span.basis + zeros), span.pivots


def rank(m: Mat) -> int:
    return _span(m.field, m.cols, map(sparse, m.data)).dim


def solve(m: Mat, b):
    """One solution of m x = b with free variables set to 0, or None."""
    return solve_multi(m, [b])[0]


def solve_multi(m: Mat, bs):
    """Solve m x = b for each b in bs; list of solutions (None where inconsistent)."""
    f = m.field
    sols = _solve_cols(f, [sparse(col) for col in zip(*m.data)],
                       [_as_sparse(f, m.rows, b) for b in bs])
    return [None if x is None else dense(f, m.cols, x) for x in sols]


def invert(m: Mat) -> Mat:
    """Inverse of a square matrix; SINGULAR if its columns are dependent."""
    if m.rows != m.cols:
        raise QuivkitError("BAD_SHAPE", "inverse of non-square matrix")
    cols = _inverse_cols(m.field, [sparse(col) for col in zip(*m.data)])
    if cols is None:
        raise QuivkitError("SINGULAR", "matrix is not invertible")
    return Mat.from_sparse_cols(m.field, cols, m.rows)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------
#
# A subspace is stored as its sparse reduced row-echelon form: `rows` maps
# each pivot column to its row, a dict {column: nonzero value} that is 1 at
# that pivot and 0 (absent) at every other pivot.  The form is unique, and a
# row is never changed once stored: an echelon that grows replaces it.

def _reduce(field, rows, v, tags=None, tag=None):
    """Remainder of the sparse vector v (changed in place) against `rows`.

    Each row is 0 at the other rows' pivots, so v's multiple of a row is v's
    own entry at that row's pivot, and only the pivots v touches cost work.
    With `tags`, `tag` is changed by the same multiples of the rows' tags.
    """
    hits = [p for p in v if p in rows] if len(v) <= len(rows) else \
        [p for p in rows if p in v]
    neg = field.neg
    for p in hits:
        c = neg(v[p])
        add_scaled(field, v, c, rows[p])
        if tags is not None:
            add_scaled(field, tag, c, tags[p])
    return v


class Echelon:
    """A reduced echelon form that grows one sparse vector at a time.

    `rows` is as in a Subspace, and `where[k]` holds at least the pivots of
    the rows that are nonzero at the non-pivot column k, so a new pivot is
    cleared from those rows only.  With `tagged`, each row carries a tag, a
    sparse vector combined as the row is.
    """

    __slots__ = ("field", "rows", "where", "tags")

    def __init__(self, field, start: "Subspace" = None, tagged=False):
        self.field = field
        self.rows = {} if start is None else dict(start.rows)
        self.where = {}
        for p, row in self.rows.items():
            for k in row:
                if k != p:
                    self.where.setdefault(k, set()).add(p)
        self.tags = {p: {} for p in self.rows} if tagged else None

    def insert(self, v, tag=None) -> bool:
        """Add the sparse vector v (consumed), with its tag; return whether
        it was independent of the rows.

        The remainder is scaled to 1 at its first column p, which becomes a
        pivot, and p is cleared from the rows that hold it.
        """
        f, rows, tags = self.field, self.rows, self.tags
        _reduce(f, rows, v, tags, tag)
        if not v:
            return False
        p = min(v)
        if v[p] != f.one:
            inv, mul = f.inv(v[p]), f.mul
            v = {k: mul(inv, x) for k, x in v.items()}
            if tags is not None:
                tag = {k: mul(inv, x) for k, x in tag.items()}
        v[p] = f.one
        where = self.where
        others = [k for k in v if k != p]
        for k in others:
            where.setdefault(k, set()).add(p)
        for q in where.pop(p, ()):
            c = rows[q].get(p)
            if c:
                rows[q] = add_scaled(f, dict(rows[q]), f.neg(c), v)
                if tags is not None:
                    tags[q] = add_scaled(f, dict(tags[q]), f.neg(c), tag)
                for k in others:
                    where[k].add(q)
        rows[p] = v
        if tags is not None:
            tags[p] = tag
        return True

    def subspace(self, ambient_dim) -> "Subspace":
        """The span of the rows so far; later inserts do not change it."""
        return Subspace(self.field, ambient_dim, dict(self.rows))


def _span(field, ambient_dim, vectors) -> "Subspace":
    """The span of canonical sparse vectors (each copied), unchecked."""
    ech = Echelon(field)
    for v in vectors:
        ech.insert(dict(v))
    return Subspace(field, ambient_dim, ech.rows)


def _column_echelon(field, cols):
    """One echelon of the sparse `cols`, column j inserted tagged e_j, and
    the reduced tags of the columns dependent on those before them: each is
    a kernel vector, and together they are a basis of the kernel.  A row's
    tag combines pivot columns only."""
    ech, dependent = Echelon(field, tagged=True), []
    for j, col in enumerate(cols):
        tag = {j: field.one}
        if not ech.insert(dict(col), tag):
            dependent.append(tag)
    return ech, dependent


def _solve_cols(field, cols, bs):
    """Solve sum_j x_j cols[j] = b for each b in bs (consumed), all sparse:
    the sparse solutions with free variables 0, None where inconsistent.

    A consistent b reduces to zero against the column echelon, and minus its
    reduced tag is then the solution.
    """
    ech = _column_echelon(field, cols)[0]
    neg, sols = field.neg, []
    for b in bs:
        tag = {}
        sols.append(None if _reduce(field, ech.rows, b, ech.tags, tag)
                    else {j: neg(c) for j, c in tag.items()})
    return sols


def _inverse_cols(field, cols):
    """The sparse columns of the inverse of the square matrix whose columns
    are the sparse `cols`, or None when they are dependent.

    When the columns are a basis, the rows of their column echelon end as
    the unit vectors, and row p's tag holds the coordinates of e_p: column p
    of the inverse.
    """
    ech, dependent = _column_echelon(field, cols)
    if dependent:
        return None
    return [ech.tags[p] for p in range(len(cols))]


def _field_value(field, x, where, *pos):
    """x read through `field.of`; BAD_ARGUMENT naming the entry `where % pos`
    when it is not a value of the field."""
    try:
        return field.of(x)
    except (ArithmeticError, TypeError, ValueError):
        raise QuivkitError("BAD_ARGUMENT", f"{where % pos} is {x!r}, "
                                           f"not a value of {field.name}") from None


def _as_sparse(field, n, v, name="vector"):
    """The element v of k^n, dense (n values) or sparse ({index: value}), as
    a fresh canonical sparse vector: each value read through the field and
    the zeros dropped.  BAD_SHAPE for a wrong length or an index outside
    0..n-1, BAD_ARGUMENT for a value that is not in the field; the messages
    call v `name`."""
    if isinstance(v, dict):
        bad = [k for k in v if type(k) is not int or not 0 <= k < n]
        if bad:
            raise QuivkitError("BAD_SHAPE", f"{name} names index {bad[0]!r}, "
                                            f"outside 0..{n - 1}")
        items = v.items()
    else:
        try:
            size, items = len(v), enumerate(v)
        except TypeError:
            raise QuivkitError("BAD_ARGUMENT", f"{name} {v!r} is not a vector") from None
        if size != n:
            raise QuivkitError("BAD_SHAPE", f"{name} has length {size}, expected {n}")
    out = {}
    for k, x in items:
        if type(x) is int and not x:  # the int 0 is every field's zero
            continue
        x = _field_value(field, x, f"{name} entry %d", k)
        if x:
            out[k] = x
    return out


class Subspace:
    """Subspace of k^n stored as its sparse reduced row-echelon form.

    `rows` maps each pivot to its row (see above) and `pivots` lists the
    pivots in ascending order.  `basis` is the dense view, the rows as
    vectors of length n in pivot order, built on first use.  Methods take
    vectors dense or sparse ({column: value}), read once by `_as_sparse`.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_basis")

    def __init__(self, field, ambient_dim, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = sorted(rows)
        self._basis = None

    @classmethod
    def span(cls, field, ambient_dim, vectors):
        ech = Echelon(field)
        for v in vectors:
            ech.insert(_as_sparse(field, ambient_dim, v))
        return cls(field, ambient_dim, ech.rows)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field, ambient_dim):
        one = field.one
        return cls(field, ambient_dim, {i: {i: one} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self):
        if self._basis is None:
            self._basis = [dense(self.field, self.ambient_dim, self.rows[p])
                           for p in self.pivots]
        return self._basis

    def reduce(self, v):
        """Remainder of v after elimination against the rows, dense or sparse
        as v is."""
        rem = _reduce(self.field, self.rows, _as_sparse(self.field, self.ambient_dim, v))
        return rem if type(v) is dict else dense(self.field, self.ambient_dim, rem)

    def contains(self, v) -> bool:
        return not _reduce(self.field, self.rows, _as_sparse(self.field, self.ambient_dim, v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(_reduce(self.field, self.rows, dict(r)) for r in other.rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        ech = Echelon(self.field, big)
        for r in small.rows.values():
            ech.insert(dict(r))
        return Subspace(self.field, self.ambient_dim, ech.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.pivots)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(m: Mat) -> Subspace:
    """Solution space of m x = 0, spanned by the tags of the dependent
    columns of m's column echelon."""
    f = m.field
    return _span(f, m.cols, _column_echelon(f, [sparse(m.col(j)) for j in range(m.cols)])[1])


def image(m: Mat) -> Subspace:
    """Column space of m (the image of the linear map v -> m v)."""
    return _span(m.field, m.rows, map(sparse, zip(*m.data)))


def _complement_rows(ambient: Subspace, sub: Subspace, tagged=False):
    """The rows of `ambient`, scanned in pivot order, that are independent of
    `sub` and of the rows kept before them, as {pivot: row}, and the tags.

    One echelon starts from sub's rows and takes each scanned row.  With
    `tagged` its rows carry their coordinates on the kept rows; it ends
    spanning `ambient`, so a v in ambient has the coordinates sum over
    pivots p of v[p] * tags[p].
    """
    if not ambient.contains_subspace(sub):
        raise QuivkitError("NOT_A_SUBSPACE", "sub is not contained in ambient")
    f = ambient.field
    ech = Echelon(f, sub, tagged)
    kept = {}
    for p in ambient.pivots:
        if len(ech.rows) == ambient.dim:
            break
        if ech.insert(dict(ambient.rows[p]), {len(kept): f.one} if tagged else None):
            kept[p] = ambient.rows[p]
    return kept, ech.tags


def complement(ambient: Subspace, sub: Subspace) -> Subspace:
    """Deterministic complement W with ambient = sub ⊕ W.

    The RREF rows of `ambient` are scanned in order and rows independent
    from `sub` are collected (for ambient = k^n these are standard basis
    vectors); rows of a reduced echelon form are one themselves.
    """
    kept, _tags = _complement_rows(ambient, sub)
    return Subspace(ambient.field, ambient.ambient_dim, kept)


def quotient_basis(ambient: Subspace, sub: Subspace):
    """Representatives of a basis of ambient/sub plus a projection matrix.

    Returns (reps, proj) where reps is a list of vectors whose classes are a
    basis of the quotient, and proj is a (len(reps) x n) matrix computing
    quotient coordinates for vectors lying in `ambient`.  proj is 0 off the
    pivot columns of `ambient`, which makes it unique.
    """
    f = ambient.field
    n = ambient.ambient_dim
    kept, tags = _complement_rows(ambient, sub, tagged=True)
    proj = [[f.zero] * n for _ in kept]
    for p, tag in tags.items():
        for i, c in tag.items():
            proj[i][p] = c
    return [dense(f, n, r) for r in kept.values()], Mat(f, len(kept), n, proj)
