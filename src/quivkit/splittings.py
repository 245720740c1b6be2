"""Constructive Wedderburn-Malcev data.

Every admitted algebra already holds a complete set of primitive orthogonal
idempotents, lifted along the radical at admission, and arrows in their
Peirce blocks whose words span J.  From them come the sections of A -> A/J
and, blockwise, of J -> J/J^2, and conjugators between two such splittings.
"""

from __future__ import annotations

from .errors import QuivkitError
from .algebra import FinAlgebra, _combine, _mul_raw, orthogonal_idempotents
from .exactlin import Echelon, _as_sparse, _solve_cols, add_scaled, dense


class IdempotentSet:
    """A complete set of primitive orthogonal idempotents of an algebra, as
    sparse elements (given dense or sparse); their number, dim A/J,
    certifies primitivity."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FinAlgebra, elements):
        self.parent = parent
        self.elements = [_as_sparse(parent.field, parent.dim, e) for e in elements]
        self.verify()

    def verify(self):
        a = self.parent
        n = len(self.elements)
        count = orthogonal_idempotents(a.field, a.structconst, a.unit,
                                       self.elements, "NOT_VALIDATED",
                                       [f"idempotent {i}" for i in range(n)])
        if not count == n == a.dim - a.radical.dim:
            raise QuivkitError("NOT_VALIDATED", f"{count} of {n} idempotents are nonzero, "
                                                f"dim A/J is {a.dim - a.radical.dim}")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"IdempotentSet(r={len(self.elements)})"


def lift_idempotents(a: FinAlgebra) -> IdempotentSet:
    """The primitive orthogonal idempotents that lift the canonical ones of
    A/J: the algebra's own, lifted and certified at admission, so they are
    read as they are and not verified again."""
    idems = object.__new__(IdempotentSet)
    idems.parent, idems.elements = a, list(a.ss_classes)
    return idems


class Splitting:
    """A pair (s, t): algebra section of A -> A/J and blockwise section of
    J -> J/J^2, presented through concrete data.

    `idems` lists the lifted primitive idempotents f_i; `blocks[(i, j)]` is a
    list of sparse radical elements spanning a complement of f_j J^2 f_i
    inside f_j J f_i (so their classes are a basis of the (i -> j) arrow
    space of the Gabriel quiver, and mapping classes to these vectors is the
    section t).

    The constructor checks that invariant before it stores anything:
    `idems` is an IdempotentSet of `parent` (BAD_ARGUMENT otherwise), each
    key is a pair (i, j) of its indices and each block a list (BAD_SHAPE),
    each vector, dense or sparse, lies in J with f_j x f_i = x, and the
    vectors are independent modulo J^2 and dim J - dim J^2 in number
    (NOT_VALIDATED, naming the block and the vector).  The vectors are
    stored sparse.
    """

    __slots__ = ("parent", "idems", "blocks")

    def __init__(self, parent: FinAlgebra, idems: IdempotentSet, blocks):
        if not isinstance(idems, IdempotentSet) or not parent.same_as(idems.parent):
            raise QuivkitError("BAD_ARGUMENT", f"{idems!r} is not an IdempotentSet of the algebra")
        r = len(idems)
        if not isinstance(blocks, dict):
            raise QuivkitError("BAD_SHAPE", f"blocks {blocks!r} are not a mapping")
        for key, vecs in blocks.items():
            if type(key) is not tuple or len(key) != 2 or \
                    any(type(i) is not int or not 0 <= i < r for i in key):
                raise QuivkitError("BAD_SHAPE", f"block key {key!r} is not a pair of "
                                                f"idempotent indices 0..{r - 1}")
            if not isinstance(vecs, (list, tuple)):
                raise QuivkitError("BAD_SHAPE", f"block {key} is {vecs!r}, not a list of vectors")
        f, sc, es, rad = parent.field, parent.structconst, idems.elements, parent.radical
        j2 = parent.radical_power(2)
        ech, checked = Echelon(f, j2), {}
        for (i, j), vecs in sorted(blocks.items()):
            checked[(i, j)] = []
            for k, v in enumerate(vecs):
                name = f"block ({i}, {j}) vector {k}"
                x = _as_sparse(f, parent.dim, v, name)
                if not rad.contains(x) or _mul_raw(f, sc, es[j], _mul_raw(f, sc, x, es[i])) != x:
                    raise QuivkitError("NOT_VALIDATED", f"{name} is not in f_{j} J f_{i}")
                if not ech.insert(dict(x)):
                    raise QuivkitError("NOT_VALIDATED", f"{name} is dependent modulo J^2 "
                                                        f"on the vectors before it")
                checked[(i, j)].append(x)
        count, want = sum(map(len, checked.values())), rad.dim - j2.dim
        if count != want:
            raise QuivkitError("NOT_VALIDATED", f"{count} block vectors, dim J/J^2 is {want}")
        self.parent, self.idems, self.blocks = parent, idems, checked

    @property
    def rank(self):
        return len(self.idems)

    def total_block_dim(self):
        return sum(len(v) for v in self.blocks.values())

    def __repr__(self):
        return f"Splitting(r={self.rank}, arrows={self.total_block_dim()})"


def conjugation(a: FinAlgebra, w):
    """The map x -> (1+w) x (1+w)^{-1} on sparse elements, for w in the
    radical, dense or sparse; the inverse is the exact geometric series,
    summed once."""
    f, sc, unit = a.field, a.structconst, a.unit
    w = _as_sparse(f, a.dim, w)
    one_plus = add_scaled(f, dict(unit), f.one, w)
    inv, term, neg = dict(unit), unit, f.neg
    for _ in range(a.truncation_level + 1):
        term = {k: neg(c) for k, c in _mul_raw(f, sc, term, w).items()}
        if not term:
            break
        add_scaled(f, inv, f.one, term)
    if _mul_raw(f, sc, one_plus, inv) != unit:
        raise QuivkitError("NOT_VALIDATED", "1+w is not invertible (w outside J?)")
    return lambda x: _mul_raw(f, sc, one_plus, _mul_raw(f, sc, x, inv))


def conjugate_element(a: FinAlgebra, w, x):
    """(1+w) x (1+w)^{-1} for w in the radical: the dense view, taking w and
    x dense or sparse."""
    return dense(a.field, a.dim, conjugation(a, w)(_as_sparse(a.field, a.dim, x)))


def conjugating_element(a: FinAlgebra, pairs):
    """w in J with (1+w) q (1+w)^{-1} = p for every (p, q) in pairs, or None.

    Cleared of the inverse the condition is linear in w: for w in J,
    (1+w) q (1+w)^{-1} = p exactly when w q - p w = p - q.  The equations of
    all pairs are stacked and solved once over a basis of J (pivot-minimal
    solution), so a solution conjugates every pair with no further check.
    Column j stacks w q - p w for w the j-th row of J in pivot order.  The
    pairs may be dense or sparse; w is sparse.
    """
    f, sc, n, rad = a.field, a.structconst, a.dim, a.radical
    terms = [(_as_sparse(f, n, p), _as_sparse(f, n, q)) for p, q in pairs]
    minus_one = f.neg(f.one)

    def stacked(parts):
        """The k-th of the vectors `parts` at rows k*n .. k*n + n-1."""
        return {k * n + i: c for k, part in enumerate(parts) for i, c in part.items()}

    cols = [stacked([add_scaled(f, _mul_raw(f, sc, jb, qt), minus_one, _mul_raw(f, sc, pt, jb))
                     for pt, qt in terms])
            for jb in map(rad.rows.get, rad.pivots)]
    rhs = stacked([add_scaled(f, dict(pt), minus_one, qt) for pt, qt in terms])
    sol = _solve_cols(f, cols, [rhs])[0]
    return None if sol is None else _combine(f, rad.rows, ((rad.pivots[j], c)
                                                           for j, c in sol.items()))


def make_splitting(a: FinAlgebra) -> Splitting:
    """The splitting of the admitted data; deterministic given the algebra.

    The section of A -> A/J is the lifted idempotents.  The section of
    J -> J/J^2 is read off the admitted arrows: each lies in one Peirce
    block e_j A e_i, keyed (i, j) as `a.arrow_blocks` holds it, and their
    words span J, so the arrows independent of J^2 and of those kept
    before them are a blockwise basis of J/J^2.  A splitting by
    construction, so it is built without the constructor's check.
    """
    ech, kept = Echelon(a.field, a.radical_power(2)), {}
    for x, key in zip(a.arrows, a.arrow_blocks):
        if ech.insert(dict(x)):
            kept.setdefault(key, []).append(x)
    split = object.__new__(Splitting)
    split.parent, split.idems, split.blocks = a, lift_idempotents(a), dict(sorted(kept.items()))
    return split


def conjugator(s1: Splitting, s2: Splitting):
    """w in J with (1+w) s2(z) (1+w)^{-1} = s1(z) for all z in A/J.

    w is the conjugating_element of the idempotent pairs; its absence would
    contradict the uniqueness theory and raises NO_CONJUGATOR.
    """
    a = s1.parent
    if a is not s2.parent and not a.same_as(s2.parent):
        raise QuivkitError("BAD_ARGUMENT", "splittings of different algebras")
    w = conjugating_element(a, zip(s1.idems.elements, s2.idems.elements))
    if w is None:
        raise QuivkitError("NO_CONJUGATOR",
                           "conjugation system inconsistent (internal)")
    return w


def same_orbit(a: FinAlgebra, e, f_idem):
    """Decide whether two primitive idempotents are conjugate under 1+J.

    Returns (bool, witness): the membership test is e - f in J, and when it
    holds a sparse witness w with (1+w) e (1+w)^{-1} = f is produced by
    solving the linear conjugation system.  e and f may be dense or sparse.
    """
    f = a.field
    e, f_idem = _as_sparse(f, a.dim, e), _as_sparse(f, a.dim, f_idem)
    if not a.radical.contains(add_scaled(f, dict(e), f.neg(f.one), f_idem)):
        return False, None
    if e == f_idem:
        return True, {}
    w = conjugating_element(a, [(f_idem, e)])
    if w is None:
        raise QuivkitError("NO_CONJUGATOR",
                           "orbit witness system inconsistent (internal)")
    return True, w
