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
    """

    __slots__ = ("parent", "idems", "blocks")

    def __init__(self, parent: FinAlgebra, idems: IdempotentSet, blocks):
        self.parent = parent
        self.idems = idems
        self.blocks = blocks

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


def make_splitting(a: FinAlgebra, *, conjugate_by=None, t_shift=None) -> Splitting:
    """Build a splitting; deterministic given the algebra.

    The section of J -> J/J^2 is read off the admitted arrows: each lies in
    one Peirce block e_j A e_i, keyed (i, j) as `a.arrow_blocks` holds it
    (conjugation keeps it), and their words span J, so the arrows
    independent of J^2 and of those kept before them are a blockwise basis
    of J/J^2.  `conjugate_by` (an element of J, dense or sparse)
    conjugates idempotents and arrows under 1+w, and `t_shift` perturbs the
    section by adding elements of the J^2 block; both knobs produce a
    different but equally valid splitting, which downstream independence
    checks use.
    """
    idems = lift_idempotents(a)
    elements, arrows = idems.elements, a.arrows
    if conjugate_by is not None:
        if not a.radical.contains(conjugate_by):
            raise QuivkitError("BAD_ARGUMENT", "conjugator must lie in J")
        conj = conjugation(a, conjugate_by)
        elements, arrows = list(map(conj, elements)), list(map(conj, arrows))
        idems = IdempotentSet(a, elements)
    f, j2 = a.field, a.radical_power(2)
    ech, kept = Echelon(f, j2), {}
    for x, key in zip(arrows, a.arrow_blocks):
        if ech.insert(dict(x)):
            kept.setdefault(key, []).append(x)
    blocks = dict(sorted(kept.items()))
    if t_shift is not None:
        for (i, j), vecs in blocks.items():
            sub = a.peirce_block(elements[j], elements[i], j2)
            for k, v in enumerate(vecs):
                extra = t_shift(i, j, k, sub)
                if extra is not None:
                    extra = _as_sparse(f, a.dim, extra)
                    if not sub.contains(extra):
                        raise QuivkitError("BAD_ARGUMENT", "t shift must land in the J^2 block")
                    vecs[k] = add_scaled(f, dict(v), f.one, extra)
    return Splitting(a, idems, blocks)


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
