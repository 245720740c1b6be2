"""Constructive Wedderburn-Malcev data.

Every admitted algebra already holds a complete set of primitive orthogonal
idempotents, lifted along the nilpotent radical at admission.  From them
come the algebra section of A -> A/J, the blockwise section of J -> J/J^2,
and conjugators between two such splittings.
"""

from __future__ import annotations

from .errors import QuivkitError
from .algebra import FinAlgebra, _mul_raw, _peirce_blocks, orthogonal_idempotents
from .exactlin import (
    Mat,
    complement,
    dense,
    solve,
    sparse,
    vec_add,
    vec_combination,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vec_zero,
)


class IdempotentSet:
    """A complete set of primitive orthogonal idempotents of an algebra;
    their number, dim A/J, certifies primitivity."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FinAlgebra, elements):
        self.parent = parent
        self.elements = [list(e) for e in elements]
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
    idems.parent, idems.elements = a, [list(e) for e in a.ss_classes]
    return idems


class Splitting:
    """A pair (s, t): algebra section of A -> A/J and blockwise section of
    J -> J/J^2, presented through concrete data.

    `idems` lists the lifted primitive idempotents f_i; `blocks[(i, j)]` is a
    list of radical elements spanning a complement of f_j J^2 f_i inside
    f_j J f_i (so their classes are a basis of the (i -> j) arrow space of the
    Gabriel quiver, and mapping classes to these vectors is the section t).
    """

    __slots__ = ("parent", "idems", "blocks")

    def __init__(self, parent: FinAlgebra, idems: IdempotentSet, blocks):
        self.parent = parent
        self.idems = idems
        self.blocks = blocks

    @property
    def rank(self):
        return len(self.idems)

    def s_apply(self, coords):
        """Section A/J -> A on canonical coordinates (one per idempotent)."""
        return vec_combination(self.parent.field, self.parent.dim, coords,
                               self.idems.elements)

    def total_block_dim(self):
        return sum(len(v) for v in self.blocks.values())

    def __repr__(self):
        return f"Splitting(r={self.rank}, arrows={self.total_block_dim()})"


def conjugation(a: FinAlgebra, w):
    """The map x -> (1+w) x (1+w)^{-1} for w in the radical; the inverse is
    the exact geometric series, summed once."""
    f = a.field
    one_plus = vec_add(f, a.unit, w)
    inv = a.unit
    term = a.unit
    for _ in range(a.truncation_level + 1):
        term = vec_scale(f, f.neg(f.one), a.mul(term, w))
        if vec_is_zero(f, term):
            break
        inv = vec_add(f, inv, term)
    if a.mul(one_plus, inv) != a.unit:
        raise QuivkitError("NOT_VALIDATED", "1+w is not invertible (w outside J?)")
    sc, left, right = a.structconst, sparse(one_plus), sparse(inv)
    return lambda x: dense(f, a.dim, _mul_raw(f, sc, left, _mul_raw(f, sc, sparse(x), right)))


def conjugate_element(a: FinAlgebra, w, x):
    """(1+w) x (1+w)^{-1} for w in the radical."""
    return conjugation(a, w)(x)


def conjugating_element(a: FinAlgebra, pairs):
    """w in J with (1+w) q (1+w)^{-1} = p for every (p, q) in pairs, or None.

    Cleared of the inverse the condition is linear in w: for w in J,
    (1+w) q (1+w)^{-1} = p exactly when w q - p w = p - q.  The equations of
    all pairs are stacked and solved once over a basis of J (pivot-minimal
    solution), so a solution conjugates every pair with no further check.
    """
    f = a.field
    pairs = list(pairs)
    jbasis = a.radical.basis
    rows = []
    rhs = []
    for p, q in pairs:
        cols = [vec_sub(f, a.mul(jb, q), a.mul(p, jb)) for jb in jbasis]
        rows.extend(Mat.from_cols(f, cols, rows=a.dim).data)
        rhs.extend(vec_sub(f, p, q))
    sol = solve(Mat.from_rows(f, rows, cols=len(jbasis)), rhs)
    if sol is None:
        return None
    return vec_combination(f, a.dim, sol, jbasis)


def make_splitting(a: FinAlgebra, *, conjugate_by=None, t_shift=None) -> Splitting:
    """Build a splitting; deterministic given the algebra.

    `conjugate_by` (an element of J) replaces every idempotent by its
    conjugate under 1+w, and `t_shift` perturbs the section of J -> J/J^2 by
    adding block-compatible elements of J^2; both knobs produce a different
    but equally valid splitting, which downstream independence checks use.
    """
    idems = lift_idempotents(a)
    elements = idems.elements
    if conjugate_by is not None:
        if not a.radical.contains(conjugate_by):
            raise QuivkitError("BAD_ARGUMENT", "conjugator must lie in J")
        elements = list(map(conjugation(a, conjugate_by), elements))
        idems = IdempotentSet(a, elements)
    j1 = a.radical
    j2 = a.radical_power(2)
    f, dim, sc = a.field, a.dim, a.structconst
    j2_blocks = _peirce_blocks(f, dim, sc, elements, j2)
    blocks = {}
    for (i, j), amb in _peirce_blocks(f, dim, sc, elements, j1).items():
        sub = j2_blocks[(i, j)]
        vecs = [list(v) for v in complement(amb, sub).basis]
        if t_shift is not None:
            shifted = []
            for k, v in enumerate(vecs):
                extra = t_shift(i, j, k, sub)
                if extra is not None:
                    if not sub.contains(extra):
                        raise QuivkitError("BAD_ARGUMENT",
                                           "t shift must land in the J^2 block")
                    v = vec_add(f, v, extra)
                shifted.append(v)
            vecs = shifted
        if vecs:
            blocks[(i, j)] = vecs
    split = Splitting(a, idems, blocks)
    if split.total_block_dim() != j1.dim - j2.dim:
        raise QuivkitError("NOT_VALIDATED", "block dimensions do not add up")
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
    holds a witness w with (1+w) e (1+w)^{-1} = f is produced by solving the
    linear conjugation system.
    """
    f = a.field
    diff = vec_sub(f, e, f_idem)
    if not a.radical.contains(diff):
        return False, None
    if e == f_idem:
        return True, vec_zero(f, a.dim)
    w = conjugating_element(a, [(f_idem, e)])
    if w is None:
        raise QuivkitError("NO_CONJUGATOR",
                           "orbit witness system inconsistent (internal)")
    return True, w
