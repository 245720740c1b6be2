"""Views and predicates that only the tests use, kept out of the package.

`s_apply` is a splitting's section A/J -> A, `is_identity` tells an
identity morphism by its columns, `paths_of_length_at_least` is the span
of the long paths of a truncated path algebra, and
`identity_class_is_conjugation_group` is the reachability predicate that
`tests/test_gabriel.py` checks against `inner_conjugation_witness`.
"""

from quivkit.algebra import _combine
from quivkit.exactlin import Subspace


def s_apply(split, coords):
    """Section A/J -> A on canonical coordinates (one per idempotent), a
    sparse element."""
    return _combine(split.parent.field, split.idems.elements, enumerate(coords))


def is_identity(m):
    one = m.source.field.one
    return (m.source is m.target
            and all(col == {j: one} for j, col in enumerate(m.cols)))


def paths_of_length_at_least(t, m):
    """The span of the paths of length >= m in the truncated path algebra t."""
    # coordinate rows are their own reduced echelon form
    one = t.field.one
    return Subspace(t.field, t.dim, {i: {i: one} for layer in t.grading[m:] for i in layer})


def identity_class_is_conjugation_group(vq, level):
    """Predicate: no vertex pair admits both an arrow and a longer path.

    True exactly when there is no pair (x, y) with an arrow space of positive
    dimension from x to y and also a composable arrow word of length in
    [2, level) from x to y.  Tested empirically against
    inner_conjugation_witness on generated members of the identity class.
    """
    edges = {(s, t) for (s, t) in vq.arrow_pairs()}
    reach = {pair: {1} for pair in edges}
    frontier = set(edges)
    for length in range(2, level):
        cur = set()
        for (s, mid) in frontier:
            for (m2, t) in edges:
                if m2 == mid:
                    cur.add((s, t))
                    reach.setdefault((s, t), set()).add(length)
        frontier = cur
    for (s, t), lens in reach.items():
        if (s, t) in edges and any(l >= 2 for l in lens):
            return False
    return True
