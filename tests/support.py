"""Views and predicates that only the tests use, kept out of the package.

`s_apply` is a splitting's section A/J -> A, `is_identity` tells an
identity morphism by its columns, `paths_of_length_at_least` is the span
of the long paths of a truncated path algebra, and
`identity_class_is_conjugation_group` is the reachability predicate that
`tests/test_gabriel.py` checks against `inner_conjugation_witness`.
`warm_then_cold` runs a call on build_kvq's memo as the caller left it and
again on an empty one.  `peirce_block` is the basis-wide block product and
`splitting_variant` a splitting other than `make_splitting`'s.  The
`random_*` generators draw the instances of the property suites from a
seeded `random.Random`, in a fixed order of draws.
"""

import random

from quivkit import pathalg
from quivkit.adjunction import conjugated_images
from quivkit.algebra import AlgMorphism, IdealSubspace, _combine, _mul_raw, ideal_generated_by
from quivkit.exactlin import Subspace, _as_sparse, _span, add_scaled
from quivkit.generators import random_scalar
from quivkit.pathalg import TruncatedTensorAlgebra, universal_map
from quivkit.splittings import IdempotentSet, Splitting, conjugation, make_splitting
from quivkit.vquiver import VQuiver


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


def warm_then_cold(call):
    """(call(), call()): the first on build_kvq's memo as the caller left
    it, which hands back the caller's own path algebras, the second after
    emptying the memo, which builds them anew."""
    warm = call()
    pathalg._KVQ_MEMO.clear()
    return warm, call()


def peirce_block(a, left_idem, right_idem, space):
    """The subspace left_idem * space * right_idem of the algebra a."""
    f, sc = a.field, a.structconst
    left, right = _as_sparse(f, a.dim, left_idem), _as_sparse(f, a.dim, right_idem)
    return _span(f, a.dim, [_mul_raw(f, sc, left, _mul_raw(f, sc, v, right))
                            for v in space.rows.values()])


def splitting_variant(a, w=None, shift=None):
    """make_splitting(a) with its idempotents and block vectors conjugated
    under 1+w, for w in J, then each vector k of block (i, j) moved by
    shift(i, j, k, sub), an element of sub = f_j J^2 f_i or None.

    Conjugation by 1+w is an automorphism that fixes J^2 and carries each
    Peirce block to the block of the conjugated idempotents, and a shift
    into J^2 keeps every class mod J^2, so the result is again a splitting;
    it goes through the checked Splitting constructor.
    """
    split, f = make_splitting(a), a.field
    idems, blocks = split.idems, {key: list(vecs) for key, vecs in split.blocks.items()}
    if w is not None:
        assert a.radical.contains(w)
        conj = conjugation(a, w)
        idems = IdempotentSet(a, list(map(conj, idems.elements)))
        blocks = {key: list(map(conj, vecs)) for key, vecs in blocks.items()}
    if shift is not None:
        j2, es = a.radical_power(2), idems.elements
        for (i, j), vecs in blocks.items():
            sub = peirce_block(a, es[j], es[i], j2)
            for k, v in enumerate(vecs):
                extra = shift(i, j, k, sub)
                if extra is not None:
                    extra = _as_sparse(f, a.dim, extra)
                    assert sub.contains(extra)
                    vecs[k] = add_scaled(f, dict(v), f.one, extra)
    return Splitting(a, idems, blocks)


def random_vquiver(rng: random.Random, *, max_vertices=4, max_total_arrows=4,
                   prefix="v") -> VQuiver:
    n = rng.randint(1, max_vertices)
    vertices = [f"{prefix}{i + 1}" for i in range(n)]
    total = rng.randint(0, max_total_arrows)
    spaces = {}
    for k in range(total):
        src = rng.choice(vertices)
        tgt = rng.choice(vertices)
        spaces.setdefault((src, tgt), []).append(f"{prefix}x{k}")
    return VQuiver(vertices, spaces)


def random_radical_element(rng, t: TruncatedTensorAlgebra, *, min_length=1):
    """A sparse element on the paths of length >= min_length."""
    f = t.field
    out = {}
    for layer in t.grading[min_length:]:
        for i in layer:
            if rng.random() < 0.4 and (c := random_scalar(rng, f)):
                out[i] = c
    return out


def random_relation_ideal(rng, t: TruncatedTensorAlgebra) -> IdealSubspace:
    """Ideal generated by a few random elements of J^2 (possibly zero)."""
    k = rng.randint(0, 2)
    gens = [random_radical_element(rng, t, min_length=2) for _ in range(k)]
    return ideal_generated_by(t.carrier, gens)


def random_identity_class_automorphism(rng, t: TruncatedTensorAlgebra,
                                       ) -> AlgMorphism:
    """Random member of the identity class: arrow shifts into longer paths,
    then a conjugation, as generator images."""
    f = t.field
    w = None
    if rng.random() < 0.8 and t.carrier.radical.dim > 0:
        w = random_radical_element(rng, t, min_length=1)
    idem_images, arrow_images = t.generators()
    if rng.random() < 0.8:
        for lab, img in arrow_images.items():
            src, tgt, _ = t.vq.arrow_location(lab)
            for i in t.deeper_paths(src, tgt):
                # i is a longer path, not img's arrow: a zero draw stores nothing
                if rng.random() < 0.3 and (c := random_scalar(rng, f)):
                    img[i] = c
    if w is not None:
        idem_images, arrow_images = conjugated_images(t.carrier, w, idem_images,
                                                      arrow_images)
    return universal_map(t, t.carrier, idem_images, arrow_images)


