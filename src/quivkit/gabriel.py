"""The Gabriel quiver functor, the pointed-set variant, and the congruences.

gq(A) builds a Vquiver whose vertices are the conjugacy orbits of a complete
set of primitive orthogonal idempotents and whose (i -> j) arrow space is the
block f_j (J/J^2) f_i, realized by concrete radical elements chosen by a
splitting.  Morphisms of algebras push forward to Vquiver maps; two algebra
morphisms are identified when their difference lands deep enough in the
radical filtration.
"""

from __future__ import annotations

from .errors import QuivkitError
from .algebra import AlgMorphism, FinAlgebra, _combine
from .exactlin import Mat, _as_sparse, _inverse_cols, add_scaled
from .splittings import Splitting, conjugating_element, make_splitting
from .vquiver import POINT, VQuiver, VQuiverMap


class GabrielQuiverResult:
    """Gabriel quiver of an algebra plus the witnessing splitting.

    `vquiver` has vertices "1".."r" in the canonical idempotent order;
    `arrow_bases[(src, tgt)]` lists sparse radical elements of the algebra
    whose classes mod J^2 form a basis of the corresponding arrow space.  The
    splitting idempotents, the arrow bases in `vquiver.spaces` order and a
    basis of J^2 form the adapted basis of A = s(A/J) + t(J/J^2) + J^2;
    every class in A/J and J/J^2 is read off its coordinate map.
    """

    __slots__ = ("algebra", "vquiver", "arrow_bases", "splitting",
                 "_coord_cols")

    def __init__(self, algebra, vquiver, arrow_bases, splitting):
        self.algebra = algebra
        self.vquiver = vquiver
        self.arrow_bases = arrow_bases
        self.splitting = splitting
        self._coord_cols = None

    @property
    def vertex_names(self):
        return self.vquiver.vertices

    def generators(self):
        """Splitting idempotents by vertex and arrow basis elements by arrow
        label, the form universal_map takes."""
        return (dict(zip(self.vertex_names, self.splitting.idems.elements)),
                {lab: x for pair, labs in self.vquiver.spaces.items()
                 for lab, x in zip(labs, self.arrow_bases[pair])})

    def coordinate_cols(self):
        """Sparse columns of the coordinate map, the inverse of the adapted
        basis, built on first use; shared, so no caller changes them."""
        if self._coord_cols is None:
            a = self.algebra
            j2 = a.radical_power(2)
            adapted = list(self.splitting.idems.elements)
            for pair in self.vquiver.spaces:
                adapted.extend(self.arrow_bases[pair])
            adapted.extend(j2.rows[p] for p in j2.pivots)
            cols = _inverse_cols(a.field, adapted) if len(adapted) == a.dim else None
            if cols is None:
                raise QuivkitError("SINGULAR", "the adapted basis is not a basis")
            self._coord_cols = cols
        return self._coord_cols

    def _coords(self, v):
        """Sparse coordinates of the element v, dense or sparse, in the
        adapted basis."""
        a = self.algebra
        return _combine(a.field, self.coordinate_cols(), _as_sparse(a.field, a.dim, v).items())

    def coordinate_map(self) -> Mat:
        """Inverse of the adapted basis (idempotents, arrow bases in
        `vquiver.spaces` order, a basis of J^2), as a dense matrix."""
        return Mat.from_sparse_cols(self.algebra.field, self.coordinate_cols(), self.algebra.dim)

    def vertex_of_idempotent(self, idem):
        """Orbit vertex of a primitive idempotent (None if in no orbit): the
        vertex whose splitting idempotent has the same class mod J."""
        r = len(self.vertex_names)
        head = [(k, c) for k, c in self._coords(idem).items() if k < r]
        if len(head) == 1 and head[0][1] == self.algebra.field.one:
            return self.vertex_names[head[0][0]]
        return None

    def arrow_class_coords(self, src, tgt, radical_vec):
        """Coordinates of the class of a radical element in a block basis;
        None when the class does not lie in the requested block."""
        coords = self._coords(radical_vec)
        lo = len(self.vertex_names)
        for pair, labs in self.vquiver.spaces.items():
            if pair == (src, tgt):
                break
            lo += len(labs)
        hi = lo + self.vquiver.dim(src, tgt)
        j2 = len(self.vertex_names) + self.vquiver.total_arrow_dim()
        if any(not lo <= k < hi for k in coords if k < j2):
            return None
        return [coords.get(k, self.algebra.field.zero) for k in range(lo, hi)]

    def read_map(self, alpha: AlgMorphism, vq: VQuiver, idems, arrows,
                 ) -> VQuiverMap:
        """Vquiver map vq -> gq(A) read off a morphism alpha into A.

        `idems[v]` and `arrows[b]` are the elements of alpha's source that
        stand for vq's vertex v and its arrow labelled b.  A vertex goes to the
        orbit of its image idempotent (the point when the image vanishes);
        an arrow block to the classes mod J^2 of its images, in the block
        bases.  The inverse of pathalg.vqmap_generator_images.
        """
        f = self.algebra.field
        vertex_map = {}
        for v in vq.vertices:
            img = alpha.apply(idems[v])
            if not img:
                vertex_map[v] = POINT
                continue
            name = self.vertex_of_idempotent(img)
            if name is None:
                raise QuivkitError("INTERNAL", "vertex image matches no orbit")
            vertex_map[v] = name
        mats = {}
        for (src, tgt), labs in vq.spaces.items():
            ws, wt = vertex_map[src], vertex_map[tgt]
            d = self.vquiver.dim(ws, wt)
            if d == 0:
                continue
            cols = []
            for lab in labs:
                coords = self.arrow_class_coords(ws, wt, alpha.apply(arrows[lab]))
                if coords is None:
                    raise QuivkitError("INTERNAL",
                                       "arrow image class escapes its block")
                cols.append(coords)
            mats[(src, tgt)] = Mat.from_cols(f, cols, rows=d)
        return VQuiverMap(f, vq, self.vquiver, vertex_map, mats)

    def __repr__(self):
        return f"GabrielQuiverResult({self.vquiver!r})"


def gq(a: FinAlgebra, splitting: Splitting = None) -> GabrielQuiverResult:
    """Gabriel quiver of an algebra (vertex count = dim A/J, arrow dims from
    the radical layer J/J^2).  Without a splitting, the result is built once
    per algebra, on `make_splitting`, and cached on it; no caller changes
    it."""
    if splitting is None:
        if a._gq_cache is None:
            a._gq_cache = gq(a, make_splitting(a))
        return a._gq_cache
    if not a.same_as(splitting.parent):
        raise QuivkitError("BAD_ARGUMENT", "splitting of a different algebra")
    r = splitting.rank
    names = [str(i + 1) for i in range(r)]
    spaces = {}
    arrow_bases = {}
    for (i, j), vecs in splitting.blocks.items():
        src, tgt = names[i], names[j]
        labels = [f"a_{src}_{tgt}_{k}" for k in range(len(vecs))]
        spaces[(src, tgt)] = labels
        arrow_bases[(src, tgt)] = list(vecs)
    return GabrielQuiverResult(a, VQuiver(names, spaces), arrow_bases, splitting)


def gq_on_morphism(alpha: AlgMorphism, gq_a: GabrielQuiverResult,
                   gq_b: GabrielQuiverResult) -> VQuiverMap:
    """Vquiver map induced by an algebra morphism: gq_b reads it off the
    splitting idempotents and arrow bases of gq_a."""
    if not alpha.source.same_as(gq_a.algebra) or \
            not alpha.target.same_as(gq_b.algebra):
        raise QuivkitError("BAD_ARGUMENT", "morphism endpoints do not match")
    return gq_b.read_map(alpha, gq_a.vquiver, *gq_a.generators())


def check_sim(alpha: AlgMorphism, beta: AlgMorphism, level: int) -> bool:
    """Congruence test at level 0 or 1 (check_sim_n at that level)."""
    if level not in (0, 1):
        raise QuivkitError("BAD_ARGUMENT", "level must be 0 or 1")
    return check_sim_n(alpha, beta, level)


def check_sim_n(alpha: AlgMorphism, beta: AlgMorphism, n: int) -> bool:
    """(a-b)(J^m(A)) in J^(m+1)(B) for all m <= n (vacuous for n < 0), tested
    on A's generators: d = a-b has d(x y) = a(x) d(y) + d(x) b(y), so if d
    takes idempotents into J(B) and arrows into J^2(B) (J(B) for ~0), a word
    with k arrows goes into J^(k+1)(B): ~1 is ~n for every n >= 1."""
    if not alpha.source.same_as(beta.source) or \
            not alpha.target.same_as(beta.target):
        raise QuivkitError("BAD_ARGUMENT", "morphisms have different endpoints")
    if n < 0:
        return True
    src, tgt, f = alpha.source, alpha.target, alpha.target.field

    def diff(g):
        return add_scaled(f, _combine(f, alpha.cols, g.items()), f.neg(f.one),
                          _combine(f, beta.cols, g.items()))

    j_arrows = tgt.radical_power(1 if n == 0 else 2)
    return (all(tgt.radical.contains(diff(e)) for e in src.ss_classes)
            and all(j_arrows.contains(diff(x)) for x in src.arrows))


def gq_tilde(representatives, gq_a: GabrielQuiverResult,
             gq_b: GabrielQuiverResult) -> VQuiverMap:
    """Image of a congruence class given by one or more representatives.

    When several representatives are supplied they must be pairwise congruent
    at level 1 and are all pushed through gq_on_morphism; the results must
    agree, which is re-asserted rather than assumed.
    """
    reps = list(representatives)
    if not reps:
        raise QuivkitError("BAD_ARGUMENT", "need at least one representative")
    for other in reps[1:]:
        if not check_sim(reps[0], other, 1):
            raise QuivkitError("BAD_ARGUMENT",
                               "representatives are not congruent at level 1")
    results = [gq_on_morphism(rep, gq_a, gq_b) for rep in reps]
    for res in results[1:]:
        if res != results[0]:
            raise QuivkitError("INTERNAL",
                               "class image depends on the representative")
    return results[0]


# ---------------------------------------------------------------------------
# pointed sets (Vquivers with no arrows)
# ---------------------------------------------------------------------------

def pointed_set(names) -> VQuiver:
    return VQuiver(list(names), {})


def gq0(a: FinAlgebra, gq_a: GabrielQuiverResult = None) -> VQuiver:
    """Orbit set of a complete set of primitive idempotents, as a pointed set."""
    if gq_a is None:
        gq_a = gq(a)
    return pointed_set(gq_a.vertex_names)


def gq0_on_morphism(alpha: AlgMorphism, gq_a: GabrielQuiverResult,
                    gq_b: GabrielQuiverResult) -> VQuiverMap:
    """Vertex part of gq_on_morphism, as a map of pointed sets."""
    full = gq_on_morphism(alpha, gq_a, gq_b)
    return VQuiverMap(alpha.source.field, pointed_set(gq_a.vertex_names),
                      pointed_set(gq_b.vertex_names), full.vertex_map, {})


# ---------------------------------------------------------------------------
# the inner-conjugation question for identity classes
# ---------------------------------------------------------------------------

def inner_conjugation_witness(delta: AlgMorphism):
    """w in J with delta(x) = (1+w) x (1+w)^{-1} for all x, or None.

    The requirement is linear in w after clearing the inverse, so this is an
    exact decision procedure for membership of an endomorphism in the
    conjugation subgroup: the conjugating_element of the pairs
    (delta(g), g) over the generators, on which two morphisms that agree
    agree everywhere.
    """
    a = delta.source
    if not delta.target.same_as(a):
        raise QuivkitError("BAD_ARGUMENT", "need an endomorphism")
    return conjugating_element(a, [(delta.apply(g), g) for g in a.generators()])
