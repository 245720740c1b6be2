"""Truncated completed path algebras of Vquivers.

The algebra of a Vquiver at level n has basis all paths of length < n (words
in arrow labels with composable endpoints, including the length-0 paths, one
idempotent per vertex).  Multiplication is concatenation: p*q means "q, then
p", is zero when endpoints mismatch, and is zero when the combined length
reaches the level.  The radical is the span of paths of length >= 1 and the
m-th radical power is the span of paths of length >= m.
"""

from __future__ import annotations

from .errors import QuivkitError
from .algebra import AlgMorphism, FinAlgebra, _mul_raw, orthogonal_idempotents, presented_algebra
from .exactlin import Subspace, sparse, vec_combination, vec_unit, vec_zero
from .vquiver import POINT, Quiver, QuiverMap, VQuiver, VQuiverMap, v_of_inclusion, v_of_quiver


class _Path:
    """Immutable path: start vertex plus arrow labels in application order."""

    __slots__ = ("start", "arrows", "end")

    def __init__(self, start, arrows, end):
        self.start = start
        self.arrows = arrows
        self.end = end

    @property
    def length(self):
        return len(self.arrows)

    def key(self):
        return (self.start, self.arrows)

    def __repr__(self):
        return f"_Path({self.start}, {self.arrows})"


def _path_label(path: _Path, joiner: str) -> str:
    if not path.arrows:
        return f"e{path.start}"
    return joiner.join(reversed(path.arrows))


class TruncatedTensorAlgebra:
    """A path algebra truncated at a level, wrapping a validated FinAlgebra."""

    __slots__ = ("vq", "level", "field", "carrier", "paths", "index",
                 "grading", "vertex_idem", "arrow_index")

    def __init__(self, vq, level, field, carrier, paths, index, grading,
                 vertex_idem, arrow_index):
        self.vq = vq
        self.level = level
        self.field = field
        self.carrier = carrier
        self.paths = paths
        self.index = index
        self.grading = grading
        self.vertex_idem = vertex_idem
        self.arrow_index = arrow_index

    @property
    def dim(self):
        return self.carrier.dim

    def idempotent(self, vertex):
        return self.carrier.basis_vector(self.vertex_idem[vertex])

    def arrow_element(self, label):
        return self.carrier.basis_vector(self.arrow_index[label])

    def generators(self):
        """Vertex idempotents by vertex and arrow elements by arrow pair."""
        idems = {v: self.idempotent(v) for v in self.vq.vertices}
        arrows = {pair: [self.arrow_element(lab) for lab in labs]
                  for pair, labs in self.vq.spaces.items()}
        return idems, arrows

    def identity_images(self):
        """Vertex idempotents by vertex and arrow elements by label: the
        identity's generator images, in the form universal_map takes."""
        return ({v: self.idempotent(v) for v in self.vq.vertices},
                {lab: self.arrow_element(lab) for lab in self.vq.arrow_labels()})

    def deeper_paths(self, src, tgt):
        """Indices of the paths of length >= 2 from src to tgt."""
        return [i for i, p in enumerate(self.paths)
                if p.start == src and p.end == tgt and p.length >= 2]

    def paths_of_length_at_least(self, m: int) -> Subspace:
        # coordinate rows are their own reduced echelon form
        one = self.field.one
        return Subspace(self.field, self.dim,
                        {i: {i: one} for layer in self.grading[m:] for i in layer})

    def __repr__(self):
        return f"TruncatedTensorAlgebra(level={self.level}, dim={self.dim})"


# Largest dimension build_kvq admits.  Each product of paths is stored as one
# term or none, so memory is no limit; time is.  The radical is re-verified by
# the generator certificate, one table lookup per path of J and arrow: at dim
# 254, the level-7 algebra of the 2-vertex quiver with a loop, two arrows
# 1 -> 2 and one arrow 2 -> 1, build_kvq takes 2-5 ms, and build_kvq, gq and
# counit together 0.008-0.018 s of CPU time, over F5 and over Q alike, on a
# 2-core x86-64 VM.
MAX_KVQ_DIM = 256


def _path_count(vq: VQuiver, level: int) -> int:
    """Number of paths of length < level, counted by arrow multiplicities;
    the count stops once it exceeds MAX_KVQ_DIM."""
    ends = dict.fromkeys(vq.vertices, 1)
    total = len(ends)
    for _ in range(1, level):
        if total > MAX_KVQ_DIM or not any(ends.values()):
            break
        nxt = dict.fromkeys(vq.vertices, 0)
        for (src, tgt), labels in vq.spaces.items():
            nxt[tgt] += ends[src] * len(labels)
        ends = nxt
        total += sum(ends.values())
    return total


def build_kvq(field, vq: VQuiver, level: int) -> TruncatedTensorAlgebra:
    """Path algebra of a Vquiver truncated at `level` (level >= 2)."""
    if level < 2:
        raise QuivkitError("LEVEL_TOO_SMALL", "truncation level must be at least 2")
    if not vq.vertices:
        raise QuivkitError("BAD_SHAPE",
                           "path algebra of a point-only Vquiver has dimension 0")
    if _path_count(vq, level) > MAX_KVQ_DIM:
        raise QuivkitError("TOO_LARGE", f"the path algebra at level {level} has more "
                                        f"than {MAX_KVQ_DIM} basis paths")
    joiner = "" if all(len(lab) == 1 for lab in vq.arrow_labels()) else "*"

    # grading[m] holds the indices of the paths of length m; it stops at the
    # first empty layer, so an acyclic quiver costs nothing past its longest path
    paths, grading = [], []
    layer = [_Path(v, (), v) for v in vq.vertices]
    while layer:
        grading.append(list(range(len(paths), len(paths) + len(layer))))
        paths.extend(layer)
        if len(grading) == level:
            break
        layer = [_Path(p.start, p.arrows + (lab,), tgt) for p in layer
                 for (src, tgt), labels in vq.spaces.items() if src == p.end
                 for lab in labels]
        layer.sort(key=lambda q: tuple(reversed(q.arrows)))
    index = {p.key(): i for i, p in enumerate(paths)}
    dim = len(paths)
    labels = [_path_label(p, joiner) for p in paths]
    if len(set(labels)) != dim:
        labels = [f"p{i}" if p.arrows else f"e{p.start}"
                  for i, p in enumerate(paths)]

    # p * q = "q then p": one path or zero; row p holds the paths q that end
    # at p's start, in length order, up to the level
    one, nv = field.one, len(vq.vertices)
    lengths = [p.length for p in paths]
    ending = {v: [] for v in vq.vertices}
    for i, q in enumerate(paths):
        ending[q.end].append(i)
    sc = []
    for p, lp in zip(paths, lengths):
        row = [()] * dim
        for i in ending[p.start]:
            if lp + lengths[i] >= level:
                break
            q = paths[i]
            row[i] = ((index[(q.start, q.arrows + p.arrows)], one),)
        sc.append(row)
    idems = [vec_unit(field, dim, i) for i in range(nv)]
    unit = [one] * nv + [field.zero] * (dim - nv)
    radical = Subspace(field, dim, {i: {i: one} for i in range(nv, dim)})
    arrows = [vec_unit(field, dim, i) for layer in grading[1:2] for i in layer]
    carrier = presented_algebra(field, labels, sc, unit, radical, idems, arrows)
    vertex_idem = {v: index[(v, ())] for v in vq.vertices}
    arrow_index = {}
    for (src, tgt), labs in vq.spaces.items():
        for lab in labs:
            arrow_index[lab] = index[(src, (lab,))]
    return TruncatedTensorAlgebra(vq, level, field, carrier, paths, index,
                                  grading, vertex_idem, arrow_index)


def universal_map(t: TruncatedTensorAlgebra, target: FinAlgebra,
                  idem_images, arrow_images) -> AlgMorphism:
    """The unique morphism extending vertex and arrow images.

    `idem_images` maps each vertex to an element of the target (orthogonal
    idempotents summing to 1, zeros allowed); `arrow_images` maps each arrow
    label to an element of the target, forced to live in the matching Peirce
    block and inside the target radical.  Paths map to the products of their
    arrow images, each built from its prefix's column.  Those checks and
    J^level = 0 in the target are the universal property, so the map is a
    morphism with no further check; it is onto mod radicals iff dim B/J(B)
    vertex images are nonzero.
    """
    f = t.field
    if target.field != f:
        raise QuivkitError("BAD_FIELD", "target over a different field")
    if target.truncation_level > t.level:
        raise QuivkitError(
            "TRUNCATION_INCOMPATIBLE",
            f"target needs J^{target.truncation_level} = 0 but level is {t.level}")
    u = {}
    for v in t.vq.vertices:
        if v not in idem_images:
            raise QuivkitError("BIMODULE_CONDITION_FAIL", f"no image for vertex {v}")
        u[v] = list(idem_images[v])
    verts = t.vq.vertices
    nonzero = orthogonal_idempotents(f, target.structconst, target.unit,
                                     [u[v] for v in verts], "BIMODULE_CONDITION_FAIL",
                                     [f"image of vertex {v}" for v in verts])
    jt, sc = target.radical, target.structconst
    us = {v: sparse(u[v]) for v in verts}
    xs = {}
    for (src, tgt), labs in t.vq.spaces.items():
        for lab in labs:
            if lab not in arrow_images:
                raise QuivkitError("BIMODULE_CONDITION_FAIL",
                                   f"no image for arrow {lab}")
            xa = sparse(arrow_images[lab])
            if _mul_raw(f, sc, us[tgt], _mul_raw(f, sc, xa, us[src])) != xa:
                raise QuivkitError("BIMODULE_CONDITION_FAIL",
                                   f"image of arrow {lab} escapes its block")
            if not jt.contains(xa):
                raise QuivkitError("TRUNCATION_INCOMPATIBLE",
                                   f"image of arrow {lab} is not in the radical")
            xs[lab] = xa
    if nonzero != target.dim - jt.dim:
        raise QuivkitError("RADICAL_QUOTIENT_NOT_SURJECTIVE",
                           "induced map A/J(A) -> B/J(B) is not onto")

    # paths come in order of length, so a path's prefix (all arrows but the
    # last) has its column already; an arrow's column is its framed image
    cols = []
    for p in t.paths:
        if p.length <= 1:
            cols.append(xs[p.arrows[0]] if p.arrows else us[p.start])
        else:
            prefix = cols[t.index[(p.start, p.arrows[:-1])]]
            cols.append(_mul_raw(f, sc, xs[p.arrows[-1]], prefix))
    return AlgMorphism(t.carrier, target, cols)


def vqmap_generator_images(rho: VQuiverMap, n: int, idems, arrow_bases):
    """Images of the generators of rho's source, given those of its target.

    Vertex w of rho's target stands for the length-n element `idems[w]` and
    its (w, w') arrows for the list `arrow_bases[(w, w')]`.  A source vertex
    goes to the element of its image (0 at the point); a source arrow goes
    to the combination of the image arrows with the coefficients of its
    column in rho's block.  Returns ({vertex: element}, {arrow: element}),
    ready for universal_map.
    """
    f = rho.field
    vm = rho.vertex_map
    idem_images = {v: vec_zero(f, n) if vm[v] == POINT else idems[vm[v]]
                   for v in rho.source.vertices}
    arrow_images = {}
    for (src, tgt), labs in rho.source.spaces.items():
        ws, wt = vm[src], vm[tgt]
        killed = rho.target.dim(ws, wt) == 0
        block = None if killed else rho.block(src, tgt)
        for j, lab in enumerate(labs):
            if killed:
                arrow_images[lab] = vec_zero(f, n)
            else:
                arrow_images[lab] = vec_combination(f, n, block.col(j),
                                                    arrow_bases[(ws, wt)])
    return idem_images, arrow_images


def kvq_on_map(rho: VQuiverMap, level: int, *, src: TruncatedTensorAlgebra = None,
               tgt: TruncatedTensorAlgebra = None) -> AlgMorphism:
    """Functorial morphism k[[source]] -> k[[target]] of a Vquiver map."""
    field = rho.field
    if src is None:
        src = build_kvq(field, rho.source, level)
    if tgt is None:
        tgt = build_kvq(field, rho.target, level)
    if src.vq != rho.source or tgt.vq != rho.target or src.level != level \
            or tgt.level != level:
        raise QuivkitError("BAD_ARGUMENT", "prebuilt algebras do not match the map")
    images = vqmap_generator_images(rho, tgt.dim, *tgt.generators())
    return universal_map(src, tgt.carrier, *images)


def cpa(field, q: Quiver, level: int) -> TruncatedTensorAlgebra:
    """Completed path algebra of a quiver, truncated: k[[V(Q)]] at the level."""
    return build_kvq(field, v_of_quiver(q), level)


def cpa_on_inclusion(iota: QuiverMap, level: int, field, *,
                     src: TruncatedTensorAlgebra = None,
                     tgt: TruncatedTensorAlgebra = None) -> AlgMorphism:
    """CPA(R) -> CPA(Q) for an injective quiver map Q -> R: the Vquiver
    functor on v_of_inclusion, which kills every path not completely inside
    Q and sends the others to their preimages."""
    return kvq_on_map(v_of_inclusion(iota, field), level, src=src, tgt=tgt)


def k2vq(field, vq: VQuiver) -> TruncatedTensorAlgebra:
    """The level-2 path algebra (vertices plus arrows, J^2 = 0)."""
    return build_kvq(field, vq, 2)
