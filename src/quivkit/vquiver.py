"""Quivers, Vquivers and their maps.

A Vquiver replaces each arrow set by a finite-dimensional vector space with a
named basis, plus a distinguished point vertex that absorbs deleted vertices.
Arrow space keys are (source, target).  Maps of Vquivers send the point to
the point and restrict to a bijection from the un-killed source vertices onto
the target vertex set; each arrow space carries a matrix into the image block.
"""

from __future__ import annotations

from .errors import QuivkitError
from .exactlin import Mat, rank

POINT = "*"
_POINT_ALIASES = {"*", "✱"}


def _check_vertex_labels(vertices):
    if len(set(vertices)) != len(vertices):
        raise QuivkitError("BAD_SHAPE", "duplicate vertex labels")
    for v in vertices:
        if v in _POINT_ALIASES:
            raise QuivkitError("BAD_SHAPE",
                               f"vertex label {v!r} is reserved for the point")


class Quiver:
    """Finite directed graph with labelled arrows."""

    __slots__ = ("vertices", "arrows", "_arrow_index")

    def __init__(self, vertices, arrows):
        _check_vertex_labels(vertices)
        self.vertices = list(vertices)
        vset = set(self.vertices)
        labels = [a[0] for a in arrows]
        if len(set(labels)) != len(labels):
            raise QuivkitError("BAD_SHAPE", "duplicate arrow labels")
        for label, src, tgt in arrows:
            if src not in vset or tgt not in vset:
                raise QuivkitError("BAD_SHAPE",
                                   f"arrow {label} references unknown vertex")
        self.arrows = [tuple(a) for a in arrows]
        self._arrow_index = {a[0]: a for a in self.arrows}

    def arrow(self, label):
        return self._arrow_index[label]

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class QuiverMap:
    """Structure-preserving map of quivers (vertex map injective)."""

    __slots__ = ("source", "target", "vertex_map", "arrow_map")

    def __init__(self, source: Quiver, target: Quiver, vertex_map, arrow_map):
        if set(vertex_map) != set(source.vertices):
            raise QuivkitError("BAD_SHAPE", "vertex map domain mismatch")
        if set(arrow_map) != {a[0] for a in source.arrows}:
            raise QuivkitError("BAD_SHAPE", "arrow map domain mismatch")
        tgt_vs = set(target.vertices)
        imgs = [vertex_map[v] for v in source.vertices]
        if any(i not in tgt_vs for i in imgs):
            raise QuivkitError("BAD_SHAPE", "vertex image outside target")
        if len(set(imgs)) != len(imgs):
            raise QuivkitError("NOT_INJECTIVE", "vertex map is not injective")
        for label, src, tgt in source.arrows:
            timg = target.arrow(arrow_map[label])
            if timg[1] != vertex_map[src] or timg[2] != vertex_map[tgt]:
                raise QuivkitError("BAD_SHAPE",
                                   f"arrow {label} image has wrong endpoints")
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.arrow_map = dict(arrow_map)

    def is_injective(self) -> bool:
        imgs = list(self.arrow_map.values())
        return len(set(imgs)) == len(imgs)

    def compose(self, other: "QuiverMap") -> "QuiverMap":
        """self ∘ other (apply `other` first)."""
        if other.target is not self.source and other.target != self.source:
            raise QuivkitError("NOT_COMPOSABLE", "quiver maps do not compose")
        vm = {v: self.vertex_map[w] for v, w in other.vertex_map.items()}
        am = {a: self.arrow_map[b] for a, b in other.arrow_map.items()}
        return QuiverMap(other.source, self.target, vm, am)


class VQuiver:
    """Vertices plus arrow-space dimensions with named arrow bases.

    `spaces` maps (source, target) to the list of arrow basis labels; pairs
    with no arrows are omitted.  The point vertex is implicit.
    """

    __slots__ = ("vertices", "spaces", "_arrow_location")

    def __init__(self, vertices, spaces):
        _check_vertex_labels(vertices)
        self.vertices = list(vertices)
        vset = set(self.vertices)
        clean = {}
        seen = set()
        for (src, tgt), labels in spaces.items():
            if not labels:
                continue
            if src not in vset or tgt not in vset:
                raise QuivkitError("BAD_SHAPE",
                                   f"arrow space ({src},{tgt}) off the vertex set")
            for lab in labels:
                if lab in seen:
                    raise QuivkitError("BAD_SHAPE",
                                       f"duplicate arrow label {lab!r}")
                seen.add(lab)
            clean[(src, tgt)] = list(labels)
        self.spaces = {k: clean[k] for k in sorted(clean)}
        self._arrow_location = {}
        for (src, tgt), labels in self.spaces.items():
            for idx, lab in enumerate(labels):
                self._arrow_location[lab] = (src, tgt, idx)

    def dim(self, src, tgt) -> int:
        """Dimension of the (src, tgt) arrow space; 0 when either end is POINT."""
        return len(self.spaces.get((src, tgt), ()))

    def arrow_pairs(self):
        return list(self.spaces.keys())

    def arrow_labels(self):
        out = []
        for labels in self.spaces.values():
            out.extend(labels)
        return out

    def arrow_location(self, label):
        return self._arrow_location[label]

    def total_arrow_dim(self) -> int:
        return sum(len(v) for v in self.spaces.values())

    def __eq__(self, other):
        return (isinstance(other, VQuiver) and self.vertices == other.vertices
                and self.spaces == other.spaces)

    def __repr__(self):
        return f"VQuiver({len(self.vertices)} vertices, {self.total_arrow_dim()} arrow dims)"


def is_acyclic(vq: VQuiver) -> bool:
    """No directed cycle in the support digraph (loops count as cycles)."""
    adj = {v: [] for v in vq.vertices}
    for (src, tgt) in vq.arrow_pairs():
        adj[src].append(tgt)
    state = {v: 0 for v in vq.vertices}  # 0 unseen, 1 active, 2 done

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return False
            if state[w] == 0 and not visit(w):
                return False
        state[v] = 2
        return True

    for v in vq.vertices:
        if state[v] == 0 and not visit(v):
            return False
    return True


class VQuiverMap:
    """Map of Vquivers over a fixed field.

    `vertex_map` sends each source vertex to a target vertex or POINT, hitting
    every target vertex exactly once on the un-killed part.  `arrow_mats`
    holds one matrix per source pair whose endpoints survive and whose source
    and target blocks are both nonzero; all other blocks are forced zero.
    """

    __slots__ = ("field", "source", "target", "vertex_map", "arrow_mats")

    def __init__(self, field, source: VQuiver, target: VQuiver, vertex_map,
                 arrow_mats):
        if set(vertex_map) != set(source.vertices):
            raise QuivkitError("BAD_SHAPE", "vertex map domain mismatch")
        kept = [v for v in source.vertices if vertex_map[v] != POINT]
        imgs = [vertex_map[v] for v in kept]
        if any(i not in set(target.vertices) for i in imgs):
            raise QuivkitError("BAD_SHAPE", "vertex image outside target")
        if len(set(imgs)) != len(imgs) or set(imgs) != set(target.vertices):
            raise QuivkitError(
                "BAD_SHAPE",
                "un-killed vertices must biject onto the target vertex set")
        stray = set(arrow_mats) - set(source.arrow_pairs())
        if stray:
            raise QuivkitError("BAD_SHAPE",
                               f"blocks {sorted(stray)} are not on source arrow pairs")
        self.field = field
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        mats = {}
        for (src, tgt) in source.arrow_pairs():
            m = source.dim(src, tgt)
            d = target.dim(vertex_map[src], vertex_map[tgt])
            if d == 0:
                if (src, tgt) in arrow_mats and not arrow_mats[(src, tgt)].is_zero():
                    raise QuivkitError("BAD_SHAPE",
                                       f"block ({src},{tgt}) must be the zero map")
                continue
            mat = arrow_mats.get((src, tgt))
            if mat is None:
                mat = Mat.zeros(field, d, m)
            if mat.rows != d or mat.cols != m:
                raise QuivkitError("BAD_SHAPE",
                                   f"block ({src},{tgt}) matrix has wrong shape")
            mats[(src, tgt)] = mat
        self.arrow_mats = {k: mats[k] for k in sorted(mats)}

    def block(self, src, tgt) -> Mat:
        m = self.source.dim(src, tgt)
        d = self.target.dim(self.vertex_map[src], self.vertex_map[tgt])
        return self.arrow_mats.get((src, tgt), Mat.zeros(self.field, d, m))

    def is_surjective(self) -> bool:
        """True when every target arrow space is the image of its source block.

        The constructor makes the un-killed source vertices biject onto the
        target vertices, so each target arrow pair (i, j) lies under exactly
        one pair of source vertices.  The map is surjective when, for every
        nonzero target arrow space V'_ij, the block from the source arrow
        space over it has rank dim V'_ij.  A target space with no source
        arrows over it is never hit, so such a map is not surjective.
        """
        back = {w: v for v, w in self.vertex_map.items() if w != POINT}
        return all(rank(self.block(back[i], back[j])) == self.target.dim(i, j)
                   for (i, j) in self.target.arrow_pairs())

    def is_isomorphism(self) -> bool:
        if any(img == POINT for img in self.vertex_map.values()):
            return False
        if any(self.source.dim(s, t)
               != self.target.dim(self.vertex_map[s], self.vertex_map[t])
               for (s, t) in self.source.arrow_pairs()):
            return False
        return self.is_surjective()

    def __eq__(self, other):
        return (isinstance(other, VQuiverMap) and self.field == other.field
                and self.source == other.source and self.target == other.target
                and self.vertex_map == other.vertex_map
                and self.arrow_mats == other.arrow_mats)

    def __repr__(self):
        return f"VQuiverMap({self.source!r} -> {self.target!r})"


def identity_vqmap(vq: VQuiver, field) -> VQuiverMap:
    vm = {v: v for v in vq.vertices}
    mats = {pair: Mat.identity(field, vq.dim(*pair)) for pair in vq.arrow_pairs()}
    return VQuiverMap(field, vq, vq, vm, mats)


def compose_vq(sigma: VQuiverMap, rho: VQuiverMap) -> VQuiverMap:
    """sigma ∘ rho (apply rho first)."""
    if rho.field != sigma.field or rho.target != sigma.source:
        raise QuivkitError("NOT_COMPOSABLE", "Vquiver maps do not compose")
    vm = {}
    for v, w in rho.vertex_map.items():
        vm[v] = POINT if w == POINT else sigma.vertex_map[w]
    mats = {}
    for (src, tgt) in rho.source.arrow_pairs():
        if sigma.target.dim(vm[src], vm[tgt]) == 0:
            continue
        mid_s, mid_t = rho.vertex_map[src], rho.vertex_map[tgt]
        first = rho.block(src, tgt)
        second = sigma.block(mid_s, mid_t)
        mats[(src, tgt)] = second.matmul(first)
    return VQuiverMap(rho.field, rho.source, sigma.target, vm, mats)


def is_surjective(rho: VQuiverMap) -> bool:
    return rho.is_surjective()


# ---------------------------------------------------------------------------
# the functor from quivers (contravariant on inclusions)
# ---------------------------------------------------------------------------

def v_of_quiver(q: Quiver) -> VQuiver:
    spaces = {}
    for label, src, tgt in q.arrows:
        spaces.setdefault((src, tgt), []).append(label)
    return VQuiver(q.vertices, spaces)


def v_of_inclusion(iota: QuiverMap, field) -> VQuiverMap:
    """Surjective Vquiver map VR -> VQ induced by an injective quiver map Q -> R.

    Vertices of R in the image of the inclusion map back to their preimage,
    all others go to the point; arrows of R map to their preimage arrow when
    they come from Q and to zero otherwise.
    """
    if not iota.is_injective():
        raise QuivkitError("NOT_INJECTIVE", "quiver map must be injective")
    vq = v_of_quiver(iota.source)
    vr = v_of_quiver(iota.target)
    vtx_back = {}
    inv_v = {w: v for v, w in iota.vertex_map.items()}
    for w in vr.vertices:
        vtx_back[w] = inv_v.get(w, POINT)
    inv_a = {b: a for a, b in iota.arrow_map.items()}
    mats = {}
    for (src, tgt), labels in vr.spaces.items():
        isrc, itgt = vtx_back[src], vtx_back[tgt]
        d = vq.dim(isrc, itgt)
        if d == 0:
            continue
        tgt_labels = vq.spaces[(isrc, itgt)]
        m = Mat.zeros(field, d, len(labels))
        for j, lab in enumerate(labels):
            pre = inv_a.get(lab)
            if pre is not None:
                m.data[tgt_labels.index(pre)][j] = field.one
        mats[(src, tgt)] = m
    return VQuiverMap(field, vr, vq, vtx_back, mats)
