"""Brute-force hom-set enumeration over finite prime fields.

These are oracles: they enumerate candidate maps exhaustively and admit them
through the ordinary validators, without going through psi/phi.  Feasible
only at micro scale.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from quivkit.errors import QuivkitError
from quivkit.algebra import FinAlgebra, _combine, _mul_raw, validate_morphism
from quivkit.exactlin import Mat, Subspace, add_scaled
from quivkit.gabriel import check_sim
from quivkit.pathalg import TruncatedTensorAlgebra
from quivkit.vquiver import POINT, VQuiver, VQuiverMap

from support import peirce_block


def _require_finite(field):
    if field.char == 0:
        raise QuivkitError("BAD_FIELD", "enumeration needs a finite prime field")


def all_vectors(field, n):
    _require_finite(field)
    for tup in product(range(field.char), repeat=n):
        yield list(tup)


def all_subspace_elements(field, space: Subspace):
    """Every element of the subspace, sparse, by coordinates on its rows in
    pivot order."""
    for coords in all_vectors(field, space.dim):
        yield _combine(field, space.rows, zip(space.pivots, coords))


def all_idempotents(a: FinAlgebra):
    f, sc = a.field, a.structconst
    _require_finite(f)
    return [v for v in all_subspace_elements(f, Subspace.full(f, a.dim))
            if _mul_raw(f, sc, v, v) == v]


def enumerate_vquiver_maps(field, src: VQuiver, tgt: VQuiver):
    """All Vquiver maps src -> tgt over a finite field."""
    _require_finite(field)
    out = []
    n_t = len(tgt.vertices)
    src_vs = src.vertices
    if n_t > len(src_vs):
        return out
    for kept in combinations(range(len(src_vs)), n_t):
        for image in permutations(tgt.vertices):
            vm = {v: POINT for v in src_vs}
            for pos, idx in enumerate(kept):
                vm[src_vs[idx]] = image[pos]
            # enumerate matrices for blocks with nonzero source and target
            block_keys = []
            block_shapes = []
            for (s, t_) in src.arrow_pairs():
                d = tgt.dim(vm[s], vm[t_])
                m = src.dim(s, t_)
                if d == 0 or m == 0:
                    continue
                block_keys.append((s, t_))
                block_shapes.append((d, m))
            entry_counts = [d * m for (d, m) in block_shapes]
            total = sum(entry_counts)
            for entries in product(range(field.char), repeat=total):
                mats = {}
                offset = 0
                for key, (d, m) in zip(block_keys, block_shapes):
                    chunk = entries[offset:offset + d * m]
                    offset += d * m
                    data = [[field.of(chunk[r * m + c]) for c in range(m)]
                            for r in range(d)]
                    mats[key] = Mat(field, d, m, data)
                out.append(VQuiverMap(field, src, tgt, vm, mats))
    return out


def enumerate_path_algebra_morphisms(t: TruncatedTensorAlgebra, a: FinAlgebra):
    """All admissible morphisms k[[VQ]] -> A, by exhausting generator images.

    Idempotent images run over all orthogonal idempotent families summing to
    1; arrow images run over the full Peirce blocks of the target (not just
    the radical part), and every candidate is admitted or rejected by the
    standard validator, so no structure theory is assumed.
    """
    f, sc = t.field, a.structconst
    _require_finite(f)
    if a.truncation_level > t.level:
        raise QuivkitError("TRUNCATION_INCOMPATIBLE",
                           "enumeration needs level >= target truncation")
    idems = all_idempotents(a)
    verts = t.vq.vertices
    assignments = []

    def extend(partial, total):
        if len(partial) == len(verts):
            if total == a.unit:
                assignments.append(dict(zip(verts, partial)))
            return
        for e in idems:
            if not any(_mul_raw(f, sc, e, prev) or _mul_raw(f, sc, prev, e)
                       for prev in partial):
                extend(partial + [e], add_scaled(f, dict(total), f.one, e))

    extend([], {})
    full = Subspace.full(f, a.dim)
    out = []
    labels = t.vq.arrow_labels()
    for assign in assignments:
        blocks = []
        for lab in labels:
            src, tgt, _ = t.vq.arrow_location(lab)
            block = peirce_block(a, assign[tgt], assign[src], full)
            blocks.append(list(all_subspace_elements(f, block)))
        for choice in product(*blocks):
            cols = []
            for p in t.paths:
                if p.length == 0:
                    cols.append(assign[p.start])
                    continue
                acc = choice[labels.index(p.arrows[0])]
                for lab in p.arrows[1:]:
                    acc = _mul_raw(f, sc, choice[labels.index(lab)], acc)
                cols.append(acc)
            m = Mat.from_sparse_cols(f, cols, a.dim)
            try:
                out.append(validate_morphism(t.carrier, a, m))
            except QuivkitError:
                continue
    return out


def enumerate_linear_morphisms(source: FinAlgebra, target: FinAlgebra):
    """Literally filter every linear map source -> target (tiny dims only)."""
    f = source.field
    _require_finite(f)
    total = source.dim * target.dim
    if f.char ** total > 4_000_000:
        raise QuivkitError("BAD_ARGUMENT",
                           "linear-map enumeration would be too large")
    out = []
    for entries in product(range(f.char), repeat=total):
        data = [[f.of(entries[r * source.dim + c]) for c in range(source.dim)]
                for r in range(target.dim)]
        m = Mat(f, target.dim, source.dim, data)
        try:
            out.append(validate_morphism(source, target, m))
        except QuivkitError:
            continue
    return out


def congruence_classes(morphisms, level: int = 1):
    """Partition a list of morphisms by the congruence at the given level."""
    classes = []
    for m in morphisms:
        placed = False
        for cls in classes:
            if check_sim(cls[0], m, level):
                cls.append(m)
                placed = True
                break
        if not placed:
            classes.append([m])
    return classes
