"""Truncated path algebras: dimensions, grading, the universal property."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import quivkit as qk
import quivkit.exactlin as el
from quivkit.errors import QuivkitError
from quivkit.pathalg import (
    MAX_KVQ_DIM,
    _path_count,
    build_kvq,
    cpa,
    cpa_on_inclusion,
    k2vq,
    kvq_on_map,
    universal_map,
)
from quivkit.vquiver import POINT, Quiver, QuiverMap, VQuiver, VQuiverMap

from corpus import (
    QQ,
    F5,
    double_loop_vq,
    kronecker_vq,
    line_vq,
    loop_vq,
    triangle_vq,
    two_point_vq,
)


def test_no_arrow_vquiver_gives_product_of_fields():
    t = build_kvq(QQ, two_point_vq(), 5)
    assert t.dim == 2
    assert t.carrier.radical.dim == 0


def test_triangle_dimension_and_basis():
    t = build_kvq(QQ, triangle_vq(), 3)
    assert t.dim == 7
    assert t.carrier.basis_labels == ["e1", "e2", "e3", "a", "b", "c", "cb"]
    # same at higher levels: the quiver is acyclic with longest path 2
    assert build_kvq(QQ, triangle_vq(), 5).dim == 7


def test_loop_truncation():
    t = build_kvq(QQ, loop_vq(), 4)
    assert t.dim == 4
    assert t.carrier.basis_labels == ["e1", "x", "xx", "xxx"]
    x = t.carrier.element("x")
    xx = t.carrier.mul(x, x)
    assert xx == t.carrier.element("xx")
    assert el.vec_is_zero(QQ, t.carrier.mul(xx, xx))


def test_level_too_small():
    with pytest.raises(QuivkitError) as exc:
        build_kvq(QQ, loop_vq(), 1)
    assert exc.value.code == "LEVEL_TOO_SMALL"


def test_multiplication_follows_composition():
    t = build_kvq(QQ, triangle_vq(), 3)
    a = t.carrier
    c, b = a.element("c"), a.element("b")
    assert a.mul(c, b) == a.element("cb")  # c after b
    assert el.vec_is_zero(QQ, a.mul(b, c))
    e2 = a.element("e2")
    assert a.mul(e2, a.element("a")) == a.element("a")
    assert el.vec_is_zero(QQ, a.mul(a.element("a"), e2))


def test_radical_layers_are_path_length_layers():
    for vq, level in [(triangle_vq(), 3), (loop_vq(), 4), (double_loop_vq(), 3)]:
        t = build_kvq(QQ, vq, level)
        for m in range(level + 1):
            assert t.carrier.radical_power(m) == t.paths_of_length_at_least(m)


def test_dimension_matches_walk_count():
    # dim = sum over m < level of the number of composable arrow words
    for vq, level in [(triangle_vq(), 3), (line_vq(), 4), (double_loop_vq(), 4),
                      (kronecker_vq(), 3)]:
        t = build_kvq(QQ, vq, level)
        verts = vq.vertices
        idx = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        adj = [[0] * n for _ in range(n)]
        for (src, tgt), labels in vq.spaces.items():
            adj[idx[src]][idx[tgt]] += len(labels)
        total = 0
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for m in range(level):
            total += sum(sum(row) for row in power)
            power = [[sum(power[i][k] * adj[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)]
        assert t.dim == total


def test_path_count_matches_dimension_and_guards_size():
    two = VQuiver(["1", "2"], {("1", "1"): ["x"], ("1", "2"): ["a", "b"],
                               ("2", "1"): ["c"]})
    for vq, top in [(triangle_vq(), 5), (line_vq(), 5), (double_loop_vq(), 5), (two, 5)]:
        for level in range(2, top):
            assert _path_count(vq, level) == build_kvq(F5, vq, level).dim
    # the level-7 algebra of `two` (dim 254) is admitted, level 8 (dim 510) is not
    assert _path_count(two, 7) == 254 <= MAX_KVQ_DIM
    assert _path_count(two, 8) > MAX_KVQ_DIM
    assert _path_count(triangle_vq(), 10 ** 9) == 7
    for level in (8, 10 ** 9):
        with pytest.raises(QuivkitError) as exc:
            build_kvq(F5, two, level)
        assert exc.value.code == "TOO_LARGE"


def test_universal_map_automorphism():
    t = build_kvq(QQ, triangle_vq(), 3)
    a = t.carrier
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {"a": el.vec_add(QQ, t.arrow_element("a"), a.element("cb")),
              "b": t.arrow_element("b"), "c": t.arrow_element("c")}
    aut = universal_map(t, a, idem, arrows)
    assert aut.surjective
    assert aut.apply(a.element("a")) == el.vec_add(QQ, a.element("a"),
                                                   a.element("cb"))
    # uniqueness: a valid morphism with the same generator values is equal
    again = universal_map(t, a, idem, arrows)
    assert again.matrix == aut.matrix


def test_universal_map_identity():
    t = build_kvq(QQ, triangle_vq(), 3)
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {lab: t.arrow_element(lab) for lab in t.vq.arrow_labels()}
    ident = universal_map(t, t.carrier, idem, arrows)
    assert ident.matrix == el.Mat.identity(QQ, t.dim)


def test_universal_map_block_condition_enforced():
    t = build_kvq(QQ, triangle_vq(), 3)
    a = t.carrier
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {"a": t.arrow_element("b"),  # wrong block for arrow a
              "b": t.arrow_element("b"), "c": t.arrow_element("c")}
    with pytest.raises(QuivkitError) as exc:
        universal_map(t, a, idem, arrows)
    assert exc.value.code == "BIMODULE_CONDITION_FAIL"


def test_universal_map_requires_radical_images():
    t = build_kvq(QQ, loop_vq(), 2)
    a = t.carrier
    idem = {"1": a.unit}
    with pytest.raises(QuivkitError) as exc:
        universal_map(t, a, idem, {"x": a.unit})
    assert exc.value.code == "TRUNCATION_INCOMPATIBLE"


def test_universal_map_truncation_guard():
    src = build_kvq(QQ, loop_vq(), 2)
    tgt = build_kvq(QQ, loop_vq(), 4).carrier
    idem = {"1": tgt.unit}
    with pytest.raises(QuivkitError) as exc:
        universal_map(src, tgt, idem, {"x": tgt.element("x")})
    assert exc.value.code == "TRUNCATION_INCOMPATIBLE"


def test_universal_map_with_degenerate_vertex_images():
    # triangle path algebra onto the dual numbers: one vertex carries the
    # unit, the others die, and every arrow block is forced to zero
    t = build_kvq(QQ, triangle_vq(), 3)
    target = build_kvq(QQ, loop_vq(), 2).carrier
    zero = el.vec_zero(QQ, target.dim)
    idem = {"1": target.unit, "2": zero, "3": zero}
    arrows = {"a": zero, "b": zero, "c": zero}
    m = universal_map(t, target, idem, arrows)
    assert m.apply(t.idempotent("1")) == target.unit
    assert el.vec_is_zero(QQ, m.apply(t.carrier.element("cb")))
    # a nonzero arrow image would escape its (zero) block
    with pytest.raises(QuivkitError) as exc:
        universal_map(t, target, idem, {"a": target.element("x"),
                                        "b": zero, "c": zero})
    assert exc.value.code == "BIMODULE_CONDITION_FAIL"


def test_kvq_on_map_identity_and_functoriality():
    tri = triangle_vq()
    ident = qk.identity_vqmap(tri, QQ)
    m = kvq_on_map(ident, 3)
    assert m.matrix == el.Mat.identity(QQ, 7)

    vr = line_vq()
    vq2 = VQuiver(["4", "5"], {("4", "5"): ["s", "t"]})
    rho = VQuiverMap(QQ, vr, vq2, {"1": "4", "2": "5", "3": POINT},
                     {("1", "2"): el.Mat(QQ, 2, 2,
                                          [[QQ.of(1), QQ.of(2)],
                                           [QQ.of(0), QQ.of(1)]])})
    vs = VQuiver(["z"], {})
    sigma = VQuiverMap(QQ, vq2, vs, {"4": "z", "5": POINT}, {})
    lhs = kvq_on_map(qk.compose_vq(sigma, rho), 3)
    rhs = kvq_on_map(sigma, 3).compose(kvq_on_map(rho, 3))
    assert lhs.matrix == rhs.matrix


def test_universal_property_uniqueness():
    # a morphism produced any other way equals the universal map of its own
    # generator restrictions
    vr = line_vq()
    vq2 = VQuiver(["4", "5"], {("4", "5"): ["s", "t"]})
    rho = VQuiverMap(QQ, vr, vq2, {"1": "4", "2": "5", "3": POINT},
                     {("1", "2"): el.Mat(QQ, 2, 2,
                                          [[QQ.of(1), QQ.of(1)],
                                           [QQ.of(0), QQ.of(2)]])})
    src = build_kvq(QQ, vr, 3)
    tgt = build_kvq(QQ, vq2, 3)
    m = kvq_on_map(rho, 3, src=src, tgt=tgt)
    idem = {v: m.apply(src.idempotent(v)) for v in vr.vertices}
    arrows = {lab: m.apply(src.arrow_element(lab))
              for lab in vr.arrow_labels()}
    again = universal_map(src, tgt.carrier, idem, arrows)
    assert again.matrix == m.matrix


def test_kvq_on_surjective_map_is_surjective():
    vr = line_vq()
    vq2 = VQuiver(["4", "5"], {("4", "5"): ["s", "t"]})
    rho = VQuiverMap(QQ, vr, vq2, {"1": "4", "2": "5", "3": POINT},
                     {("1", "2"): el.Mat.identity(QQ, 2)})
    assert rho.is_surjective()
    m = kvq_on_map(rho, 3)
    assert m.surjective


def test_kvq_on_vertex_killing_map():
    vr = two_point_vq()
    vs = VQuiver(["z"], {})
    rho = VQuiverMap(QQ, vr, vs, {"1": "z", "2": POINT}, {})
    m = kvq_on_map(rho, 2)
    src = m.source
    assert el.vec_is_zero(QQ, m.apply(src.element("e2")))
    assert not el.vec_is_zero(QQ, m.apply(src.element("e1")))


def test_cpa_matches_path_count():
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    t = cpa(QQ, q, 3)
    assert t.dim == 8  # e1,e2,e3,a,b,c,ca,cb
    assert cpa(QQ, Quiver(["1"], []), 2).dim == 1
    loopq = Quiver(["1"], [("x", "1", "1")])
    assert cpa(QQ, loopq, 2).dim == 2


def _path_killing_matrix(iota, src, tgt):
    """CPA(R) -> CPA(Q) described directly: a path of R made of images of
    arrows of Q goes to its preimage, an idempotent of an image vertex to its
    preimage's, and every other path to 0."""
    f = tgt.field
    inv_v = {w: v for v, w in iota.vertex_map.items()}
    inv_a = {b: a for a, b in iota.arrow_map.items()}
    cols = []
    for p in src.paths:
        pre = tuple(inv_a.get(lab) for lab in p.arrows)
        if p.start not in inv_v or None in pre:
            cols.append(el.vec_zero(f, tgt.dim))
        else:
            cols.append(tgt.carrier.basis_vector(tgt.index[(inv_v[p.start], pre)]))
    return el.Mat.from_cols(f, cols, rows=tgt.dim)


def _inclusions():
    line = Quiver(["1", "2"], [("a", "1", "2")])
    r3 = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    cycle = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    loops = Quiver(["1", "2"], [("x", "1", "1"), ("y", "1", "1"), ("z", "1", "2")])
    kron = Quiver(["u", "v"], [("p", "u", "v"), ("q", "u", "v")])
    return [
        ("arrow into R3", QuiverMap(line, r3, {"1": "1", "2": "2"}, {"a": "a"})),
        ("R3 onto itself", QuiverMap(r3, r3, {v: v for v in r3.vertices},
                                     {"a": "a", "b": "b", "c": "c"})),
        ("path into a cycle", QuiverMap(
            Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), cycle,
            {"1": "1", "2": "2", "3": "3"}, {"a": "a", "b": "b"})),
        ("renamed arrow into a cycle", QuiverMap(
            Quiver(["s", "t"], [("r", "s", "t")]), cycle, {"s": "2", "t": "3"}, {"r": "b"})),
        ("loop among loops", QuiverMap(Quiver(["1"], [("x", "1", "1")]), loops,
                                       {"1": "1"}, {"x": "y"})),
        ("points of R3", QuiverMap(Quiver(["1", "3"], []), r3, {"1": "1", "3": "3"}, {})),
        ("swapped Kronecker arrows", QuiverMap(kron, r3, {"u": "1", "v": "2"},
                                               {"p": "b", "q": "a"})),
    ]


def test_cpa_on_inclusion_equals_path_killing():
    checked = 0
    for field in (QQ, F5):
        for name, iota in _inclusions():
            for level in (2, 3, 4):
                src, tgt = cpa(field, iota.target, level), cpa(field, iota.source, level)
                m = cpa_on_inclusion(iota, level, field, src=src, tgt=tgt)
                assert m.matrix == _path_killing_matrix(iota, src, tgt), (field, name, level)
                assert m.surjective, (field, name, level)
                checked += 1
        m = cpa_on_inclusion(_inclusions()[0][1], 3, field)
        assert el.vec_is_zero(field, m.apply(m.source.element("b")))
        assert el.vec_is_zero(field, m.apply(m.source.element("e3")))
    assert checked == 42


def test_k2vq_dimensions():
    assert k2vq(QQ, triangle_vq()).dim == 6
    assert k2vq(QQ, two_point_vq()).dim == 2
    assert k2vq(QQ, loop_vq()).dim == 2
    t2 = k2vq(QQ, loop_vq())
    x = t2.carrier.element("x")
    assert el.vec_is_zero(QQ, t2.carrier.mul(x, x))


def test_build_kvq_over_f5():
    t = build_kvq(F5, triangle_vq(), 3)
    assert t.dim == 7
    assert t.carrier.mul(t.carrier.element("c"), t.carrier.element("b")) == \
        t.carrier.element("cb")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_functoriality_on_random_composable_pairs(data):
    from quivkit.generators import seeded_rng, random_vquiver

    rng = seeded_rng(data.draw(st.integers(0, 10 ** 6)))
    vq_mid = random_vquiver(rng, max_vertices=2, max_total_arrows=2, prefix="m")
    vq_top = _extend(rng, vq_mid, prefix="t")
    vq_bot = _shrink(rng, vq_mid, prefix="b")
    rho = _random_onto_map(rng, vq_top, vq_mid)
    sigma = _random_onto_map(rng, vq_mid, vq_bot)
    level = 3
    lhs = kvq_on_map(qk.compose_vq(sigma, rho), level)
    rhs = kvq_on_map(sigma, level).compose(kvq_on_map(rho, level))
    assert lhs.matrix == rhs.matrix


def _extend(rng, vq, prefix):
    # a Vquiver with one extra vertex and extra arrow room
    verts = list(vq.vertices) + [f"{prefix}_extra"]
    spaces = {pair: list(labels) for pair, labels in vq.spaces.items()}
    spaces[(verts[0], verts[-1])] = [f"{prefix}_arr"]
    return VQuiver(verts, spaces)


def _shrink(rng, vq, prefix):
    if len(vq.vertices) == 1:
        return VQuiver([f"{prefix}_only"], {})
    verts = [f"{prefix}{i}" for i in range(len(vq.vertices) - 1)]
    return VQuiver(verts, {})


def _random_onto_map(rng, src, tgt):
    from quivkit.generators import random_scalar

    kept = rng.sample(range(len(src.vertices)), len(tgt.vertices))
    image = list(tgt.vertices)
    rng.shuffle(image)
    vm = {v: POINT for v in src.vertices}
    for pos, idx in enumerate(sorted(kept)):
        vm[src.vertices[idx]] = image[pos]
    mats = {}
    for (s, t_) in src.arrow_pairs():
        ws, wt = vm[s], vm[t_]
        if POINT in (ws, wt):
            continue
        d = tgt.dim(ws, wt)
        m = src.dim(s, t_)
        if d == 0:
            continue
        mats[(s, t_)] = el.Mat(QQ, d, m,
                               [[QQ.of(random_scalar(rng, QQ)) for _ in range(m)]
                                for _ in range(d)])
    return VQuiverMap(QQ, src, tgt, vm, mats)


def test_acyclic_level_stops_at_the_longest_path():
    start = time.perf_counter()
    t = build_kvq(QQ, triangle_vq(), 10**6)
    assert time.perf_counter() - start < 0.5
    assert len(t.grading) == 3
    assert t.level == 10**6
    small = build_kvq(QQ, triangle_vq(), 3)
    assert t.carrier.same_as(small.carrier)
    assert t.carrier.radical_filtration == small.carrier.radical_filtration
    assert t.paths_of_length_at_least(2) == small.paths_of_length_at_least(2)


def test_build_kvq_allocates_no_dense_table():
    # the 2-vertex quiver with a loop, two arrows 1 -> 2 and one arrow
    # 2 -> 1; at level 6 it has dim 126, and a dense table 126^3 entries
    vq = VQuiver(["1", "2"], {("1", "1"): ["x"], ("1", "2"): ["a", "b"],
                              ("2", "1"): ["c"]})
    tracemalloc.start()
    try:
        t = build_kvq(qk.GF(5), vq, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.dim == 126
    assert peak < 4 * 2**20, peak
