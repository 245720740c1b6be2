"""Quivers, Vquivers, the functor from injective quiver maps."""

import itertools
from fractions import Fraction

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.errors import QuivkitError
from quivkit.generators import seeded_rng
from quivkit.vquiver import POINT, Quiver, QuiverMap, VQuiver, VQuiverMap

from corpus import F2, QQ, kronecker_vq, line_vq, loop_vq, triangle_vq


def test_v_of_empty_quiver():
    vq = qk.v_of_quiver(Quiver([], []))
    assert vq.vertices == []
    assert vq.total_arrow_dim() == 0


def test_v_of_line_quiver():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    vq = qk.v_of_quiver(q)
    assert vq.dim("1", "2") == 2
    assert vq.dim("2", "3") == 1
    assert vq.dim("1", "3") == 0


def test_v_of_loop():
    vq = qk.v_of_quiver(Quiver(["1"], [("x", "1", "1")]))
    assert vq.dim("1", "1") == 1


def test_point_label_reserved():
    with pytest.raises(QuivkitError):
        VQuiver(["*"], {})
    with pytest.raises(QuivkitError):
        Quiver(["✱"], [])


def test_duplicate_arrow_labels_rejected():
    with pytest.raises(QuivkitError):
        VQuiver(["1", "2"], {("1", "2"): ["a"], ("2", "1"): ["a"]})


def test_vquiver_map_bijectivity_enforced():
    src = VQuiver(["1", "2"], {})
    tgt = VQuiver(["4"], {})
    qk.VQuiverMap(QQ, src, tgt, {"1": "4", "2": POINT}, {})
    with pytest.raises(QuivkitError):
        VQuiverMap(QQ, src, tgt, {"1": "4", "2": "4"}, {})
    with pytest.raises(QuivkitError):
        VQuiverMap(QQ, src, tgt, {"1": POINT, "2": POINT}, {})


def test_identity_and_composition():
    tri = triangle_vq()
    ident = qk.identity_vqmap(tri, QQ)
    assert qk.compose_vq(ident, ident) == ident
    assert ident.is_surjective() and ident.is_isomorphism()


def test_example_surjective_map():
    # 1 => 2 -> 3 onto 4 => 5: kill vertex 3, map the rank-2 arrow space onto k^2
    vr = line_vq()
    vq2 = VQuiver(["4", "5"], {("4", "5"): ["s", "t"]})
    rho = VQuiverMap(QQ, vr, vq2, {"1": "4", "2": "5", "3": POINT},
                     {("1", "2"): el.Mat.identity(QQ, 2)})
    assert rho.is_surjective()
    # degenerate vertex assignment gives a valid but non-surjective zero map
    zero = VQuiverMap(QQ, vr, vq2, {"1": POINT, "2": "4", "3": "5"}, {})
    assert not zero.is_surjective()
    assert zero.block("2", "3").is_zero()


def test_acyclicity():
    assert qk.is_acyclic(triangle_vq())
    assert qk.is_acyclic(line_vq())
    assert not qk.is_acyclic(loop_vq())
    two_cycle = VQuiver(["1", "2"], {("1", "2"): ["a"], ("2", "1"): ["b"]})
    assert not qk.is_acyclic(two_cycle)


def test_v_of_inclusion_single_arrow():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    r = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    iota = QuiverMap(q, r, {"1": "1", "2": "2"}, {"a": "a"})
    rho = qk.v_of_inclusion(iota, QQ)
    assert rho.source == qk.v_of_quiver(r)
    assert rho.target == qk.v_of_quiver(q)
    assert rho.is_surjective()
    assert el.rank(rho.block("1", "2")) == 1


def test_v_of_inclusion_vertex_only():
    q = Quiver(["1"], [])
    r = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    iota = QuiverMap(q, r, {"1": "1"}, {})
    rho = qk.v_of_inclusion(iota, QQ)
    assert rho.vertex_map == {"1": "1", "2": POINT}
    assert rho.arrow_mats == {}


def test_v_of_inclusion_identity():
    r = Quiver(["1", "2"], [("a", "1", "2")])
    iota = QuiverMap(r, r, {"1": "1", "2": "2"}, {"a": "a"})
    rho = qk.v_of_inclusion(iota, QQ)
    assert rho == qk.identity_vqmap(qk.v_of_quiver(r), QQ)


def test_v_of_inclusion_contravariant():
    q1 = Quiver(["1"], [])
    q2 = Quiver(["1", "2"], [("a", "1", "2")])
    q3 = Quiver(["1", "2", "3"], [("a", "1", "2"), ("c", "2", "3")])
    k1 = QuiverMap(q1, q2, {"1": "1"}, {})
    k2 = QuiverMap(q2, q3, {"1": "1", "2": "2"}, {"a": "a"})
    lhs = qk.v_of_inclusion(k2.compose(k1), QQ)
    rhs = qk.compose_vq(qk.v_of_inclusion(k1, QQ), qk.v_of_inclusion(k2, QQ))
    assert lhs == rhs


def test_non_injective_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    r = Quiver(["1", "2"], [("a", "1", "2")])
    iota = QuiverMap(q, r, {"1": "1", "2": "2"}, {"a": "a", "b": "a"})
    with pytest.raises(QuivkitError) as exc:
        qk.v_of_inclusion(iota, QQ)
    assert exc.value.code == "NOT_INJECTIVE"


def test_surjective_blockwise_map_of_same_shape_is_iso():
    vq = kronecker_vq()
    m = el.Mat(QQ, 2, 2, [[QQ.of(1), QQ.of(1)], [QQ.of(0), QQ.of(1)]])
    rho = VQuiverMap(QQ, vq, vq, {"1": "1", "2": "2"}, {("1", "2"): m})
    assert rho.is_surjective()
    assert rho.is_isomorphism()


def test_surjective_requires_every_target_arrow_space_covered():
    # rotated vertex map on the triangle: only (1,3) lies over a target arrow
    # space, (3,2); the target spaces (1,2) and (1,3) have nothing over them
    tri = triangle_vq()
    rho = VQuiverMap(QQ, tri, tri, {"1": "3", "2": "1", "3": "2"},
                     {("1", "3"): el.Mat.identity(QQ, 1)})
    assert el.rank(rho.block("1", "3")) == 1
    assert not rho.is_surjective()
    assert not rho.is_isomorphism()
    cover = VQuiverMap(QQ, tri, tri, {"1": "1", "2": "2", "3": "3"},
                       {pair: el.Mat(QQ, 1, 1, [[QQ.of(2)]])
                        for pair in tri.arrow_pairs()})
    assert cover.is_surjective()
    assert cover.is_isomorphism()


def _total_rank(rho):
    """Rank of rho as one linear map from all source to all target arrows."""
    rows = {lab: i for i, lab in enumerate(rho.target.arrow_labels())}
    cols = {lab: j for j, lab in enumerate(rho.source.arrow_labels())}
    total = el.Mat.zeros(rho.field, len(rows), len(cols))
    for (s, t), labels in rho.source.spaces.items():
        img = (rho.vertex_map[s], rho.vertex_map[t])
        if POINT in img:
            continue
        block = rho.block(s, t)
        for r, tlab in enumerate(rho.target.spaces.get(img, ())):
            for c, slab in enumerate(labels):
                total.data[rows[tlab]][cols[slab]] = block.data[r][c]
    return el.rank(total)


@pytest.mark.parametrize("source", [triangle_vq(), line_vq(), kronecker_vq()],
                         ids=["triangle", "line", "kronecker"])
def test_surjective_matches_rank_of_whole_map(source):
    # every vertex assignment onto the triangle or the Kronecker quiver, once
    # with blocks of the largest rank and once with random F2 blocks, so that
    # uncovered target spaces and rank-deficient blocks both occur
    rng = seeded_rng(7)
    seen = set()
    for target in (triangle_vq(), kronecker_vq()):
        n = len(target.vertices)
        for kept in itertools.permutations(source.vertices, n):
            vm = {v: POINT for v in source.vertices}
            vm.update(zip(kept, target.vertices))
            shape = VQuiverMap(F2, source, target, vm, {})
            for entry in (lambda r, c: F2.of(r == c),
                          lambda r, c: F2.of(rng.randrange(2))):
                mats = {pair: el.Mat(F2, z.rows, z.cols,
                                     [[entry(r, c) for c in range(z.cols)]
                                      for r in range(z.rows)])
                        for pair, z in shape.arrow_mats.items()}
                rho = VQuiverMap(F2, source, target, vm, mats)
                expected = _total_rank(rho) == target.total_arrow_dim()
                assert rho.is_surjective() == expected, vm
                seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("key", [("2", "1"), ("9", "9")])
def test_block_off_source_arrow_pairs_rejected(key):
    tri = triangle_vq()
    vm = {v: v for v in tri.vertices}
    with pytest.raises(QuivkitError) as exc:
        VQuiverMap(QQ, tri, tri, vm, {key: el.Mat.identity(QQ, 1)})
    assert exc.value.code == "BAD_SHAPE"


# ---------------------------------------------------------------------------
# blocks read through the map's field; malformed quivers refused
# ---------------------------------------------------------------------------

F5 = qk.GF(5)
ONE_ARROW = VQuiver(["1", "2"], {("1", "2"): ["a"]})


def _refused(build):
    with pytest.raises(QuivkitError) as exc:
        build()
    return exc.value.code, str(exc.value)


def test_a_block_equal_to_zero_in_the_field_is_zero():
    rho = VQuiverMap(F5, ONE_ARROW, ONE_ARROW, {"1": "1", "2": "2"},
                     {("1", "2"): el.Mat(F5, 1, 1, [[5]])})
    assert rho.block("1", "2").data == [[0]]
    assert not rho.is_surjective() and not rho.is_isomorphism()


def test_a_block_equal_to_zero_in_the_field_may_sit_on_a_killed_pair():
    points = VQuiver(["1", "2"], {})
    rho = VQuiverMap(F5, ONE_ARROW, points, {"1": "1", "2": "2"},
                     {("1", "2"): el.Mat(F5, 1, 1, [[5]])})
    assert rho.arrow_mats == {}
    assert _refused(lambda: VQuiverMap(F5, ONE_ARROW, points, {"1": "1", "2": "2"},
                                       {("1", "2"): el.Mat(F5, 1, 1, [[6]])})) == (
        "BAD_SHAPE", "BAD_SHAPE: block (1,2) must be the zero map")


def test_a_block_is_stored_as_field_values_and_phi_reads_it_back():
    g = qk.gq(qk.build_kvq(F5, ONE_ARROW, 2).carrier)
    (src, tgt), = g.vquiver.spaces
    seven = el.Mat(F5, 1, 1, [[7]])
    rho = VQuiverMap(F5, ONE_ARROW, g.vquiver, {"1": src, "2": tgt}, {("1", "2"): seven})
    assert rho.block("1", "2").data == [[2]] and seven.data == [[7]]
    t = qk.build_kvq(F5, ONE_ARROW, 2)
    assert qk.phi(t, qk.psi(t, rho, g), g) == rho


def test_block_entries_are_read_as_morphism_entries_are():
    def one_by_one(field, x):
        return VQuiverMap(field, ONE_ARROW, ONE_ARROW, {"1": "1", "2": "2"},
                          {("1", "2"): el.Mat(field, 1, 1, [[x]])})

    half = one_by_one(QQ, Fraction(1, 2))
    assert one_by_one(QQ, 0.5) == half
    assert qk.kvq_on_map(one_by_one(QQ, 0.5), 3) == qk.kvq_on_map(half, 3)
    assert one_by_one(F5, Fraction(1, 2)) == one_by_one(F5, 3)
    assert qk.kvq_on_map(one_by_one(F5, Fraction(1, 2)), 2).cols[2] == {2: 3}
    assert _refused(lambda: one_by_one(QQ, "x")) == (
        "BAD_ARGUMENT", "BAD_ARGUMENT: block (1,2) entry (0, 0) is 'x', not a value of Q")
    assert _refused(lambda: one_by_one(F5, Fraction(1, 5))) == (
        "BAD_ARGUMENT", "BAD_ARGUMENT: block (1,2) entry (0, 0) is Fraction(1, 5), "
                        "not a value of F5")
    assert _refused(lambda: VQuiverMap(QQ, ONE_ARROW, ONE_ARROW, {"1": "1", "2": "2"},
                                       {("1", "2"): [[1]]})) == (
        "BAD_SHAPE", "BAD_SHAPE: block (1,2) is [[1]], not a Mat")


def test_a_block_over_another_field_is_refused():
    assert _refused(lambda: VQuiverMap(QQ, ONE_ARROW, ONE_ARROW, {"1": "1", "2": "2"},
                                       {("1", "2"): el.Mat(F5, 1, 1, [[3]])})) == (
        "BAD_FIELD", "BAD_FIELD: block (1,2) is over another field than the map")


def test_a_quiver_map_refuses_an_arrow_image_outside_the_target():
    line = Quiver(["1", "2"], [("a", "1", "2")])
    assert _refused(lambda: QuiverMap(line, line, {"1": "1", "2": "2"}, {"a": "z"})) == (
        "BAD_SHAPE", "BAD_SHAPE: arrow a image 'z' is not a target arrow")
    assert _refused(lambda: QuiverMap(line, line, {"1": "1", "2": "2"}, {"a": ["a"]}))[0] \
        == "BAD_SHAPE"


@pytest.mark.parametrize("arrow", [("a", "1"), ("a", "1", "2", "3"), "a12", 7])
def test_a_quiver_refuses_an_arrow_that_is_not_a_triple(arrow):
    assert _refused(lambda: Quiver(["1", "2"], [arrow])) == (
        "BAD_SHAPE", f"BAD_SHAPE: arrow {arrow!r} is not a (label, source, target) triple")


def test_a_vquiver_refuses_an_arrow_label_that_is_not_a_string():
    assert _refused(lambda: VQuiver(["1", "2"], {("1", "2"): ["a", 1]})) == (
        "BAD_SHAPE", "BAD_SHAPE: arrow label 1 on (1,2) is not a string")
    # vertex labels keep their types
    assert VQuiver([1, 2], {(1, 2): ["a"]}).vertices == [1, 2]
