"""Gabriel quiver functor, congruences, pointed-set variant."""

from pathlib import Path

import pytest

import quivkit as qk
import quivkit.exactlin as el
import quivkit.gabriel as gabriel
import quivkit.pathalg as pathalg
from quivkit.cli import main
from quivkit.errors import QuivkitError
from quivkit.gabriel import (
    inner_conjugation_witness,
    pointed_set,
)
from quivkit.generators import random_padm_morphism, seeded_rng
from quivkit.pathalg import build_kvq, universal_map
from quivkit.splittings import conjugate_element
from quivkit.vquiver import VQuiver

from dense_oracle import mat_sub, vec_add
from corpus import (
    QQ,
    F2,
    F3,
    algebra_corpus,
    lower_triangular,
    loop_vq,
    semisimple,
    triangle_algebra,
    triangle_mod_cb,
    triangle_vq,
    truncated_power_series,
)
from support import (
    identity_class_is_conjugation_group,
    random_identity_class_automorphism,
    splitting_variant,
)


def test_gq_of_base_field():
    g = qk.gq(semisimple(QQ, 1))
    assert g.vquiver.vertices == ["1"]
    assert g.vquiver.total_arrow_dim() == 0


def test_gq_of_triangle_algebra():
    a = triangle_algebra().carrier
    g = qk.gq(a)
    dims = {pair: len(labels) for pair, labels in g.vquiver.spaces.items()}
    assert dims == {("1", "2"): 1, ("1", "3"): 1, ("3", "2"): 1}


def test_gq_of_lower_triangular():
    g = qk.gq(lower_triangular(QQ))
    assert len(g.vquiver.vertices) == 2
    assert g.vquiver.total_arrow_dim() == 1


def test_gq_dim_statistics_across_corpus():
    for name, a in algebra_corpus():
        g = qk.gq(a)
        assert len(g.vquiver.vertices) == a.dim - a.radical.dim, name
        assert g.vquiver.total_arrow_dim() == \
            a.radical.dim - a.radical_power(2).dim, name


def test_gq_splitting_independence():
    a = triangle_algebra().carrier
    g1 = qk.gq(a)
    w = a.element("a")

    def shift(i, j, k, j2_block):
        return list(j2_block.basis[0]) if j2_block.dim else None

    split2 = splitting_variant(a, w, shift)
    g2 = qk.gq(a, split2)
    # identical Vquivers after the canonical orbit matching (same order here)
    assert g1.vquiver == g2.vquiver


def test_gq_and_counit_refuse_a_splitting_of_another_algebra():
    # both of dim 6 at level 3, so only the splitting's parent tells them apart
    a = build_kvq(QQ, VQuiver(["1", "2"], {("1", "2"): ["a"], ("2", "1"): ["b"]}), 3).carrier
    b = build_kvq(QQ, VQuiver(["1", "2"], {("1", "1"): ["x"], ("1", "2"): ["a"]}), 3).carrier
    split_b = qk.make_splitting(b)
    for call in (lambda: qk.gq(a, split_b), lambda: qk.counit(a, splitting=split_b)):
        with pytest.raises(QuivkitError) as exc:
            call()
        assert exc.value.code == "BAD_ARGUMENT"
    assert set(qk.gq(a, qk.make_splitting(a)).vquiver.spaces) == {("1", "2"), ("2", "1")}


def test_gq_is_built_once_per_algebra(monkeypatch):
    splits, built = [], []
    real_split, real_result = gabriel.make_splitting, gabriel.GabrielQuiverResult
    monkeypatch.setattr(gabriel, "make_splitting",
                        lambda a: splits.append(a) or real_split(a))
    monkeypatch.setattr(gabriel, "GabrielQuiverResult",
                        lambda a, *rest: built.append(a) or real_result(a, *rest))
    a = triangle_algebra().carrier
    g = qk.gq(a)
    assert qk.counit(a).gq_result is g and qk.gq(a) is g
    assert (splits, built) == ([a], [a])
    # an explicit splitting bypasses the cache
    split2 = real_split(a)
    assert qk.counit(a, splitting=split2).gq_result.splitting is split2
    assert qk.gq(a) is g and len(built) == 2
    # the demo's gq_dims, counit and adjunction checks share each algebra's;
    # from a cold memo, as in a fresh process, it builds gq of A and of B
    # only, since unit(TRI, 3) and adjunction(TRI, A) read A's k[[TRI]]
    # from build_kvq's memo
    built.clear()
    pathalg._KVQ_MEMO.clear()
    assert main(["check", str(Path(__file__).parent.parent / "demo" / "triangle.quiv")]) == 0
    assert len(built) == len(set(map(id, built))) == 2


def test_gq_on_identity_morphism():
    a = triangle_algebra().carrier
    g = qk.gq(a)
    m = qk.gq_on_morphism(qk.identity_morphism(a), g, g)
    assert m == qk.identity_vqmap(g.vquiver, QQ)


def test_gq_on_quotient_projection_is_iso():
    t, ideal, quotient, pi = triangle_mod_cb()
    g_src, g_tgt = qk.gq(t.carrier), qk.gq(quotient)
    m = qk.gq_on_morphism(pi, g_src, g_tgt)
    assert m.is_isomorphism()


def test_gq_on_non_surjective_inclusion():
    k2 = semisimple(QQ, 2)
    lt = lower_triangular(QQ)
    cols = [lt.element("E11"), lt.element("E22")]
    incl = qk.validate_morphism(k2, lt, el.Mat.from_cols(QQ, cols, rows=3))
    m = qk.gq_on_morphism(incl, qk.gq(k2), qk.gq(lt))
    assert sorted(m.vertex_map.values()) == ["1", "2"]
    assert m.arrow_mats == {}


def test_gq_on_surjective_morphism_is_surjective():
    t, ideal, quotient, pi = triangle_mod_cb()
    m = qk.gq_on_morphism(pi, qk.gq(t.carrier), qk.gq(quotient))
    assert m.is_surjective()


def test_gq_functoriality_on_projections():
    t = truncated_power_series(QQ, 4)
    a = t.carrier
    i1 = qk.ideal_generated_by(a, [a.element("xxx")])
    q1, p1 = qk.quotient_algebra(a, i1)
    i2 = qk.ideal_generated_by(q1, [q1.element("xx")])
    q2, p2 = qk.quotient_algebra(q1, i2)
    ga, g1, g2 = qk.gq(a), qk.gq(q1), qk.gq(q2)
    lhs = qk.gq_on_morphism(p2.compose(p1), ga, g2)
    rhs = qk.compose_vq(qk.gq_on_morphism(p2, g1, g2),
                        qk.gq_on_morphism(p1, ga, g1))
    assert lhs == rhs


def test_check_sim_reflexive():
    a = triangle_algebra().carrier
    ident = qk.identity_morphism(a)
    assert qk.check_sim(ident, ident, 0)
    assert qk.check_sim(ident, ident, 1)


def test_check_sim_triangle_automorphism():
    t = triangle_algebra()
    a = t.carrier
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {"a": vec_add(QQ, a.element("a"), a.element("cb")),
              "b": a.element("b"), "c": a.element("c")}
    aut = universal_map(t, a, idem, arrows)
    assert qk.check_sim(aut, qk.identity_morphism(a), 1)
    assert qk.check_sim_n(aut, qk.identity_morphism(a), 5)


def test_remark_pair_is_sim1():
    from corpus import remark_pair

    _, _, alpha, beta = remark_pair()
    assert qk.check_sim(alpha, beta, 0)
    assert qk.check_sim(alpha, beta, 1)


def test_sim0_but_not_sim1():
    # on k[x]/x^3: x -> x versus x -> x + x (difference x, in J but not J^2)
    t = truncated_power_series(QQ, 3)
    a = t.carrier
    idem = {"1": a.unit}
    f1 = universal_map(t, a, idem, {"x": a.element("x")})
    f2 = universal_map(t, a, idem,
                       {"x": vec_add(QQ, a.element("x"), a.element("x"))})
    assert qk.check_sim(f1, f2, 0)
    assert not qk.check_sim(f1, f2, 1)
    assert not qk.check_sim_n(f1, f2, 1)


def test_sim1_implies_sim_n_on_random_pairs():
    rng = seeded_rng(11)
    t = triangle_algebra()
    g = qk.gq(t.carrier)
    for _ in range(25):
        alpha = random_padm_morphism(rng, t, g)
        delta = random_identity_class_automorphism(rng, t)
        beta = alpha.compose(delta)
        assert qk.check_sim(alpha, beta, 1)
        assert qk.check_sim_n(alpha, beta, 5)


def _reference_check_sim(alpha, beta, level):
    """The level-0/1 congruence test written out on its own, as an oracle."""
    diff = mat_sub(alpha.matrix, beta.matrix)
    b = alpha.target
    if not all(b.radical.contains(col) for col in diff.columns()):
        return False
    return level == 0 or all(b.radical_power(2).contains(diff.matvec(v))
                             for v in alpha.source.radical.basis)


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_check_sim_is_check_sim_n_at_levels_0_and_1(field):
    rng = seeded_rng(17)
    t = triangle_algebra(field)
    a = t.carrier
    g = qk.gq(a)
    idems = t.generators()[0]
    doubled = {lab: {k: field.of(2) for k in t.arrow_element(lab)}
               for lab in t.vq.arrow_labels()}
    scale = universal_map(t, a, idems, doubled)
    seen = set()
    for _ in range(12):
        alpha = random_padm_morphism(rng, t, g)
        pairs = [(alpha, random_padm_morphism(rng, t, g)),
                 (alpha, alpha.compose(random_identity_class_automorphism(rng, t))),
                 (alpha, alpha.compose(scale))]
        for x, y in pairs:
            for level in (0, 1):
                got = qk.check_sim(x, y, level)
                assert got == qk.check_sim_n(x, y, level)
                assert got == _reference_check_sim(x, y, level)
                seen.add((level, got))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def test_congruence_composition_stability():
    rng = seeded_rng(13)
    t = triangle_algebra()
    a = t.carrier
    g = qk.gq(a)
    for _ in range(10):
        alpha = random_padm_morphism(rng, t, g)
        beta = alpha.compose(random_identity_class_automorphism(rng, t))
        gamma_ = random_identity_class_automorphism(rng, t)
        # postcompose: both by a morphism out of a; here an endomorphism
        assert qk.check_sim(alpha.compose(gamma_), beta.compose(gamma_), 1)
    # precompose with the quotient projection
    _, _, quotient, pi = triangle_mod_cb()
    for _ in range(10):
        d1 = random_identity_class_automorphism(rng, t)
        d2 = random_identity_class_automorphism(rng, t)
        assert qk.check_sim(pi.compose(d1), pi.compose(d2), 1)


def test_cancellation_for_surjections():
    # beta . alpha ~1 beta' . alpha with alpha surjective forces beta ~1 beta'
    rng = seeded_rng(17)
    t = triangle_algebra()
    a = t.carrier
    for _ in range(10):
        alpha = random_identity_class_automorphism(rng, t)  # surjective
        beta = qk.identity_morphism(a)
        beta_p = random_identity_class_automorphism(rng, t)
        if qk.check_sim(beta.compose(alpha), beta_p.compose(alpha), 1):
            assert qk.check_sim(beta, beta_p, 1)


def test_isomorphism_reflection():
    # endomorphisms congruent to the identity are invertible
    rng = seeded_rng(19)
    for name, tensor in [("triangle", triangle_algebra()),
                         ("jet", truncated_power_series(QQ, 4))]:
        for _ in range(10):
            delta = random_identity_class_automorphism(rng, tensor)
            el.invert(delta.matrix)  # raises if singular


def test_gq_tilde_independent_of_representative():
    t = triangle_algebra()
    a = t.carrier
    g = qk.gq(a)
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {"a": vec_add(QQ, a.element("a"), a.element("cb")),
              "b": a.element("b"), "c": a.element("c")}
    aut = universal_map(t, a, idem, arrows)
    ident = qk.identity_morphism(a)
    m = qk.gq_tilde([ident, aut], g, g)
    assert m == qk.identity_vqmap(g.vquiver, QQ)


def test_gq_tilde_rejects_non_congruent_reps():
    t = truncated_power_series(QQ, 3)
    a = t.carrier
    idem = {"1": a.unit}
    f1 = universal_map(t, a, idem, {"x": a.element("x")})
    f2 = universal_map(t, a, idem,
                       {"x": vec_add(QQ, a.element("x"), a.element("x"))})
    g = qk.gq(a)
    with pytest.raises(QuivkitError):
        qk.gq_tilde([f1, f2], g, g)


def test_gq0_and_pointed_maps():
    a = triangle_algebra().carrier
    pset = qk.gq0(a)
    assert pset.vertices == ["1", "2", "3"]
    _, _, quotient, pi = triangle_mod_cb()
    m = qk.gq0_on_morphism(pi, qk.gq(a), qk.gq(quotient))
    assert sorted(m.vertex_map.values()) == ["1", "2", "3"]


def test_semisimple_adjunction_roundtrip_enumerated():
    from homsets import enumerate_vquiver_maps

    for field in (F2, F3):
        a = semisimple(field, 2)
        g = qk.gq(a)
        for target_size in (1, 2):
            pset = pointed_set([f"w{i}" for i in range(target_size)])
            to_alg, to_pset = qk.semisimple_adjunction_bijection(a, pset, gq_a=g)
            pmaps = enumerate_vquiver_maps(field, qk.gq0(a), pset)
            seen = set()
            for pm in pmaps:
                alg_m = to_alg(pm)
                assert to_pset(alg_m) == pm
                seen.add(tuple(tuple(r) for r in alg_m.matrix.data))
            assert len(seen) == len(pmaps)


def test_gq0_homset_counts_for_triangle():
    from homsets import (
        congruence_classes,
        enumerate_path_algebra_morphisms,
        enumerate_vquiver_maps,
    )

    t = triangle_algebra(F2)
    a = t.carrier
    g = qk.gq(a)
    pset = pointed_set(["p", "q", "r"])
    k0 = build_kvq(F2, pset, 2)
    morphisms = enumerate_path_algebra_morphisms(t, k0.carrier)
    classes = congruence_classes(morphisms, 0)
    pmaps = enumerate_vquiver_maps(F2, qk.gq0(a), pset)
    assert len(classes) == len(pmaps) > 0


def test_identity_class_predicate():
    # triangle: arrow 1->2 plus the length-2 path c b from 1 to 2
    assert not identity_class_is_conjugation_group(triangle_vq(), 3)
    # a single loop at level 3: x and xx connect 1 to 1
    assert not identity_class_is_conjugation_group(loop_vq(), 3)
    # no length >= 2 paths at all at level 2
    assert identity_class_is_conjugation_group(triangle_vq(), 2)
    two_pt = VQuiver(["1", "2"], {("1", "2"): ["a"]})
    assert identity_class_is_conjugation_group(two_pt, 4)


def test_identity_class_vs_conjugations_empirically():
    # counterexample quiver: the arrow-shift automorphism is not inner
    t = triangle_algebra()
    a = t.carrier
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {"a": vec_add(QQ, a.element("a"), a.element("cb")),
              "b": a.element("b"), "c": a.element("c")}
    shift = universal_map(t, a, idem, arrows)
    assert inner_conjugation_witness(shift) is None
    # where the predicate holds, sampled identity-class members are inner
    t2 = build_kvq(QQ, VQuiver(["1", "2"], {("1", "2"): ["a"]}), 4)
    rng = seeded_rng(23)
    for _ in range(10):
        delta = random_identity_class_automorphism(rng, t2)
        w = inner_conjugation_witness(delta)
        assert w is not None
        for i in range(t2.dim):
            x = t2.carrier.basis_vector(i)
            assert el.sparse(conjugate_element(t2.carrier, w, x)) == delta.apply(x)
