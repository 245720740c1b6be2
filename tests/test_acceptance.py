"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk-scale settings throughout: algebras of dim <= 32 over Q and F5,
enumeration oracles over F2/F3 with small total dimension.  Randomized
criteria draw from a fixed seed so runs are reproducible.
"""

import time

import pytest

import quivkit as qk
import quivkit.exactlin as el
from quivkit.errors import QuivkitError
from quivkit.adjunction import counit_factorization
from quivkit.generators import (
    random_identity_class_automorphism,
    random_padm_morphism,
    random_relation_ideal,
    random_scalar,
    random_vqmap_to_gq,
    random_vquiver,
    seeded_rng,
)
from quivkit.homsets import (
    congruence_classes,
    enumerate_linear_morphisms,
    enumerate_path_algebra_morphisms,
    enumerate_vquiver_maps,
)
from quivkit.pathalg import build_kvq, universal_map
from quivkit.vquiver import POINT, VQuiver, VQuiverMap

from dense_oracle import vec_add
from corpus import (
    QQ,
    F2,
    F3,
    algebra_corpus,
    remark_pair,
    presented_corpus,
    semisimple,
    triangle_algebra,
    triangle_mod_cb,
    triangle_vq,
    truncated_power_series,
    vq_corpus,
)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_triangle_fixture():
    start = time.time()
    for level in (3, 4):
        t = qk.build_kvq(QQ, triangle_vq(), level)
        assert t.dim == 7
        assert t.carrier.basis_labels == ["e1", "e2", "e3", "a", "b", "c", "cb"]
    t = qk.build_kvq(QQ, triangle_vq(), 3)
    a = t.carrier
    idem = {v: t.idempotent(v) for v in t.vq.vertices}
    arrows = {"a": vec_add(QQ, a.element("a"), a.element("cb")),
              "b": a.element("b"), "c": a.element("c")}
    aut = universal_map(t, a, idem, arrows)
    assert qk.check_sim(aut, qk.identity_morphism(a), 1)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"triangle fixture, dim 7 basis exact, aut ~1 id ({elapsed:.2f}s)")


def test_criterion_2_radical_crosscheck():
    start = time.time()
    rng = seeded_rng(101)
    done = 0
    while done < 50:
        vq = random_vquiver(rng, max_vertices=3, max_total_arrows=3)
        level = rng.randint(2, 4)
        t = build_kvq(QQ, vq, level)
        if t.dim > 24:
            continue
        ideal = random_relation_ideal(rng, t)
        if ideal.dim == 0:
            algebra = t.carrier
        else:
            algebra, _ = qk.quotient_algebra(t.carrier, ideal)
        # arrow-ideal radical (cached from the presentation) versus trace form
        assert qk.trace_form_radical(algebra) == algebra.radical
        done += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"50 presented algebras, trace form == arrow ideal ({elapsed:.1f}s)")


def _adjunction_corpus():
    algebras = [a for name, a in algebra_corpus() if a.field == QQ]
    out = []
    for vq_name, vq in vq_corpus():
        for a in algebras:
            g = qk.gq(a)
            if len(g.vquiver.vertices) > len(vq.vertices):
                continue
            out.append((vq, a, g))
    return out


def test_criterion_3_adjunction_roundtrip():
    rng = seeded_rng(103)
    pairs = _adjunction_corpus()
    assert pairs
    total_rho = 0
    total_alpha = 0
    for vq, a, g in pairs:
        level = max(2, a.truncation_level)
        t = build_kvq(QQ, vq, level)
        for _ in range(100):
            rho = random_vqmap_to_gq(rng, vq, g, QQ)
            assert rho is not None
            alpha = qk.psi(t, rho, g)
            assert qk.phi(t, alpha, g) == rho
            total_rho += 1
        for _ in range(100):
            alpha = random_padm_morphism(rng, t, g)
            assert alpha is not None
            back = qk.psi(t, qk.phi(t, alpha, g), g)
            assert qk.check_sim(back, alpha, 1)
            total_alpha += 1
    _report(3, f"{total_rho} exact phi(psi) and {total_alpha} psi(phi) ~1 "
               f"roundtrips over {len(pairs)} corpus pairs, zero failures")


def _assert_radicals_kept(morphisms):
    """Every admitted morphism sends J(A) into J(B); validate_morphism does
    not check it, since it follows from multiplicativity."""
    for m in morphisms:
        assert m.target.radical.contains_subspace(m.image_of(m.source.radical)), m


def _hom_count_instance(vq, algebra_t, field):
    """(number of ~1 classes, number of Vquiver maps) for one instance."""
    a = algebra_t.carrier if hasattr(algebra_t, "carrier") else algebra_t
    g = qk.gq(a)
    level = max(2, a.truncation_level)
    t = build_kvq(field, vq, level)
    morphisms = enumerate_path_algebra_morphisms(t, a)
    _assert_radicals_kept(morphisms)
    classes = congruence_classes(morphisms, 1)
    vqmaps = enumerate_vquiver_maps(field, vq, g.vquiver)
    return len(classes), len(vqmaps)


def test_criterion_4_homset_bijection_enumerated():
    start = time.time()
    loop = VQuiver(["1"], {("1", "1"): ["x"]})
    one_arrow = VQuiver(["1", "2"], {("1", "2"): ["x"]})
    two_point = VQuiver(["1", "2"], {})
    kron = VQuiver(["1", "2"], {("1", "2"): ["a", "b"]})
    instances = [
        ("loop -> k[x]/x^3", loop, truncated_power_series(F2, 3)),
        ("loop -> k[x]/x^5", loop, truncated_power_series(F2, 5)),
        ("one_arrow -> lower triangular", one_arrow,
         build_kvq(F2, one_arrow, 2)),
        ("one_arrow -> dual numbers", one_arrow,
         truncated_power_series(F2, 2)),
        ("two_point -> k", two_point, semisimple(F2, 1)),
        ("kronecker -> kronecker", kron, build_kvq(F2, kron, 2)),
    ]
    for name, vq, target in instances:
        n_classes, n_maps = _hom_count_instance(vq, target, F2)
        assert n_classes == n_maps, (name, n_classes, n_maps)
        assert n_classes > 0, name
    # cross-validate the generator enumeration against literal linear-map
    # filtering on a tiny case
    t = build_kvq(F2, loop, 3)
    a = truncated_power_series(F2, 3).carrier
    gen_morphs = enumerate_path_algebra_morphisms(t, a)
    lin_morphs = enumerate_linear_morphisms(t.carrier, a)
    _assert_radicals_kept(lin_morphs)
    assert {m.matrix for m in gen_morphs} == {m.matrix for m in lin_morphs}
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(4, f"hom-set cardinalities match on {len(instances)} F2 "
               f"micro-instances ({elapsed:.1f}s)")


def test_criterion_5_congruence_descends():
    rng = seeded_rng(105)
    done = 0
    tensors = [t for _, t in presented_corpus()]
    while done < 200:
        t = tensors[done % len(tensors)]
        g = qk.gq(t.carrier)
        alpha = random_padm_morphism(rng, t, g, conjugate=False)
        if alpha is None:
            alpha = qk.identity_morphism(t.carrier)
        delta = random_identity_class_automorphism(rng, t)
        beta = alpha.compose(delta)
        assert qk.check_sim(alpha, beta, 1)
        assert qk.check_sim_n(alpha, beta, 5)
        done += 1
    _report(5, "200 congruent pairs stay congruent at every level <= 5")


def test_criterion_6_counit_kernels():
    start = time.time()
    for name, a in algebra_corpus():
        cu = qk.counit(a)
        assert cu.morphism.surjective, name
        assert qk.is_relation_ideal(cu.kernel_ideal), name
        eps_inf = counit_factorization(cu)
        assert el.rank(eps_inf.matrix) == eps_inf.source.dim == a.dim, name
    for name, t in presented_corpus():
        cu = qk.counit(t.carrier, level=t.level)
        assert cu.kernel_ideal.dim == 0, name
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(6, f"counit surjective with relation-ideal kernel on the corpus; "
               f"path algebras have kernel 0 ({elapsed:.1f}s)")


def test_criterion_7_factor_delta_soundness():
    rng = seeded_rng(107)
    bases = []
    for source in (triangle_algebra().carrier, triangle_mod_cb()[2],
                   truncated_power_series(QQ, 4).carrier):
        cu = qk.counit(source, level=3 if source.truncation_level <= 3 else None)
        bases.append(cu)
    done = 0
    while done < 100:
        cu = bases[done % len(bases)]
        src = cu.source_algebra
        beta = cu.morphism
        delta_true = random_identity_class_automorphism(rng, src)
        alpha = beta.compose(delta_true)
        found = qk.factor_delta(src, alpha, beta)
        assert beta.compose(found).matrix == alpha.matrix
        assert qk.check_sim(found, qk.identity_morphism(src.carrier), 1)
        done += 1
    t_src, _, alpha, beta = remark_pair()
    with pytest.raises(QuivkitError) as exc:
        qk.factor_delta(t_src, alpha, beta)
    assert exc.value.code == "NOT_SURJECTIVE"
    _report(7, "100 surjective congruent pairs refactored exactly; "
               "non-surjective pair refused")


def test_criterion_8_naturality():
    rng = seeded_rng(108)
    t = triangle_algebra()
    gq_t = qk.gq(t.carrier)
    _, _, quotient, pi = triangle_mod_cb()
    gq_q = qk.gq(quotient)
    configs = 0
    # second variable: alpha ranges over projections and automorphisms
    seconds = [pi]
    for _ in range(3):
        seconds.append(pi.compose(random_identity_class_automorphism(rng, t)))
    for alpha in seconds:
        rhos = [random_vqmap_to_gq(rng, t.vq, gq_t, QQ) for _ in range(15)]
        assert qk.naturality_check_second_var(t, alpha, gq_t, gq_q, rhos)
        configs += len(rhos)
    # first variable: rho kills one extra vertex of a larger Vquiver
    vr = VQuiver(["1", "2", "3", "4"],
                 {("1", "2"): ["p"], ("1", "3"): ["q"], ("3", "2"): ["r"],
                  ("1", "4"): ["s"]})
    for _ in range(4):
        mats = {("1", "2"): el.Mat(QQ, 1, 1, [[QQ.of(random_scalar(rng, QQ, nonzero=True))]]),
                ("1", "3"): el.Mat.identity(QQ, 1),
                ("3", "2"): el.Mat.identity(QQ, 1)}
        rho = VQuiverMap(QQ, vr, t.vq,
                         {"1": "1", "2": "2", "3": "3", "4": POINT}, mats)
        sigmas = [random_vqmap_to_gq(rng, t.vq, gq_t, QQ) for _ in range(10)]
        assert qk.naturality_check_first_var(rho, gq_t, 3, sigmas)
        configs += len(sigmas)
    assert configs >= 100
    _report(8, f"both naturality squares commute up to ~1 on {configs} configs")


def test_criterion_9_related_adjunctions_enumerated():
    # right adjoint on the level-2 side
    cases = [
        (F2, truncated_power_series(F2, 2).carrier,
         VQuiver(["1"], {("1", "1"): ["x"]})),
        (F2, build_kvq(F2, VQuiver(["1", "2"], {("1", "2"): ["x"]}), 2).carrier,
         VQuiver(["1"], {("1", "1"): ["x"]})),
        (F3, semisimple(F3, 2),
         VQuiver(["u", "v"], {("u", "v"): ["z"]})),
    ]
    for field, a, vq in cases:
        g = qk.gq(a)
        k2 = qk.k2vq(field, vq)
        morphisms = enumerate_linear_morphisms(a, k2.carrier)
        _assert_radicals_kept(morphisms)
        classes = congruence_classes(morphisms, 1)
        vqmaps = enumerate_vquiver_maps(field, g.vquiver, vq)
        assert len(classes) == len(vqmaps), (field.char, len(classes), len(vqmaps))
        # the explicit construction lands in the right class
        for rho in vqmaps:
            alpha = qk.right_adjoint_phi(rho, g)
            assert any(qk.check_sim(alpha, cls[0], 1) for cls in classes)
    # semisimple approximation: pointed maps against morphism classes at level 0
    from quivkit.gabriel import pointed_set

    for field in (F2, F3):
        a = semisimple(field, 2)
        g = qk.gq(a)
        for size in (1, 2, 3):
            pset = pointed_set([f"w{i}" for i in range(size)])
            k0 = build_kvq(field, pset, 2).carrier
            morphisms = enumerate_linear_morphisms(a, k0)
            _assert_radicals_kept(morphisms)
            classes = congruence_classes(morphisms, 0)
            pmaps = enumerate_vquiver_maps(field, qk.gq0(a, g), pset)
            assert len(classes) == len(pmaps), (field.char, size)
            to_alg, to_pset = qk.semisimple_adjunction_bijection(a, pset, gq_a=g)
            for pm in pmaps:
                assert to_pset(to_alg(pm)) == pm
    _report(9, "level-2 right adjoint and semisimple hom-sets match by "
               "enumeration over F2/F3")


def test_criterion_10_unit_isomorphism():
    count = 0
    for name, vq in vq_corpus():
        for level in (2, 3, 4):
            t = build_kvq(QQ, vq, level)
            eta, _ = qk.unit_map(t)
            assert eta.is_isomorphism(), (name, level)
            count += 1
    _report(10, f"unit map is a Vquiver isomorphism in all {count} cases")
