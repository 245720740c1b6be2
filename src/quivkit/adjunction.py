"""Hom-set bijections between Vquiver maps and algebra morphism classes.

psi turns a Vquiver map VQ -> gq(A) into an algebra morphism k[[VQ]] -> A
through a chosen splitting; phi reads a morphism back off its values on
vertices and arrows.  The unit and counit, the right adjoint on the level-2
side, the factorization of congruent surjections through an automorphism
close to the identity, and the ideal-orbit machinery all live here.
"""

from __future__ import annotations

from .errors import QuivkitError
from .algebra import (
    AlgMorphism,
    FinAlgebra,
    IdealSubspace,
    _combine,
    _ideal,
    identity_morphism,
    induced_on_quotient,
    is_relation_ideal,
    quotient_algebra,
    validate_morphism,
)
from .exactlin import Mat, _solve_cols, add_scaled
from .gabriel import (GabrielQuiverResult, check_sim, gq, gq0, gq_on_morphism,
                      pointed_set)
from .pathalg import (
    TruncatedTensorAlgebra,
    build_kvq,
    kvq_on_map,
    universal_map,
    vqmap_generator_images,
)
from .splittings import conjugating_element, conjugation
from .vquiver import POINT, VQuiver, VQuiverMap, compose_vq


class IdealOrbitClass:
    """Orbit of a relation ideal under the identity class, by representative."""

    __slots__ = ("parent", "representative")

    def __init__(self, parent: TruncatedTensorAlgebra, representative: IdealSubspace):
        if not representative.parent.same_as(parent.carrier):
            raise QuivkitError("BAD_ARGUMENT", "ideal lives in a different algebra")
        if not is_relation_ideal(representative):
            raise QuivkitError("BAD_ARGUMENT", "representative is not inside J^2")
        self.parent = parent
        self.representative = representative

    def __repr__(self):
        return f"IdealOrbitClass(dim={self.representative.dim})"


# ---------------------------------------------------------------------------
# psi and phi
# ---------------------------------------------------------------------------

def psi(t: TruncatedTensorAlgebra, rho: VQuiverMap,
        gq_a: GabrielQuiverResult) -> AlgMorphism:
    """Morphism k[[VQ]] -> A attached to a Vquiver map VQ -> gq(A).

    Vertices go to the splitting's idempotents, arrows through the chosen
    section of J -> J/J^2; the class of the result is independent of the
    splitting.
    """
    a = gq_a.algebra
    if rho.source != t.vq:
        raise QuivkitError("TARGET_MISMATCH", "map source is not the path algebra's Vquiver")
    if rho.target != gq_a.vquiver:
        raise QuivkitError("TARGET_MISMATCH", "map target is not gq(A)")
    if rho.field != a.field:
        raise QuivkitError("BAD_FIELD", "map and algebra over different fields")
    images = vqmap_generator_images(rho, *gq_a.generators())
    return universal_map(t, a, *images)


def phi(t: TruncatedTensorAlgebra, alpha: AlgMorphism,
        gq_a: GabrielQuiverResult) -> VQuiverMap:
    """Vquiver map VQ -> gq(A) read off a morphism k[[VQ]] -> A."""
    if not alpha.source.same_as(t.carrier):
        raise QuivkitError("BAD_ARGUMENT", "morphism source is not the path algebra")
    if not alpha.target.same_as(gq_a.algebra):
        raise QuivkitError("BAD_ARGUMENT", "morphism target is not gq's algebra")
    return gq_a.read_map(alpha, t.vq, *t.generators())


def unit_map(t: TruncatedTensorAlgebra):
    """Unit component at a Vquiver: VQ -> gq(k[[VQ]]), phi of the identity.

    Returns (map, gq result).  The map is an isomorphism (the paper's unit
    theorem); it is not checked here, `VQuiverMap.is_isomorphism` decides it.
    """
    gq_t = gq(t.carrier)
    return phi(t, identity_morphism(t.carrier), gq_t), gq_t


class CounitResult:
    """Counit representative plus its kernel and construction data."""

    __slots__ = ("morphism", "kernel_ideal", "source_algebra", "gq_result")

    def __init__(self, morphism, kernel_ideal, source_algebra, gq_result):
        self.morphism = morphism
        self.kernel_ideal = kernel_ideal
        self.source_algebra = source_algebra
        self.gq_result = gq_result


def counit(a: FinAlgebra, *, level: int = None,
           splitting=None) -> CounitResult:
    """Counit representative k[[gq(A)]] -> A with its kernel.

    The representative is psi of the identity of gq(A): each vertex goes to
    its splitting idempotent and each arrow to its arrow basis element, the
    generators of gq(A) handed to `universal_map` as they are, and the
    kernel is `AlgMorphism.kernel` of its columns.  gq(A) is the one cached
    on A unless a splitting is given.  The representative is onto with
    kernel in J^2 (the paper's counit theorem); neither is checked here:
    `morphism.surjective` and `is_relation_ideal(kernel_ideal)` decide them.
    """
    gq_a = gq(a, splitting)
    if level is None:
        level = max(2, a.truncation_level)
    t = build_kvq(a.field, gq_a.vquiver, level)
    eps = universal_map(t, a, *gq_a.generators())
    return CounitResult(eps, _ideal(t.carrier, eps.kernel()), t, gq_a)


# ---------------------------------------------------------------------------
# naturality checks
# ---------------------------------------------------------------------------

def naturality_check_second_var(t: TruncatedTensorAlgebra, alpha: AlgMorphism,
                                gq_a: GabrielQuiverResult,
                                gq_b: GabrielQuiverResult, rhos) -> bool:
    """psi(gq(alpha) . rho) ~1 alpha . psi(rho) for each sampled rho."""
    gqalpha = gq_on_morphism(alpha, gq_a, gq_b)
    for rho in rhos:
        lhs = psi(t, compose_vq(gqalpha, rho), gq_b)
        rhs = alpha.compose(psi(t, rho, gq_a))
        if not check_sim(lhs, rhs, 1):
            return False
    return True


def naturality_check_first_var(rho: VQuiverMap, gq_a: GabrielQuiverResult,
                               level: int, sigmas) -> bool:
    """psi(sigma . rho) ~1 psi(sigma) . k[[rho]] for each sampled sigma.

    Here rho: VR -> VQ and sigma: VQ -> gq(A); k[[VR]], k[[VQ]] are build_kvq's."""
    t_src = build_kvq(rho.field, rho.source, level)
    t_tgt = build_kvq(rho.field, rho.target, level)
    krho = kvq_on_map(rho, level)
    for sigma in sigmas:
        lhs = psi(t_src, compose_vq(sigma, rho), gq_a)
        rhs = psi(t_tgt, sigma, gq_a).compose(krho)
        if not check_sim(lhs, rhs, 1):
            return False
    return True


# ---------------------------------------------------------------------------
# the right adjoint on the level-2 side
# ---------------------------------------------------------------------------

def right_adjoint_phi(rho: VQuiverMap, gq_a: GabrielQuiverResult) -> AlgMorphism:
    """Morphism A -> k2[[VQ]] attached to a Vquiver map gq(A) -> VQ.

    Reads A in the adapted basis of gq_a (splitting idempotents, arrow
    sections by label, J^2), sends the idempotents through the vertex map,
    the arrow sections through the arrow matrices into build_kvq's k2[[VQ]],
    and kills J^2.  Multiplicativity is checked at validation rather than
    assumed.
    """
    a = gq_a.algebra
    if rho.source != gq_a.vquiver:
        raise QuivkitError("SOURCE_MISMATCH", "map source is not gq(A)")
    f = a.field
    if rho.field != f:
        raise QuivkitError("BAD_FIELD", "map and algebra over different fields")
    k2 = build_kvq(f, rho.target, 2)
    b = k2.carrier
    idem_images, arrow_images = vqmap_generator_images(rho, *k2.generators())
    # images of the adapted basis: idempotents, arrow bases, then J^2 (killed);
    # b_j goes to its coordinates' combination of them
    images = [idem_images[name] for name in gq_a.vertex_names]
    images.extend(arrow_images[lab] for lab in gq_a.vquiver.arrow_labels())
    images.extend({} for _ in range(a.dim - len(images)))
    cols = [_combine(f, images, c.items()) for c in gq_a.coordinate_cols()]
    return validate_morphism(a, b, Mat.from_sparse_cols(f, cols, b.dim))


def semisimple_adjunction_bijection(a: FinAlgebra, pset: VQuiver, *,
                                    gq_a: GabrielQuiverResult = None):
    """The two mutually inverse hom-set maps for the semisimple approximation.

    Returns (to_alg, to_pset):
      to_alg : pointed map gq0(A) -> pset   ==>  morphism A -> k^(pset)
      to_pset: morphism A -> k^(pset)       ==>  pointed map gq0(A) -> pset
    to_alg is right_adjoint_phi of the same vertex map on gq(A), whose arrow
    blocks all land in the zero arrow spaces of pset.
    """
    if pset.total_arrow_dim() != 0:
        raise QuivkitError("BAD_ARGUMENT", "expected a pointed set (no arrows)")
    if gq_a is None:
        gq_a = gq(a)
    f = a.field
    target_t = build_kvq(f, pset, 2)
    target = target_t.carrier

    def to_alg(sigma: VQuiverMap) -> AlgMorphism:
        if sigma.source != gq0(a, gq_a) or sigma.target != pset:
            raise QuivkitError("BAD_ARGUMENT", "pointed map has wrong endpoints")
        rho = VQuiverMap(f, gq_a.vquiver, pset, sigma.vertex_map, {})
        return right_adjoint_phi(rho, gq_a)

    def to_pset(alpha: AlgMorphism) -> VQuiverMap:
        if not alpha.source.same_as(a) or not alpha.target.same_as(target):
            raise QuivkitError("BAD_ARGUMENT", "morphism has wrong endpoints")
        vm = {}
        for name, e in gq_a.generators()[0].items():
            img = alpha.apply(e)
            if not img:
                vm[name] = POINT
                continue
            hits = [v for v in pset.vertices if target_t.vertex_idem[v] in img]
            if len(hits) != 1:
                raise QuivkitError("INTERNAL",
                                   "idempotent image is not primitive or zero")
            vm[name] = hits[0]
        return VQuiverMap(f, pointed_set(gq_a.vertex_names), pset, vm, {})

    return to_alg, to_pset


# ---------------------------------------------------------------------------
# factorization of congruent surjections
# ---------------------------------------------------------------------------

def conjugated_images(a: FinAlgebra, w, idem_images, arrow_images):
    """Generator images followed by x -> (1+w) x (1+w)^{-1} in a, w in J."""
    conj = conjugation(a, w)
    return ({v: conj(x) for v, x in idem_images.items()},
            {lab: conj(x) for lab, x in arrow_images.items()})


def conjugation_automorphism(t: TruncatedTensorAlgebra, v) -> AlgMorphism:
    """The automorphism x -> (1+v) x (1+v)^{-1} of the path algebra, v in J,
    from the conjugated generators."""
    a = t.carrier
    if not a.radical.contains(v):
        raise QuivkitError("BAD_ARGUMENT", "conjugation element must lie in J")
    return universal_map(t, a, *conjugated_images(a, v, *t.generators()))


def factor_delta(t: TruncatedTensorAlgebra, alpha: AlgMorphism,
                 beta: AlgMorphism) -> AlgMorphism:
    """delta in the identity class with alpha = beta . delta, exactly.

    Both inputs must be surjective morphisms k[[VQ]] -> A congruent at level
    1; non-surjective inputs are refused (the factorization genuinely fails
    for them).  Construction: first conjugate so the vertex images agree,
    then correct the arrows by a section of the target's J^2 layer.  Both
    steps move each vertex by an element of J and each arrow by one of J^2,
    so delta is in the identity class, and beta . delta agrees with alpha on
    the generators, so alpha = beta . delta; neither is re-checked here.
    """
    a = alpha.target
    f = t.field
    if not alpha.source.same_as(t.carrier) or not beta.source.same_as(t.carrier):
        raise QuivkitError("BAD_ARGUMENT", "morphism sources must be the path algebra")
    if not alpha.target.same_as(beta.target):
        raise QuivkitError("BAD_ARGUMENT", "morphism targets differ")
    if not alpha.surjective or not beta.surjective:
        raise QuivkitError("NOT_SURJECTIVE",
                           "factorization requires surjective morphisms")
    if not check_sim(alpha, beta, 1):
        raise QuivkitError("NOT_SIM1", "morphisms are not congruent at level 1")

    idem_images = t.generators()[0]

    # step 1: one w in J(A) conjugating all beta vertex images to alpha's
    w = conjugating_element(a, [(alpha.apply(e), beta.apply(e))
                                for e in idem_images.values()])
    if w is None:
        raise QuivkitError("INTERNAL", "vertex conjugation failed")

    # step 2: lift w through beta (beta maps J onto J(A)), over J's rows in
    # pivot order
    rad = t.carrier.radical
    lift = _solve_cols(f, [beta.apply(rad.rows[p]) for p in rad.pivots], [dict(w)])[0]
    if lift is None:
        raise QuivkitError("INTERNAL", "radical lift through beta failed")
    v_lift = _combine(f, rad.rows, ((rad.pivots[j], c) for j, c in lift.items()))
    delta1 = conjugation_automorphism(t, v_lift)
    beta1 = beta.compose(delta1)

    # step 3: arrow corrections through a blockwise section of beta1 on J^2:
    # arrow k's defect alpha(b_k) - beta1(b_k) is solved over the columns of
    # beta1 at the longer paths of its block
    j2a, minus_one = a.radical_power(2), f.neg(f.one)
    arrow_images = {}
    for (src, tgt), labs in t.vq.spaces.items():
        block = t.deeper_paths(src, tgt)
        block_cols = [beta1.cols[i] for i in block]
        for lab in labs:
            k = t.arrow_index[lab]
            defect = add_scaled(f, dict(alpha.cols[k]), minus_one, beta1.cols[k])
            if not defect:
                arrow_images[lab] = {k: f.one}
                continue
            if not j2a.contains(defect):
                raise QuivkitError("INTERNAL", "arrow defect escapes J^2")
            corr = _solve_cols(f, block_cols, [defect])[0]
            if corr is None:
                raise QuivkitError("INTERNAL", "arrow defect has no blockwise lift")
            arrow_images[lab] = {k: f.one, **{block[j]: c for j, c in corr.items()}}
    delta2 = universal_map(t, t.carrier, idem_images, arrow_images)
    return delta1.compose(delta2)


# ---------------------------------------------------------------------------
# relation ideals and the ideal-orbit equivalence
# ---------------------------------------------------------------------------

def apply_to_ideal(delta: AlgMorphism, ideal: IdealSubspace) -> IdealSubspace:
    """Image of an ideal under an automorphism."""
    return IdealSubspace(delta.target, delta.image_of(ideal.space))


def gamma(delta: AlgMorphism, pi_i: AlgMorphism, pi_iprime: AlgMorphism,
          ) -> AlgMorphism:
    """Induced isomorphism on quotients for delta mapping I onto I'.

    `pi_i` and `pi_iprime` are the canonical projections; delta must be in
    the identity class with delta(ker pi_i) = ker pi_iprime (else
    DELTA_INVALID).  delta is an automorphism mapping I onto I', so the
    induced map is an isomorphism with no check.
    """
    t_alg = delta.source
    if not delta.target.same_as(t_alg) or not pi_i.source.same_as(t_alg) \
            or not pi_iprime.source.same_as(t_alg):
        raise QuivkitError("BAD_ARGUMENT", "mismatched algebras")
    if not check_sim(delta, identity_morphism(t_alg), 1):
        raise QuivkitError("DELTA_INVALID", "delta is not in the identity class")
    if delta.image_of(pi_i.kernel()) != pi_iprime.kernel():
        raise QuivkitError("DELTA_INVALID", "delta does not map I onto I'")
    return induced_on_quotient(pi_i, pi_iprime.compose(delta))


def counit_factorization(cu: CounitResult) -> AlgMorphism:
    """The isomorphism k[[gq(A)]]/K -> A through which the counit factors.

    The counit is onto with kernel K, so the induced map is an isomorphism
    with no check.
    """
    _q, pi = quotient_algebra(cu.source_algebra.carrier, cu.kernel_ideal)
    return induced_on_quotient(pi, cu.morphism)


def gq_infty(a: FinAlgebra, *, level: int = None):
    """(Gabriel quiver, orbit class of the counit kernel), plus the counit."""
    cu = counit(a, level=level)
    orbit = IdealOrbitClass(cu.source_algebra, cu.kernel_ideal)
    return cu.gq_result, orbit, cu


def kinfty_on_map(rho: VQuiverMap, src_cls: IdealOrbitClass,
                  tgt_cls: IdealOrbitClass, *,
                  witness_src=None, witness_tgt=None) -> AlgMorphism:
    """Morphism k[[VQ]]/I -> k[[VR]]/K induced by rho on ideal-orbit pairs.

    `witness_src` is (I', delta_I) with delta_I(I) = I', and likewise for the
    target; defaults take the representatives themselves with the identity.
    Requires rho between the classes' Vquivers over their field (BAD_ARGUMENT),
    rho surjective, k[[rho]](I') in K' (WITNESS_INVALID otherwise) and each
    delta in the identity class (DELTA_INVALID).  The map is read off its
    lift pi_K . delta_K^-1 . k[[rho]] . delta_I, which kills I.
    """
    t_src, t_tgt = src_cls.parent, tgt_cls.parent
    if rho.source != t_src.vq or rho.target != t_tgt.vq \
            or rho.field != t_src.field or rho.field != t_tgt.field:
        raise QuivkitError("BAD_ARGUMENT", "map endpoints do not match the classes")
    if not rho.is_surjective():
        raise QuivkitError("NOT_SURJECTIVE",
                           "only surjective maps are admitted here")
    if t_src.level != t_tgt.level:
        raise QuivkitError("TRUNCATION_INCOMPATIBLE", "levels differ")
    ident_src = identity_morphism(t_src.carrier)
    ident_tgt = identity_morphism(t_tgt.carrier)
    i_rep = src_cls.representative
    k_rep = tgt_cls.representative
    iprime, delta_i = witness_src if witness_src is not None else (i_rep, ident_src)
    kprime, delta_k = witness_tgt if witness_tgt is not None else (k_rep, ident_tgt)
    if apply_to_ideal(delta_i, i_rep) != iprime:
        raise QuivkitError("WITNESS_INVALID", "source witness does not map I to I'")
    if apply_to_ideal(delta_k, k_rep) != kprime:
        raise QuivkitError("WITNESS_INVALID", "target witness does not map K to K'")
    krho = kvq_on_map(rho, t_src.level)
    if not kprime.space.contains_subspace(krho.image_of(iprime.space)):
        raise QuivkitError("WITNESS_INVALID", "k[[rho]] does not take I' into K'")
    if not (check_sim(delta_i, ident_src, 1) and check_sim(delta_k, ident_tgt, 1)):
        raise QuivkitError("DELTA_INVALID", "delta is not in the identity class")
    _q_i, pi_i = quotient_algebra(t_src.carrier, i_rep)
    _q_k, pi_k = quotient_algebra(t_tgt.carrier, k_rep)
    return induced_on_quotient(
        pi_i, pi_k.compose(delta_k.inverse()).compose(krho).compose(delta_i))


def same_ideal_orbit(t: TruncatedTensorAlgebra, ideal_a: IdealSubspace,
                     ideal_b: IdealSubspace, budget: int = 200):
    """Search for delta in the identity class with delta(I) = I'.

    Bounded search over conjugations by 1+v and single-arrow perturbations
    (small coefficient menus); returns the witness automorphism or None when
    the budget is exhausted, which is not a disproof.
    """
    f = t.field
    a = t.carrier
    if ideal_a.space == ideal_b.space:
        return identity_morphism(a)
    if ideal_a.dim != ideal_b.dim:
        return None
    if f.char == 0:
        coeffs = [f.of(1), f.of(-1), f.of(2), f.of(-2)]
    else:
        coeffs = [f.of(c) for c in range(1, f.char)]
    tried = 0

    def check(delta):
        return delta.image_of(ideal_a.space) == ideal_b.space

    # conjugations by single scaled arrows
    for lab in t.vq.arrow_labels():
        for c in coeffs:
            if tried >= budget:
                return None
            tried += 1
            delta = conjugation_automorphism(t, {t.arrow_index[lab]: c})
            if check(delta):
                return delta
    # single-arrow perturbations a -> a + c * (longer path in the same block)
    for lab in t.vq.arrow_labels():
        src, tgt, _ = t.vq.arrow_location(lab)
        for i in t.deeper_paths(src, tgt):
            for c in coeffs:
                if tried >= budget:
                    return None
                tried += 1
                idems, arrow_images = t.generators()
                arrow_images[lab][i] = c   # i is a longer path, not the arrow
                delta = universal_map(t, a, idems, arrow_images)
                if check(delta):
                    return delta
    return None
