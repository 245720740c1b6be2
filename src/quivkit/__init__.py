"""quivkit: exact computer algebra for quivers, truncated path algebras and
Gabriel quivers."""

from .errors import QuivkitError
from .exactlin import GF, QQ, Mat, Subspace, complement, kernel, image, quotient_basis, rref
from .algebra import (
    AlgMorphism,
    FinAlgebra,
    IdealSubspace,
    ideal_generated_by,
    identity_morphism,
    image_of_radical_check,
    is_relation_ideal,
    quotient_algebra,
    trace_form_radical,
    validate_algebra,
    validate_morphism,
)
from .vquiver import (
    POINT,
    Quiver,
    QuiverMap,
    VQuiver,
    VQuiverMap,
    compose_vq,
    identity_vqmap,
    is_acyclic,
    v_of_inclusion,
    v_of_quiver,
)
from .pathalg import (
    TruncatedTensorAlgebra,
    build_kvq,
    cpa,
    cpa_on_inclusion,
    kvq_on_map,
    universal_map,
)
from .splittings import (
    IdempotentSet,
    Splitting,
    conjugator,
    lift_idempotents,
    make_splitting,
    same_orbit,
)
from .gabriel import (
    GabrielQuiverResult,
    check_sim,
    check_sim_n,
    gq,
    gq0,
    gq0_on_morphism,
    gq_on_morphism,
    gq_tilde,
)
from .adjunction import (
    CounitResult,
    counit_factorization,
    IdealOrbitClass,
    counit,
    factor_delta,
    gamma,
    gq_infty,
    kinfty_on_map,
    naturality_check_first_var,
    naturality_check_second_var,
    phi,
    psi,
    right_adjoint_phi,
    same_ideal_orbit,
    semisimple_adjunction_bijection,
    unit_map,
)

__version__ = "0.1.0"
