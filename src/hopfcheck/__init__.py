"""Exact structure-constant computations with finite-dimensional Hopf algebras.

Everything runs over Q or a cyclotomic field Q(zeta_n) with exact rational
arithmetic; completeness of root and character searches is always relative
to the chosen working field.
"""

from hopfcheck.algebra import (
    AssocAlgebra,
    CharacterSearch,
    Report,
    center,
    characters,
    is_semisimple_trace,
    radical,
    verify_algebra,
)
from hopfcheck.cyclotomic import (
    CycloField,
    FieldElement,
    FieldMismatch,
    MultiPoly,
    Rational,
    UniPoly,
    VariableMismatch,
    embed,
    factor_unipoly,
    make_field,
    roots_in_field,
)
from hopfcheck.families import (
    BadParams,
    NotPrimitiveRoot,
    a_tau_mu,
    group_algebra,
    sweedler,
    taft,
    taft_tensor_group,
)
from hopfcheck.hopf import (
    AntipodeOrderOverflow,
    BadDimension,
    DegenerateIntegral,
    Fingerprint,
    GroupLikes,
    HopfAlgebra,
    IntegralData,
    NoAntipode,
    NotGroupLike,
    check_radford_s4,
    classify_4p,
    coradical,
    dual,
    fingerprint,
    group_likes,
    integrals,
    is_pointed,
    is_semisimple_lr,
    skew_primitives,
    solve_antipode,
    structure_equal,
    tensor_hopf,
    trace_s2,
    verify_hopf,
)
from hopfcheck.linalg import Matrix, ShapeMismatch, Tensor3
from hopfcheck.yetter_drinfeld import (
    BaseMismatch,
    BraidedHopf,
    VerificationFailure,
    YDModule,
    bosonize,
    braided_integrals,
    braiding,
    check_dual_biproduct,
    dual_braided,
    verify_braided_hopf,
    verify_yd,
)

__version__ = "0.1.0"
