"""Exact invariants of matrix pencils and of Lie algebra Poisson pencils.

Everything is computed over the rationals with fraction-free elimination;
no floating point is used anywhere.  The public surface re-exports the
main entry points of each module.  The function ``semidirect`` is not
re-exported: it would hide the submodule of the same name, so it is
reached as ``penciljk.semidirect.semidirect``.
"""

from .errors import (
    CertificateNotApplicableError,
    ClosureSearchLimitError,
    ConstantRankHypothesisError,
    DominanceSelectionError,
    FactorizationLimitError,
    HomomorphismError,
    InputFormatError,
    InternalConsistencyError,
    JacobiError,
    PencilJKError,
    RegularPointHypothesisError,
    SparsityPatternError,
)
from .exactla import Mat
from .pencils import (
    EigClass,
    Pencil,
    StrictInvariants,
    elementary_divisors,
    minimal_indices,
    pencil_rank,
    strict_invariants,
)
from .skewjk import (
    SkewJK,
    core_subspace,
    jk_of_block_pencil,
    mantle_subspace,
    skew_jk_invariants,
)
from .strata import (
    BundleSig,
    SkewBundleSig,
    abstract_signature,
    bundle_closure_contains,
    certify_generic_lie,
    certify_generic_repr,
    enumerate_signatures,
    orbit_closure_contains,
    skew_abstract_signature,
    skew_bundle_closure_contains,
)
from .lie import (
    LieAlgebra,
    RepJK,
    Representation,
    Sampler,
    SkewJKReport,
    check_homomorphism,
    check_jacobi,
    jk_invariants_of_lie,
    jk_invariants_of_rep,
    lie_pencil,
    lie_poisson_matrix,
    rep_pencil,
)
from .semidirect import (
    DualTheoremReport,
    check_dual_theorem,
    direct_sum,
    dual_representation,
    predict_semidirect_jk,
    verify_block_structure,
)
from .catalog import (
    Family,
    build_classical,
    expected_lie_jk,
    expected_rep_jk,
    parse_family,
)

__version__ = "0.1.0"
