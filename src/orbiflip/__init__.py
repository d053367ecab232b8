"""orbiflip: exact workbench for toric flip/flop geometry.

Weight sequences define a one-parameter torus action on affine space; the
package normalizes and classifies them, describes the quotient charts,
resolves threshold monomial ideals, and verifies the wall-crossing functors
between the two GIT quotients strand by strand in exact arithmetic, with an
independent per-character Cech cohomology oracle as ground truth.
"""

from .charts import (
    AtlasEntry,
    CyclicQuotientChart,
    QuotientTypeNormalForm,
    atlas_report,
    is_small,
    minus_chart,
    normal_form,
    plus_chart,
    y_chart,
)
from .errors import (
    BoxTooLarge,
    InconsistentDegrees,
    IndexOutOfRange,
    NonPositiveKLevel,
    OrbiflipError,
    ParseError,
    PreconditionKLevel,
    PushforwardNotClosedForm,
    ResolutionConstructionFailure,
    TooLargeGroup,
    Unsupported,
    UnsupportedWeights,
    WrongSide,
)
from .functors import (
    FunctorSpec,
    IdealImage,
    VerificationReport,
    adjunction_check,
    apply,
    as_complex,
    equivalence_suite,
    example51_verify,
    roundtrip_check,
)
from .linalg import (
    SPACE_MINUS,
    SPACE_MODULE,
    SPACE_PLUS,
    SPACE_Y,
    Character,
    MonomialComplex,
    StrandComplex,
    Term,
    degree,
    is_section,
    section_basis,
    single_twist_complex,
    strand,
    strand_by_degree,
)
from .resolution import (
    ResolutionDegrees,
    build_resolution,
    minimal_resolution_degrees,
    threshold_generators,
    verify_degree_bounds,
)
from .sheaves import (
    A,
    B,
    EBAR,
    EMINUS,
    EPLUS,
    DivisorId,
    PushforwardResult,
    ShiftedTwist,
    TwistClass,
    class_of_divisor,
    cohomology_table,
    dualizing_class,
    euler_cotangent_complex,
    exceptional_koszul,
    hypercohomology_table,
    pullback,
    pushforward_rule,
    serre_twist,
    total_cohomology,
    wps_cohomology_totals,
)
from .weights import (
    ClassificationReport,
    NormalizationTrace,
    WeightSequence,
    canonical_extension,
    classify,
    is_well_formed,
    normalize,
)

__version__ = "0.1.0"
