"""specforge: build full families of finite-volume conditional probability
kernels from their single-site members, and verify every property that makes
the result a consistent specification, in exact rational arithmetic on finite
desk-scale models."""

from .core import (
    Alphabet,
    Configuration,
    DomainError,
    FreeMeasure,
    Space,
    SpecforgeError,
    Universe,
)
from .models import (
    NormalizationError,
    PotentialModel,
    SingletonFamily,
    TableModel,
    TailRuleModel,
    extract_singletons,
    normalize,
    rebalance_free,
)
from .constructor import (
    ConstructionError,
    DensityFamily,
    assemble_kernel,
    build_family,
    check_order_independence,
    extend_density,
    extension_divisor,
)
from .hypotheses import (
    HypothesisFailure,
    HypothesisReport,
    Witness,
    check_bounded_positivity,
    check_order_consistency,
    check_pointwise_compatibility,
    check_uniqueness_condition,
    check_very_weak_positivity,
    good_symbols,
)
from .verifier import (
    FiniteMeasure,
    SupportClassCertificate,
    check_good_support_mass,
    check_measure_consistency,
    check_specification_axioms,
    good_support_report,
    quasilocality_diagnostic,
    ratio_bounds,
    roundtrip_reconstruction,
    support_class_certificate,
    uniqueness_probe,
)

__version__ = "0.1.0"
