"""Centers, chain groups, coset groups and automorphisms of compact quantum
groups, computed purely from their fusion rules."""

from .errors import (
    AxiomViolation,
    DepthExceeded,
    FusionRingError,
    InternalInconsistency,
    InvalidRestriction,
    MalformedFile,
    MalformedRing,
    NotAGroup,
    NotASubobject,
    SearchBudgetExceeded,
    UnknownLabel,
)
from .ring import (
    BasisElement,
    FusionRing,
    Subobject,
    ValidationReport,
    check_subobject,
    generated_subobject,
    validate_ring,
)
from .catalog import (
    au_word_ring,
    cyclic_group,
    direct_product,
    free_product,
    group_ring,
    klein_group,
    load_group,
    load_ring,
    rep_ring_char_table,
    rep_s3_ring,
    rep_z4_ring,
    s3_group,
    save_ring,
    so3_ring,
    su2_ring,
    z_group_ring,
)
from .central import (
    CentralityResult,
    CosetPartition,
    GroupDescriptor,
    GroupTable,
    abelian_invariants,
    center_subobject,
    chain_group,
    chain_oracle,
    enumerate_central_subobjects,
    identify_group,
    is_central_subobject,
    merge_closure,
    sigma_cosets,
    tables_isomorphic,
)
from .subgroups import (
    RestrictionData,
    central_subgroup_cross_check,
    grouplikes,
    grouplikes_group,
    identity_restriction,
    is_central_subgroup,
    is_normal,
    su2_parity_restriction,
    su2_weight_restriction,
    trivial_restriction,
    trivial_restriction_subobject,
    validate_restriction,
)
from .automorph import (
    AutomorphismGroup,
    RingAutomorphism,
    action_on_chain_group,
    automorphism_group,
    automorphisms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
