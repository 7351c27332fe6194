"""Exact invariants of elliptic 3-manifolds S^3/G.

Finite subgroups of U(2) acting freely on the 3-sphere, Seifert data of
the quotients, the orbifold line-bundle character, the Seiberg-Witten
moduli dimension, and orbifold curve adjunction arithmetic, all in exact
cyclotomic/rational arithmetic.
"""

from .cyclo import CyclotomicNumber, root_of_unity
from .errors import (
    CharacterConflictError,
    ConstraintError,
    DomainError,
    InputDocumentError,
    InternalInvariantError,
    NotRationalError,
)
from .groups import (
    AbelianInvariants,
    FiniteGroup,
    GroupSpec,
    UnitaryElement,
    build_binary_polyhedral,
    build_group,
    eigen_angles,
    scalar_subgroup,
    verify_free_action,
)
from .seifert import SeifertInvariant, euler_number, normalized_invariant
from .bundle import (
    BivariatePolynomial,
    Character,
    extend_character,
    generator_table,
    rho,
    section_equivariance_report,
    verify_section_equivariance,
)
from .swindex import (
    SWDimensionReport,
    chi,
    closed_form_d_E,
    d_E,
    s_breakdown,
    singular_point_contribution,
    sum_chi_by_elements,
    sw_dimension_report,
    sweep_specs,
)
from .curves import (
    CurveClassData,
    OrbifoldPointRecord,
    adjunction_slack,
    fredholm_index,
    intersection_with_c0,
    kpair_lower_bound,
    kz_lower_bound,
    kz_min_at_p0,
    orbifold_genus,
    run_audit,
    virtual_genus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
