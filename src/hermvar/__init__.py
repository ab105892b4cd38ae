"""Exact verification and search engine for intersections of non-degenerate
Hermitian varieties over F_{q^2} with hyperplanes, linear subspaces, and
cubic hypersurfaces.

Everything is exact: field arithmetic runs on dense lookup tables, counts
are plain integers, and every closed-form count has a brute-force
enumeration oracle at desk scale.
"""

from .bounds import (
    BoundTable,
    build_bound_table,
    check_bound_power_gap,
    check_section_quadric_gap,
    cone_counts,
    cubic_bound_closed,
    cubic_bound_rec,
    max_section_bound,
    quadric_bound_closed,
    quadric_bound_rec,
)
from .cubics import (
    Arrangement,
    Hypersurface,
    IntersectionReport,
    affine_section_count,
    all_tangent_pencil_value,
    arrangement,
    build_extremal,
    check_affine_section_bound,
    divides_linear,
    expand_product,
    intersect_count_arrangement,
    intersect_count_enum,
    linear_factor,
    make_affine_bound_instance,
    make_hypersurface,
    max_cubic_intersection,
    monomial_exponents,
    random_hypersurface,
)
from .errors import (
    BudgetExceeded,
    Degenerate,
    DuplicateHyperplanes,
    ExceedsCap,
    InsufficientPencilMembers,
    NotOnVariety,
    NotPrimePower,
    OutOfRange,
    PreconditionViolated,
    WrongDimension,
)
from .field import FieldCtx, is_prime_power, make_field, solve_norm
from .hermitian import (
    HermitianForm,
    SectionType,
    TangencyReport,
    classify_hyperplane,
    classify_section,
    congruence_reduce,
    contains,
    count_points_enum,
    count_points_formula,
    evaluate,
    nondegenerate_count,
    padded_standard_form,
    rank,
    restrict,
    section_count,
    standard_form,
    tangent_hyperplane,
    tangents_through_count,
    variety_mask,
)
from .projgeom import (
    Hyperplane,
    LinearSubspace,
    ProjPoint,
    enumerate_hyperplanes,
    enumerate_points,
    hyperplanes_through,
    hyperplanes_through_count,
    intersect_hyperplanes,
    membership,
    normalize,
    num_points,
    pencil_through,
    point_rank,
    random_subspace,
    subspace_from_rows,
    subspace_points,
)
from .search import (
    IncidenceReport,
    RandomCubicReport,
    SearchReport,
    exhaustive_triples,
    incidence_double_count,
    pencil_triples_scan,
    random_cubic_sample,
    report_json,
)

__version__ = "0.1.0"
