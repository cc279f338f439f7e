"""Skew-shape symmetric polynomials with exact integer coefficients.

Three families over a skew shape: Schur (semistandard tableaux),
stable Grothendieck (set-valued tableaux, signed, unbounded degree),
and dual stable Grothendieck (reverse plane partitions with
column-distinct weight).  One layer-transfer engine counts all three,
one variable at a time over the partitions between the inner and outer
shape; tableau enumeration remains as the reference it is tested
against.  On top of those: a ribbon algebra with
irreducible factorization, bottleneck/overlap invariants with closed
coefficient formulas, equality deciders with explicit evidence levels,
and exhaustive coincidence search.

The ribbon-level g_equivalent lives in skewpoly.ribbons; the top-level
name is the shape-level decider.
"""

from .equivalence import (
    CoeffFormulaReport,
    EquivClass,
    FilterReport,
    G_equivalent,
    StaircaseCase,
    StaircaseReport,
    brute_coefficient,
    check_staircase,
    coeff_reports,
    coeff_two_var,
    coeff_x1cube_x2n,
    coeff_x1cube_x2nm1,
    coeff_x1sq_x2n,
    degree_slice_coeffs,
    enumerate_shapes,
    filter_report,
    fingerprint,
    g_equivalent,
    necessary_filter,
    schur_equivalent_shapes,
    search_coincidences,
    search_coincidences_iter,
    staircase,
    subpartitions,
    two_var_vector,
)
from .errors import (
    IncomparableTruncation,
    InvalidArg,
    InvalidBound,
    InvalidShape,
    NotSymmetric,
    ParseError,
    SkewPolyError,
)
from .polynomials import (
    EXACT,
    PARTIAL_DEGREE,
    PARTIAL_VARS,
    EqualityVerdict,
    TruncatedSymPoly,
    dual_grothendieck,
    equal,
    grothendieck,
    schur,
    schur_expand,
    verify_symmetry,
)
from .ribbons import (
    SQUARE,
    Factorization,
    Ribbon,
    all_ribbons,
    compose,
    concat,
    dominated_ribbons,
    g_schur_coefficient,
    irreducible_factorization,
    is_trivial_split,
    near_concat,
    reverse,
    schur_equivalent,
)
from .shapes import (
    EMPTY_SHAPE,
    BottleneckProfile,
    Partition,
    SkewShape,
    bottleneck_profile,
    conjugate,
    is_ribbon,
    normalize,
    parse_partition,
    parse_ribbon_text,
    parse_shape,
    ribbon_rows,
    ribbon_shape,
    rotate180,
    shape_syntax,
    transpose,
)
from .tableaux import (
    Filling,
    LatticePath,
    enumerate_rpp,
    enumerate_ssyt,
    enumerate_svt,
    path_to_rpp12,
    rpp12_to_path,
    rpp_monomial_count,
    ssyt_monomial_count,
    svt_monomial_count,
)

__version__ = "0.1.0"
