"""Exact-arithmetic engine for combinatorial co-, bi- and Hopf algebras.

Builds deconcatenation-style coalgebras (quiver paths, poset intervals,
colored monoids, iterated-integral words, rooted-tree and graph classes,
group doubles), analyzes their grouplike and filtration structure, computes
convolution inverses and antipodes, forms quotient/deformed/localized Hopf
algebras, and factorizes characters against a Rota-Baxter splitting.
"""

from .errors import (
    ConfigurationError,
    FiltrationNotExhaustive,
    GrouplikeNotInvertible,
    InputError,
    MathError,
    RuleNotFound,
    SweedlerError,
    UnsupportedError,
)
from .linear import BasisKey, FormalSum, TensorSum, key_literal
from .scalars import render_scalar
from .specs import (
    AlgebraSpec,
    BialgebraSpec,
    CoalgebraSpec,
    ConvMap,
    RationalTarget,
    ValidationReport,
    conv_maps_equal,
    convolution_unit,
    convolve,
    identity_map,
    validate_bialgebra,
    validate_coalgebra,
)
from .gallery import (
    ColoredMonoid,
    Group,
    Poset,
    Quiver,
    boolean_poset,
    build_categorical_coalgebra,
    build_drinfeld_double,
    build_drinfeld_double_dual,
    build_incidence_coalgebra,
    build_path_coalgebra,
    build_setlike_coalgebra,
    build_word_coalgebra,
    chain_poset,
    complete_quiver,
    coopposite,
    cyclic_group,
    goncharov_coproduct,
    symmetric_group_3,
    word_key,
)
from .structure import (
    FiltrationTable,
    PathlikeVerdict,
    StructureReport,
    analyze_structure,
    bivariate_filtration,
    color_decompose,
    filtration_from_grading,
    find_grouplikes,
    find_skew_primitives,
    skew_primitive_space,
    verify_pathlike,
)
from .inversion import (
    antipode,
    convolution_inverse,
    finite_convolution_inverse,
    invert_character,
    validate_antipode,
)
from .trees import build_tree_bialgebra, parse_forest, tree_coproduct
from .graphs import (
    GraphMorphism,
    build_graph_bialgebra,
    check_graph_relations,
    degree_of,
    graph_coproduct,
)
from .constructions import (
    CoactionMap,
    QDeformedBialgebra,
    QuotientSpec,
    abelianized_quotient,
    brown_coaction,
    localize_central,
    normalized_quotient,
    q_deform,
    validate_coaction,
    validate_coideal,
)
from .renorm import (
    LAURENT,
    BirkhoffPair,
    CharacterSpec,
    LaurentPoly,
    RBOperator,
    atkinson_split,
    birkhoff,
    check_rota_baxter,
    parse_laurent,
    pole_part,
    pole_part_operator,
)

__version__ = "0.1.0"
