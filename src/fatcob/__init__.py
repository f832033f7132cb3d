"""fatcob: open-closed fat graphs, gluing, and determinant-line signs.

The package models surfaces-with-boundary combinatorially: a fat graph
(a graph with cyclic half-edge orders at the vertices) thickens to an
oriented surface, leaf decorations turn it into an open-closed
cobordism, and admissible graphs compose by gluing outgoing to incoming
boundary.  On top of the combinatorics sits the two-term integer chain
complex of a graph relative to its incoming boundary, whose determinant
line carries the degree and sign bookkeeping of the induced operations
as exact rational scalars.
"""

from .errors import *  # noqa: F401,F403
from .graphs import (  # noqa: F401
    BoundaryCycles,
    CellCorrespondence,
    ComponentSignature,
    FatGraph,
    SurfaceSignature,
    disjoint_union,
    new_fat_graph,
)
from .openclosed import (  # noqa: F401
    CobordismSignature,
    IncomingPartition,
    OpenClosedFatGraph,
    check_positive_boundary,
    cobordism_signature,
    decorate,
    incoming_partition,
    is_admissible,
    smooth_undecorated_bivalent,
)
from .morphisms import (  # noqa: F401
    Morphism,
    canonical_form,
    collapse_edges,
    compose,
    find_isomorphism,
    is_isomorphic,
    validate_morphism,
)
from .census import admissible_decorations, enumerate_fat_graphs  # noqa: F401
from .gluing import (  # noqa: F401
    GluingMatch,
    gluable,
    glue,
    glue_morphisms,
    subdivision_match,
)
from .homology import (  # noqa: F401
    ChainComplexPair,
    GradedLine,
    chain_map_of_morphism,
    gluing_det_iso,
    morphism_det_sign,
    operation_degree,
    power,
    relative_chain_complex,
    relative_euler_char,
    skew_associativity_sign,
    swap,
    tensor,
)
from .fgformat import (  # noqa: F401
    GraphDocument,
    load,
    parse,
    parse_graph,
    serialize,
)

__version__ = "0.1.0"
