"""coverdiam: diameter bounds for covering spaces, checked on computable models."""

from .errors import (
    CoverNotCovering,
    DisconnectedCoverError,
    DisconnectedGraphError,
    EnumerationOverflow,
    InvariantError,
    NotGeneratingError,
    PathNotLongEnough,
)
from .metric_graph import (
    DiameterResult,
    Edge,
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    continuous_diameter,
    load_metric_graph,
    point_distance,
    shortest_route,
)
from .groups import (
    CayleyGraph,
    CosetTable,
    Presentation,
    TrivialityResult,
    cayley_graph,
    is_trivial,
    load_presentation,
    todd_coxeter,
    word_metric_diameter,
)
from .covering import (
    CoveringGraph,
    ShorteningTrace,
    Voltage,
    derive_cover,
    is_connected_cover,
    load_voltage,
    pigeonhole_shorten,
    verify_diameter_bound,
)
from .complexes import (
    SimplicialComplex2,
    flag_triangles,
    is_simply_connected,
    load_complex,
    nerve2,
    pi1_presentation,
)
from .separator import (
    cayley_diameter_bound,
    verify_cayley_bound,
    zoo_instances,
)
from .universal_cover import (
    CoveringComplex,
    PEApprox,
    build_universal_cover,
    fiber_ball_nerve,
    pe_subdivision_graph,
    rp2_complex,
    verify_universal_bound,
)

__version__ = "0.1.0"
