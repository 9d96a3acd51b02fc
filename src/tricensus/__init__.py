"""tricensus: exact triangulation counting and classification for planar point sets."""

from .catalan import (
    catalan,
    catalan_by_convolution,
    check_product_inequality,
    polygon_count_recurrence_holds,
    polygon_triangulation_count,
)
from .charvec import (
    AngleFrame,
    RadialFrame,
    all_polylines,
    build_angle_frame,
    build_radial_frame,
    charvec_image,
    enumerate_good_polygons,
    find_charvec_collision,
    frame_bijection_holds,
    is_good_polygon,
    move_along_ray,
    polygon_charvec,
    polyline_charvec,
    polyline_from_charvec,
    project_to_convex_position,
    ray_move_preserves_image,
)
from .closeness import (
    QuasiConvexReport,
    classify,
    close_via_neighbor_triangles,
    find_blocking_apex,
    is_close,
)
from .errors import ConstructionError, SizeCapError
from .generators import (
    GenSpec,
    SplitMix64,
    gen_convex,
    gen_double_circle,
    gen_quasi_convex,
    gen_random,
    generate,
)
from .geom import (
    PointSet,
    convex_hull,
    general_position_violation,
    load_point_set,
    save_point_set,
)
from .harness import CorpusReport, InstanceVerdict, RunConfig, run_corpus, verify_instance
from .triangulations import (
    Listing,
    Triangulation,
    brute_force_count,
    check_triangulation,
    count_full,
    count_partial,
    enumerate_full,
    enumerate_partial,
)

__version__ = "0.1.0"
