"""Safe landing-site detection on rubble from depth frames.

Per frame, four hazard costmaps (depth confidence, flatness, steepness,
energy) fuse into a decision map from which dense candidate sites are
filtered by score and UAV footprint; sites are lifted into the world
frame, deduplicated in a site registry and clustered into a sparse
ranked list. A synthetic scene renderer provides exact ground truth for
testing, and a benchmark harness times every stage.
"""

from .bench import bench, timing_table
from .config import PROFILES, PipelineConfig, get_profile
from .costmaps import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    BinaryMap,
    Costmap,
    FrameMaps,
    NormalMap,
    canny_edges,
    decision_map,
    depth_confidence_map,
    distance_transform,
    energy_map,
    evaluate_costmaps,
    minmax_normalize,
    steepness_map,
    surface_normals,
)
from .detection import Candidates, dense_candidates
from .errors import ConfigError
from .geometry import (
    CameraIntrinsics,
    DepthFrame,
    Pose,
    camera_pose,
    project_points,
    project_uav_radius,
)
from .pipeline import (
    PipelineResult,
    read_frame_stream,
    run_pipeline,
    write_frame_stream,
)
from .registry import (
    Clusters,
    ClusterSite,
    LandingSite,
    SiteRegistry,
    cluster_sites,
)
from .scene_synth import (
    Box,
    GroundPlane,
    GroundTruth,
    SceneSpec,
    Sphere,
    TiltedPlane,
    canonical_camera,
    canonical_scenes,
    default_intrinsics,
    render_depth,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMap", "Box", "CameraIntrinsics", "Candidates", "ClusterSite",
    "Clusters", "ConfigError", "Costmap", "DepthFrame", "FrameMaps",
    "GroundPlane", "GroundTruth", "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER", "LandingSite", "NormalMap", "PROFILES",
    "PipelineConfig", "PipelineResult", "Pose", "SceneSpec", "SiteRegistry",
    "Sphere", "TiltedPlane", "bench", "camera_pose", "canny_edges",
    "canonical_camera", "canonical_scenes", "cluster_sites", "decision_map",
    "default_intrinsics", "dense_candidates", "depth_confidence_map",
    "distance_transform", "energy_map", "evaluate_costmaps",
    "get_profile", "minmax_normalize", "project_points",
    "project_uav_radius", "read_frame_stream", "render_depth", "run_pipeline",
    "steepness_map", "surface_normals", "timing_table", "write_frame_stream",
]
