"""Semantic localization with GPS-to-map offset self-calibration.

A state-estimation library plus a synthetic simulation harness: a modified
iterated EKF localizes a vehicle against a lightweight semantic map (lane
boundaries and traffic lights) while estimating the rigid offset between
the live GPS frame and the map frame.
"""

from .liegroup import (  # noqa: F401
    NearPiRotation,
    Pose,
    Twist,
    act,
    compose,
    exp_se3,
    inverse,
    log_se3,
    se3_wedge,
    so3_wedge,
)
from .geometry import (  # noqa: F401
    BehindCamera,
    CameraModel,
    DegenerateLine,
    HorizontalLine,
    ImageLine,
    Pixel,
    line_x_at_y,
    point_projection_jacobian,
    project_point,
    project_polyline,
)
from .semantic_map import (  # noqa: F401
    LaneBoundary,
    ParseError,
    SemanticMap,
    TrafficLight,
    ValidationError,
    load_map,
    nearby_lanes,
    nearby_lights,
    save_map,
)
from .association import (  # noqa: F401
    DegenerateInput,
    LaneMatch,
    LightMatch,
    associate_lights,
    fit_line,
    match_lane_pixels,
    subsample_pixels,
)
from .estimator import (  # noqa: F401
    EstimatorState,
    GaussNewtonOptions,
    MeasurementBundle,
    NoiseConfig,
    SingularNormalEquations,
    UnknownLandmark,
    cauchy_information,
    correct,
    gps_error,
    init_state,
    lane_error,
    light_error,
    predict,
    process_covariance,
    pseudo_errors,
    wheel_error,
)
from .simulator import (  # noqa: F401
    GroundTruthFrame,
    Scenario,
    SensorFrame,
    default_camera,
    generate_trajectory,
    generate_world,
    simulate_frame,
)
from .evaluation import (  # noqa: F401
    EmptyInput,
    FrameError,
    decompose_error,
    offset_error,
    summarize,
)

__version__ = "0.1.0"
