"""Path signatures and signature-based skeleton action features.

The library has three layers:

* ``signature``: truncated iterated-integral signatures of discrete
  paths, with exact per-segment closed forms and Chen concatenation.
* ``transforms`` / ``skeleton``: path lifts (time, lead-lag, dyadic
  windows) and the skeleton feature stack built from them.
* ``classifier``: a seeded linear network with dropconnect training,
  plus the two-stage actor-count routing scheme.

``pathsig.cli`` exposes the same functionality as a command line tool;
``pathsig.io`` reads and writes every file format it uses.
"""

from .classifier import (
    HIDDEN_UNITS,
    EpochStats,
    LinearNetModel,
    StagePartition,
    TrainConfig,
    TwoStageModel,
    extract_body_features,
    forward,
    gradient_check,
    init_model,
    load_model,
    lr_schedule,
    rank_actors,
    save_model,
    stage_partition,
    train,
    two_stage_predict,
    two_stage_route,
)
from .errors import FormatError, InputError
from .signature import (
    TruncatedSignature,
    as_path,
    chen_concat,
    levy_area,
    path_signature,
    path_signature_batch,
    segment_signature,
    signature_bruteforce,
    signature_dimension,
)
from .skeleton import (
    Block,
    DatasetDescriptor,
    FeatureConfig,
    FeatureScaler,
    FeatureVector,
    SkeletonClip,
    add_gaussian_noise,
    apply_scaler,
    assemble_features,
    augment_clips,
    enumerate_pathlets,
    feature_layout,
    fill_clip,
    fit_scaler,
    horizontal_flip,
    merge_actors,
    normalize_clip,
    temporal_joint_features,
    temporal_spatial_features,
)
from .transforms import (
    IndexWindow,
    add_time,
    dyadic_windows,
    fill_missing,
    lead_lag,
    uniform_sample,
)

__all__ = [
    "Block",
    "DatasetDescriptor",
    "EpochStats",
    "FeatureConfig",
    "FeatureScaler",
    "FeatureVector",
    "FormatError",
    "HIDDEN_UNITS",
    "IndexWindow",
    "InputError",
    "LinearNetModel",
    "SkeletonClip",
    "StagePartition",
    "TrainConfig",
    "TruncatedSignature",
    "TwoStageModel",
    "add_gaussian_noise",
    "add_time",
    "apply_scaler",
    "as_path",
    "assemble_features",
    "augment_clips",
    "chen_concat",
    "dyadic_windows",
    "enumerate_pathlets",
    "extract_body_features",
    "feature_layout",
    "fill_clip",
    "fill_missing",
    "fit_scaler",
    "forward",
    "gradient_check",
    "horizontal_flip",
    "init_model",
    "lead_lag",
    "levy_area",
    "load_model",
    "lr_schedule",
    "merge_actors",
    "normalize_clip",
    "path_signature",
    "path_signature_batch",
    "rank_actors",
    "save_model",
    "segment_signature",
    "signature_bruteforce",
    "signature_dimension",
    "stage_partition",
    "temporal_joint_features",
    "temporal_spatial_features",
    "train",
    "two_stage_predict",
    "two_stage_route",
    "uniform_sample",
]

__version__ = "0.1.0"
