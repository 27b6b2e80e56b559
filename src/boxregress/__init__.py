"""Class-agnostic, anchor-free bounding-box regression at desk scale."""

from .boxes import Box, apply_offsets_array, encode_offsets_array, iou
from .errors import DataFormatError
from .features import FEATURE_STRIDE, FeatureMap, PlaneBuffer, plane_buffer, roi_align_many
from .losses import LossConfig, iou_loss_terms_batch, smooth_l1_terms_batch
from .model import (
    EpochStats,
    RegressorModel,
    TrainConfig,
    TrainingDiverged,
    init_model,
    load_model,
    refine,
    save_model,
    train,
)
from .metrics import EvalRecord, corloc, mean_iou_trajectory, recall_at, recall_curve
from .proposals import SeedGridConfig, decay_nms, generate_proposals, read_corner_csv, seed_grid, write_corner_csv
from .sampling import SampleBudgetWarning, SamplerConfig, generate_training_boxes_many
from .scenes import (Scene, SynthConfig, filter_categories, load_annotations, load_scenes, save_scenes, scene_map,
                     synth_scenes)

__version__ = "0.1.0"
