"""Class-agnostic, anchor-free bounding-box regression at desk scale."""

from .boxes import Box, apply_offsets_array, boxes_to_array, encode_offsets_array, iou
from .errors import DataFormatError
from .features import FEATURE_STRIDE, FeatureMap, roi_align_many
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
from .metrics import EvalRecord, corloc, make_record, mean_iou_trajectory, recall_at, recall_curve
from .proposals import (
    Proposal,
    SeedGridConfig,
    decay_nms,
    generate_proposals,
    load_proposals,
    save_proposals,
    score_proposals,
    seed_grid,
)
from .sampling import SampleBudgetWarning, SamplerConfig, generate_training_boxes, generate_training_boxes_many
from .scenes import Scene, SynthConfig, filter_categories, load_annotations, load_scenes, save_scenes, synth_scenes

__version__ = "0.1.0"
