"""sslasr: desk-scale self-supervised speech representation learning.

NumPy-backed autodiff, log-mel features, a small transformer encoder with
residual adapters, five SSL objectives, CTC finetuning, and a three-stage
domain-adaptation pipeline over synthetic corpora.
"""

from .ctc import (
    CTCHead,
    ctc_loss_batch,
    edit_distance,
    error_rate,
    greedy_decode,
)
from .data import Batch, make_corpus
from .engine import Tape, Tensor, backward
from .features import Featurizer, FeaturizerConfig, spec_augment
from .gradcheck import finite_diff_gradcheck
from .io import (
    load_checkpoint,
    read_feat,
    read_manifest,
    save_checkpoint,
    write_feat,
    write_manifest,
)
from .model import Encoder, ResidualAdapter, build_encoder
from .objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    MaskedClusterObjective,
    apc_loss,
)
from .optim import Adam, clip_global_norm, noam_lr, tri_stage_lr
from .training import (
    PipelineConfig,
    run_adapt,
    run_evaluate,
    run_finetune,
    run_pipeline,
    run_pretrain,
    sweep,
)

__all__ = [
    "Adam",
    "Batch",
    "BidirectionalAPC",
    "CTCHead",
    "ContrastiveObjective",
    "EAPCObjective",
    "Encoder",
    "Featurizer",
    "FeaturizerConfig",
    "MaskedClusterObjective",
    "PipelineConfig",
    "ResidualAdapter",
    "Tape",
    "Tensor",
    "apc_loss",
    "backward",
    "build_encoder",
    "clip_global_norm",
    "ctc_loss_batch",
    "edit_distance",
    "error_rate",
    "finite_diff_gradcheck",
    "greedy_decode",
    "load_checkpoint",
    "make_corpus",
    "noam_lr",
    "read_feat",
    "read_manifest",
    "run_adapt",
    "run_evaluate",
    "run_finetune",
    "run_pipeline",
    "run_pretrain",
    "save_checkpoint",
    "spec_augment",
    "sweep",
    "tri_stage_lr",
    "write_feat",
    "write_manifest",
]

__version__ = "0.1.0"
