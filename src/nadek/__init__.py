"""Order-agnostic autoregressive density estimation over binary vectors.

Conditionals come from k iterations of a shared-weight reconstruction
network; training, exact likelihood evaluation, ensembling over
orderings, and ancestral sampling are all included.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import binarize_by_sampling, load_text_matrix
from .evaluation import (
    EnsembleSpec,
    EvalReport,
    Ordering,
    draw_orderings,
    ensemble_log_prob,
    enumerate_distribution,
    log_prob_ordering,
    ordering_stats,
)
from .model import ModelParams, StructureConfig, Trajectory, forward, init_params
from .numerics import ContractError, Rng
from .sampling import ancestral_sample, inpaint, sample_from_mixture
from .training import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "EnsembleSpec",
    "EvalReport",
    "ModelParams",
    "Ordering",
    "Rng",
    "StructureConfig",
    "TrainConfig",
    "TrainResult",
    "Trajectory",
    "ancestral_sample",
    "binarize_by_sampling",
    "draw_orderings",
    "ensemble_log_prob",
    "enumerate_distribution",
    "forward",
    "init_params",
    "inpaint",
    "load_checkpoint",
    "load_text_matrix",
    "log_prob_ordering",
    "ordering_stats",
    "sample_from_mixture",
    "save_checkpoint",
    "train",
]
