"""reidlab: a desk-scale multimodal metric-learning laboratory.

Synthetic multimodal ReID data, three late-fusion training strategies
(fusion-avg, fusion-concat, unicat), exact analytic gradients, retrieval
evaluation (cosine / CMC / mAP), and packaged multi-seed experiment
suites. Everything is float64 and bit-reproducible from its seed.
"""

from .errors import (
    ConfigError,
    DataError,
    NumericError,
    ReidLabError,
    ShapeError,
    StateError,
)
from .numerics import GradCheckReport, Matrix, Rng, finite_diff_check, matmul, pairwise_euclidean
from .objectives import (
    FusionOperator,
    LossConfig,
    Strategy,
    combined_loss,
    cross_entropy,
    fuse,
    triplet_loss,
)
from .synthdata import MultimodalDataset, SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "NumericError",
    "ReidLabError",
    "ShapeError",
    "StateError",
    "GradCheckReport",
    "Matrix",
    "Rng",
    "finite_diff_check",
    "matmul",
    "pairwise_euclidean",
    "FusionOperator",
    "LossConfig",
    "Strategy",
    "combined_loss",
    "cross_entropy",
    "fuse",
    "triplet_loss",
    "MultimodalDataset",
    "SynthConfig",
    "generate",
    "__version__",
]
