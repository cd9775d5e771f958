"""centerhash: well-separated binary hash centers, a small trained hash
function over feature vectors, and Hamming-space retrieval evaluation."""

from .centers import (
    CenterSet,
    SemanticCenterMap,
    ValidityReport,
    assign_multi_label,
    generate_centers,
    generate_centers_balanced,
    generate_centers_bernoulli,
    hadamard_matrix,
    load_centers,
    save_centers,
    validate_centers,
)
from .config import RunConfig, load_run_config
from .data_io import Dataset, load_features, load_labels, save_features, save_labels
from .hamming import load_codes, save_codes
from .model import (
    EpochLog,
    HashModel,
    TrainConfig,
    backward,
    central_loss,
    encode,
    forward,
    load_model,
    quantization_loss,
    save_model,
    train,
)
from .pipeline import PipelineResult, run_pipeline
from .retrieval import (
    CodeIndex,
    EvalReport,
    center_distance_matrix,
    evaluate,
    mean_average_precision,
    pr_curve,
    precision_at_n_curve,
    precision_within_radius,
    write_report,
)
from .synthetic import make_synthetic_blobs

__version__ = "0.1.0"
