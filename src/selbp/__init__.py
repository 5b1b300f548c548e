"""Selective-backprop minibatch subset selection.

Forward-propagate M examples, backpropagate a chosen subset of m. Three
strategies are provided behind one interface: uniform random, loss-based
(keep probability CDF(loss)^(M/m)), and gradient matching via orthogonal
matching pursuit on the Gram matrix of last-layer gradients.
"""

from .errors import (
    BadFraction,
    DegenerateWeights,
    DimensionMismatch,
    EmptySelection,
    SelbpError,
    TrainingDiverged,
)
from .gram import BatchTape, gram_explicit, gram_implicit, mean_correlations
from .model import (
    Mlp,
    forward_tape,
    last_layer_grad_check,
    per_example_grads,
    weighted_backward,
)
from .omp import OmpConfig, Selection, omp_dense_oracle, omp_gram, residual_norm_sq
from .selection import (
    LossBuffer,
    StrategyConfig,
    empirical_cdf,
    normalize_weights,
    select_grad_match,
    select_loss_based,
    select_random,
)
from .trainer import (
    MetricsRecord,
    TrainConfig,
    apply_label_noise,
    cost_units,
    lr_at,
    resolve_batch_sizes,
    run_training,
    sgd_update,
)
from .config import ExperimentSpec, dump_config, load_config, parse_config_text
from .data import DatasetDescriptor, build_dataset
from .evalgrad import full_dataset_gradient, gradient_error_experiment

__version__ = "0.1.0"
