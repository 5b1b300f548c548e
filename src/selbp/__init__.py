"""Selective-backprop minibatch subset selection.

Forward-propagate M examples, backpropagate a chosen subset of m. Three
strategies are provided behind one interface: uniform random, loss-based
(keep probability CDF(loss)^(M/m)), and gradient matching via orthogonal
matching pursuit on the Gram matrix of last-layer gradients.

The package exports what the README's library sketch and the demos use;
every other name, the error types included, is imported from its module.
"""

from .model import Mlp, forward_tape, gram_implicit, per_example_grads, weighted_backward
from .selection import StrategyConfig, select_grad_match, select_loss_based, select_random
from .trainer import TrainConfig, run_training
from .data import DatasetDescriptor, build_dataset
from .evalgrad import gradient_error_experiment

__version__ = "0.1.0"
