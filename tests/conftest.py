import numpy as np
import pytest

from selbp.model import forward_tape, weighted_backward
from selbp.selection import Selection
from selbp.trainer import lr_at, sgd_update


def _plain_sgd(cfg, dataset, model):
    """Minibatch SGD written without ``run_training`` but drawing the same
    permutations from the same RNG; trains ``model`` and returns its parameters."""
    rng = np.random.default_rng(cfg.seed)
    theta = model.get_params()
    vel = np.zeros_like(theta)
    N = dataset.X_train.shape[0]
    for epoch in range(cfg.total_epochs):
        lr = lr_at(cfg, epoch)
        perm = rng.permutation(N)
        for start in range(0, N, cfg.base_batch):
            b = perm[start : start + cfg.base_batch]
            Xb, yb = dataset.X_train[b], dataset.y_train[b]
            tape = forward_tape(model, Xb, yb)
            sel = Selection(np.arange(len(b)), np.ones(len(b)))
            g = weighted_backward(model, Xb, yb, sel, tape=tape) + cfg.weight_decay * theta
            theta, vel = sgd_update(theta, vel, g, lr, cfg.momentum, cfg.nesterov)
            model.set_params(theta)
    return model.get_params()


@pytest.fixture
def plain_sgd_reference():
    """The plain-SGD reference that training at fraction 1 must equal bit for bit."""
    return _plain_sgd
