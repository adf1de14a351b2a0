"""Single-instance SGD for linear hash functions under a tanh relaxation.

The model is a linear map W in R^{d x r} with bias b in R^r.  The hard
hash sign(W.T x + b) is relaxed to a = tanh(W.T x + b) and fitted to the
{-1,+1} target code t of the instance's class by squared error

    L(x) = || a - t ||^2,        batch mean over n instances.

One update step of plain gradient descent with rate eta:

    E      = (a - t) * (1 - a * a)          (elementwise)
    grad_W = (2/n) X.T E,   grad_b = (2/n) sum_rows(E)
    W     -= eta * grad_W,  b     -= eta * grad_b

where 1 - a*a is the derivative of tanh.  The alternative factor
(1 - a) * a sometimes seen for this update is the *sigmoid* derivative
form; it is not the derivative of tanh and fails finite-difference
verification, but is available via ``gradient="sigmoid"`` for
comparison runs.  The constant 2 from the squared norm stays inside the
gradient rather than being folded into eta, so quoted learning rates
mean what they say.

A batch is an (n, d) block of feature rows.  Blocks of one row are the
intended streaming mode; larger n averages the per-instance gradients,
so repeating every row of a block the same number of times changes
nothing and row order within a block never matters.  Feature values are
not checked for finiteness here: ``data.stream`` checks the training
rows once, and a non-finite update still stops with NumericFailureError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericFailureError
from .hadamard import HadamardCodebook
from .lsh import LshReducer, TargetCodeTable

GRADIENT_FACTORS = ("exact", "sigmoid")


@dataclass
class HashModel:
    """Learned projection W (d x r), bias b (r), and training state."""

    weights: np.ndarray
    bias: np.ndarray
    eta: float
    round: int = 0

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def code_length(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "HashModel":
        return HashModel(self.weights.copy(), self.bias.copy(), self.eta, self.round)


def init_model(d: int, r: int, eta: float, seed: int) -> HashModel:
    """Fresh model with W and b drawn i.i.d. standard normal from ``seed``."""
    if d < 1 or r < 1:
        raise DimensionError(f"model dims must be positive, got d={d}, r={r}")
    if eta <= 0:
        raise ValueError(f"learning rate must be positive, got {eta}")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((d, r))
    bias = rng.standard_normal(r)
    return HashModel(weights=weights, bias=bias, eta=float(eta))


def _activations(model: HashModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise DimensionError(
            f"features have shape {features.shape}, expected "
            f"(n, {model.feature_dim})")
    return np.tanh(features @ model.weights + model.bias)


def relaxed_codes(model: HashModel, features: np.ndarray) -> np.ndarray:
    """tanh(W.T x + b) per instance; an (n, r) matrix with entries in (-1, 1)."""
    return _activations(model, features)


def _residual(model: HashModel, features: np.ndarray, targets: np.ndarray):
    """(features, a, a - t) for a non-empty (n, d) block and (n, r) targets."""
    features = np.asarray(features, dtype=np.float64)
    a = _activations(model, features)
    if a.shape[0] < 1:
        raise DimensionError("a batch must hold at least one feature row")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != a.shape:
        raise DimensionError(
            f"targets have shape {targets.shape}, expected {a.shape}")
    return features, a, a - targets


def loss(model: HashModel, features: np.ndarray, targets: np.ndarray) -> float:
    """Batch-mean squared error between relaxed codes and target codes."""
    features, _a, diff = _residual(model, features, targets)
    return float((diff * diff).sum() / features.shape[0])


def sgd_step(model: HashModel, features: np.ndarray, targets: np.ndarray,
             gradient: str = "exact") -> HashModel:
    """One in-place gradient step on ``model``; increments the round counter.

    ``features`` is an (n, d) block and ``targets`` its (n, r) codes.
    ``gradient="exact"`` uses the tanh derivative 1 - a^2; ``"sigmoid"``
    uses (1 - a) * a instead (see module docstring).
    """
    if gradient not in GRADIENT_FACTORS:
        raise ValueError(f"gradient must be one of {GRADIENT_FACTORS}")
    features, a, diff = _residual(model, features, targets)
    if gradient == "exact":
        factor = 1.0 - a * a
    else:
        factor = (1.0 - a) * a
    n = features.shape[0]
    err = diff * factor
    with np.errstate(invalid="ignore", over="ignore"):  # guard below reports
        grad_w = (2.0 / n) * (features.T @ err)
        grad_b = (2.0 / n) * err.sum(axis=0)
        model.weights -= model.eta * grad_w
        model.bias -= model.eta * grad_b
    model.round += 1
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise NumericFailureError(
            f"non-finite parameters after update at round {model.round}",
            round_index=model.round)
    return model


def train_stream(model: HashModel, batches, book: HadamardCodebook,
                 reducer: LshReducer, table: TargetCodeTable = None,
                 milestones=(), hook=None, gradient: str = "exact"):
    """Consume an ordered stream of (features, labels) batches, one SGD step each.

    Each batch's labels are resolved to target codes through the codebook
    and reducer (cached in ``table``), then applied with :func:`sgd_step`.
    Whenever the cumulative instance count crosses the next milestone a
    snapshot (instances_seen, model copy) is recorded and, if given,
    ``hook(instances_seen, snapshot)`` is invoked.  Returns the final
    model and the list of snapshots.
    """
    if table is None:
        table = TargetCodeTable(out_dim=model.code_length)
    milestones = sorted(int(m) for m in milestones)
    next_ms = 0
    seen = 0
    snapshots = []
    for features, labels in batches:
        targets = np.stack(
            [table.target_for(label, book, reducer) for label in labels]
        ).astype(np.float64)
        sgd_step(model, features, targets, gradient=gradient)
        seen += len(labels)
        if next_ms < len(milestones) and seen >= milestones[next_ms]:
            while next_ms < len(milestones) and milestones[next_ms] <= seen:
                next_ms += 1
            snap = model.copy()
            snapshots.append((seen, snap))
            if hook is not None:
                hook(seen, snap)
    return model, snapshots
