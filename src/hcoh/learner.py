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

A one-row step on a row with fewer non-zero than zero entries (pixel
rows are mostly zeros) updates only the rows of W that the non-zero
features select: grad_W is exactly zero on every other row.  Each
updated entry is computed as x_i * e_j, then scaled by 2/n, then by eta,
then subtracted, the same operations the dense x.T @ E update performs
with an inner dimension of one, so both paths give bit-identical
parameters.  The finiteness guard then checks only those rows of W, plus
b; the untouched rows are finite because W is finite when a step starts
(``init_model`` draws it and ``load_checkpoint`` rejects a non-finite
one).
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

    A single row with fewer than d/2 non-zero features takes the sparse
    path: only the rows of W at its non-zero features are updated and
    checked.  Every other block takes the dense path, which updates and
    checks all of W.  Both paths check b and give bit-identical results.
    Raises NumericFailureError, carrying the new round index, when a
    checked parameter is not finite after the update.
    """
    if gradient not in GRADIENT_FACTORS:
        raise ValueError(f"gradient must be one of {GRADIENT_FACTORS}")
    features, a, diff = _residual(model, features, targets)
    if gradient == "exact":
        factor = 1.0 - a * a
    else:
        factor = (1.0 - a) * a
    n, d = features.shape
    err = diff * factor
    x = features[0]
    sparse = n == 1 and 2 * np.count_nonzero(x) < d
    with np.errstate(invalid="ignore", over="ignore"):  # guard below reports
        if sparse:
            nz = np.flatnonzero(x)
            # eta * ((2/n) * (x_i * e_j)) in one buffer, scaled in place:
            # the same multiplies per entry, without two more k x r arrays.
            step = x[nz, None] * err
            step *= 2.0 / n
            step *= model.eta
            touched = model.weights[nz]
            touched -= step
            model.weights[nz] = touched
        else:
            model.weights -= model.eta * ((2.0 / n) * (features.T @ err))
            touched = model.weights
        model.bias -= model.eta * ((2.0 / n) * err.sum(axis=0))
    model.round += 1
    if not (np.isfinite(touched).all() and np.isfinite(model.bias).all()):
        raise NumericFailureError(
            f"non-finite parameters after update at round {model.round}",
            round_index=model.round)
    return model


def train_stream(model: HashModel, batches, book: HadamardCodebook,
                 reducer: LshReducer, table: TargetCodeTable = None,
                 milestones=(), hook=None, gradient: str = "exact") -> HashModel:
    """Consume an ordered stream of (features, labels) batches, one SGD step each.

    Each batch's labels are resolved to target codes through the codebook
    and reducer (cached in ``table``), then applied with :func:`sgd_step`.
    Whenever the cumulative instance count crosses the next milestone,
    ``hook(instances_seen, model)`` is called, if given, with the live
    model; a hook that keeps the model past its call must copy it.
    Returns the trained model, which is ``model`` updated in place.
    """
    if table is None:
        table = TargetCodeTable(out_dim=model.code_length)
    milestones = sorted(int(m) for m in milestones)
    next_ms = 0
    seen = 0
    for features, labels in batches:
        # np.array, unlike np.stack, lets an empty batch reach sgd_step.
        targets = np.array(
            [table.target_for(label, book, reducer) for label in labels],
            dtype=np.float64)
        sgd_step(model, features, targets, gradient=gradient)
        seen += len(labels)
        if next_ms < len(milestones) and seen >= milestones[next_ms]:
            while next_ms < len(milestones) and milestones[next_ms] <= seen:
                next_ms += 1
            if hook is not None:
                hook(seen, model)
    return model
