"""Single-instance SGD for linear hash functions under a tanh relaxation.

The model is a linear map W in R^{d x r} with bias b in R^r.  The hard
hash sign(W.T x + b) is relaxed to a = tanh(W.T x + b) and fitted to the
{-1,+1} target code t of the instance's class by squared error

    L(x) = || a - t ||^2,        batch mean over n instances.

One update step of plain gradient descent with rate eta:

    E      = (a - t) * (1 - a * a)          (elementwise)
    grad_W = (2/n) X.T E,   grad_b = (2/n) sum_rows(E)
    W     -= eta * grad_W,  b     -= eta * grad_b

where 1 - a*a is the derivative of tanh.  The constant 2 from the
squared norm stays inside the gradient rather than being folded into
eta, so quoted learning rates mean what they say.

A step is an (n, d) block of feature rows.  Steps of one row are the
intended streaming mode; larger n averages the per-instance gradients,
so repeating every row of a step the same number of times changes
nothing and row order within a step never matters.  float32 rows, as a
dense dataset stores them, are widened to float64 one block at a time,
so every product runs in float64.  Feature values are not checked for
finiteness here: ``data.stream`` checks the training rows once, and a
non-finite update still stops with NumericFailureError.

Consecutive steps of n rows each run as one block of k steps.  With
W_0, b_0 the parameters at the block's start, step t's pre-activations
are

    U_t = X_t W_0 + b_0 - eta (2/n) sum_{s<t} (X_t X_s.T + 1) E_s
    E_t = (tanh(U_t) - T_t) * (1 - tanh(U_t)^2)

which is the per-step loop's U_t = X_t W_t + b_t with W_t and b_t
expanded.  So a block costs one forward GEMM, one Gram matrix X X.T and
an r-sized recurrence per step; W and b then take one update each,
W -= eta (2/n) X.T E and b -= eta (2/n) sum_rows(E).  This is exact
arithmetic with a different rounding from the per-step loop (the tests
hold it to 1e-10 relative at small eta).  A block of one step is the
plain dense update, byte for byte.

``train_stream`` ends a block after BLOCK_ROWS rows, at the end of its
input, and before a step with a different row count.  A caller that
needs the model at given instance counts (the pipeline's evaluation
schedule) trains in stretches, one ``train_stream`` call each.  It
holds each step's features and labels until the block ends, and
resolves the whole block's labels to targets with one ``lsh.targets``
call (a gather from the reducer's target table) before the block's
``sgd_step``.  A block's steps are never applied to W one at a time,
so when a block leaves W or b non-finite it is replayed one step at a
time from its starting W and b, and NumericFailureError names the first
failing round (should every replayed step stay finite, the replay's
result stands).  Every step updates and checks all of W: there is no
separate sparse-row update, since a block already spreads the cost of
the dense products over its steps.
"""

from dataclasses import dataclass

import numpy as np

from . import lsh
from .errors import DimensionError, NumericFailureError
from .hadamard import HadamardCodebook

BLOCK_ROWS = 128   # rows of training steps that train_stream runs as one block


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
    if not (eta > 0 and np.isfinite(eta)):
        raise ValueError(f"learning rate must be positive and finite, got {eta}")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((d, r))
    bias = rng.standard_normal(r)
    return HashModel(weights=weights, bias=bias, eta=float(eta))


def _float_features(features) -> np.ndarray:
    """``features`` as an array: float32 and float64 as they are, else float64."""
    features = np.asarray(features)
    if features.dtype in (np.float32, np.float64):
        return features
    return features.astype(np.float64)


def _checked_features(model: HashModel, features) -> np.ndarray:
    """``features`` by :func:`_float_features`, checked to be (n, d)."""
    features = _float_features(features)
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise DimensionError(
            f"features have shape {features.shape}, expected "
            f"(n, {model.feature_dim})")
    return features


def relaxed_codes(model: HashModel, features: np.ndarray) -> np.ndarray:
    """tanh(W.T x + b) per instance; an (n, r) matrix with entries in (-1, 1)."""
    return np.tanh(_checked_features(model, features) @ model.weights
                   + model.bias)


def _checked_block(model: HashModel, features, targets):
    """(features, targets) as float64, checked to be (n, d) and (n, r), n >= 1.

    float32 rows are widened here, one step block at a time, so the Gram
    matrix and the update run in float64 whatever the storage dtype.
    """
    features = _checked_features(model, features).astype(np.float64, copy=False)
    if features.shape[0] < 1:
        raise DimensionError("a batch must hold at least one feature row")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (features.shape[0], model.code_length):
        raise DimensionError(
            f"targets have shape {targets.shape}, expected "
            f"{(features.shape[0], model.code_length)}")
    return features, targets


def loss(model: HashModel, features: np.ndarray, targets: np.ndarray) -> float:
    """Batch-mean squared error between relaxed codes and target codes."""
    features, targets = _checked_block(model, features, targets)
    diff = relaxed_codes(model, features) - targets
    return float((diff * diff).sum() / features.shape[0])


def _update(model: HashModel, features: np.ndarray, targets: np.ndarray,
            n: int) -> None:
    """Apply the block of len(features) // n steps of n rows, unchecked."""
    u = features @ model.weights
    u += model.bias
    if len(u) > n:
        # Row block t, columns < t: how the errors of earlier steps moved
        # step t's pre-activations through W and b.
        gram = features @ features.T
        gram += 1.0
        gram *= model.eta * (2.0 / n)
    err = np.empty_like(u)
    for lo in range(0, len(u), n):
        hi = lo + n
        if lo:
            u[lo:hi] -= gram[lo:hi, :lo] @ err[:lo]
        a = np.tanh(u[lo:hi])
        np.multiply(a - targets[lo:hi], 1.0 - a * a, out=err[lo:hi])
    model.weights -= model.eta * ((2.0 / n) * (features.T @ err))
    model.bias -= model.eta * ((2.0 / n) * err.sum(axis=0))
    model.round += len(u) // n


def _finite(model: HashModel) -> bool:
    return bool(np.isfinite(model.weights).all()
                and np.isfinite(model.bias).all())


def sgd_step(model: HashModel, features: np.ndarray, targets: np.ndarray,
             step_rows: int = None) -> HashModel:
    """In-place gradient steps on ``model``; adds their count to the round.

    ``features`` is an (N, d) block and ``targets`` its (N, r) codes.
    With ``step_rows=None`` this is one step over all N rows; otherwise
    each run of ``step_rows`` consecutive rows is one step, and the steps
    run as one block (see module docstring).

    Raises NumericFailureError, carrying the round index of the first
    step that leaves W or b non-finite, with the steps before it applied.
    """
    features, targets = _checked_block(model, features, targets)
    n = len(features) if step_rows is None else step_rows
    if n < 1 or len(features) % n:
        raise DimensionError(
            f"{len(features)} rows do not split into steps of {n} rows")
    blocked = len(features) > n
    if blocked:
        start = model.weights.copy(), model.bias.copy(), model.round
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        _update(model, features, targets, n)
        finite = _finite(model)
        if blocked and not finite:
            # One step at a time from the block's start, to the failing one.
            model.weights[...], model.bias[...], model.round = start
            for lo in range(0, len(features), n):
                _update(model, features[lo:lo + n], targets[lo:lo + n], n)
                finite = _finite(model)
                if not finite:
                    break
    if not finite:
        raise NumericFailureError(
            f"non-finite parameters after update at round {model.round}",
            round_index=model.round)
    return model


def train_stream(model: HashModel, batches, book: HadamardCodebook,
                 reducer: lsh.LshReducer) -> HashModel:
    """Consume an ordered stream of (features, labels) batches, one SGD step each.

    Consecutive steps run in blocks through :func:`sgd_step`, up to
    BLOCK_ROWS rows of equal-sized steps each (see module docstring).
    A block's labels are resolved to target codes by one
    :func:`lsh.targets` call just before its steps run, so labels new to
    the codebook take their columns in stream order.  A block whose
    labels cannot be resolved raises before any of its steps is applied.
    Every step of ``batches`` has been applied when the call returns, so
    a stream trained in stretches (``itertools.islice`` of one iterator,
    one call each) can be evaluated between them.
    Returns the trained model, which is ``model`` updated in place.
    """
    block = []      # (features, labels) per step, all with the same rows

    def run_block():
        if block:
            features, labels = zip(*block)
            codes = lsh.targets(np.concatenate(labels), book, reducer)
            sgd_step(model, np.concatenate(features), codes,
                     step_rows=len(labels[0]))
            block.clear()

    for features, labels in batches:
        if block and (len(labels) != len(block[0][1])
                      or len(labels) * (len(block) + 1) > BLOCK_ROWS):
            run_block()
        block.append((features, labels))
    run_block()
    return model
