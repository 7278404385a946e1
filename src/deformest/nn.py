"""Two-hidden-layer ReLU network estimating full displacement fields.

The network maps the flattened displacements of the observation vertices to
the flattened displacements of all free vertices (vertex-major layout, x, y,
z within each vertex). Both hidden layers use ReLU; the output layer is
linear. Each weight matrix carries its bias weights in column 0, fed by a
constant 1. The three matrices are row-major views into one flat float64
parameter vector (w_hidden1, w_hidden2, w_out, in that order); the gradient
and both Adam moments use the same flat layout, so that each step of an
update is one pass over one vector.

Training is mini-batch gradient descent with Adam: each epoch shuffles the
training set with a seeded generator, partitions it into floor(m / batch)
batches (remainder dropped), and performs a fixed number of consecutive
updates on each batch. The step size is 1 / (gamma * epoch), constant within
an epoch. The data term of the cost is the mean over the batch of the
half-squared output error; each weight matrix adds an L2 penalty
lambda / (2 n) * sum(w^2) over its non-bias entries, n being their count. In
the flat layout the penalty is 1/2 * sum(c * w^2), with one weight c per
parameter: lambda / n on a non-bias entry, 0 on a bias column. Adam runs in
the efficient form of Kingma & Ba (ICLR 2015, end of section 2), which folds
both bias corrections into the step size and the denominator guard.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _blas
from .mesh import _count, _finite_number, _is_integer

__all__ = [
    "MlpModel",
    "ForwardCache",
    "AdamState",
    "TrainConfig",
    "TrainingLog",
    "init_model",
    "relu",
    "forward_batch",
    "cost",
    "gradients",
    "adam_step",
    "alpha_schedule",
    "train",
    "predict",
    "save_model",
    "load_model",
]


def relu(z):
    return np.maximum(z, 0.0)


def _shapes(layer_sizes) -> tuple:
    """The (rows, columns) of the three weight matrices, bias column included."""
    n_in, h1, h2, n_out = layer_sizes
    return (h1, n_in + 1), (h2, h1 + 1), (n_out, h2 + 1)


def _split(vector: np.ndarray, shapes) -> tuple:
    """Row-major views of consecutive pieces of a flat vector, one per shape."""
    views, start = [], 0
    for rows, cols in shapes:
        views.append(vector[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return tuple(views)


@dataclass
class MlpModel:
    """Weights of the estimator; column 0 of each matrix holds bias weights.

    The matrices are views into ``_params``, one flat float64 vector that
    holds copies of the given weights: an in-place write to a matrix shows in
    the vector, and the reverse. Write into a matrix (``model.w_out[...] =``)
    rather than rebinding the attribute, which would break that link. A copy
    or an unpickled model gets a vector of its own.
    """

    w_hidden1: np.ndarray  # (n_h1, n_in + 1)
    w_hidden2: np.ndarray  # (n_h2, n_h1 + 1)
    w_out: np.ndarray      # (n_out, n_h2 + 1)
    _params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h1, h2, out = (np.asarray(w, dtype=np.float64)
                       for w in (self.w_hidden1, self.w_hidden2, self.w_out))
        if (
            any(w.ndim != 2 for w in (h1, h2, out))
            or h2.shape[1] != h1.shape[0] + 1
            or out.shape[1] != h2.shape[0] + 1
        ):
            raise ValueError(
                f"inconsistent layer shapes: {h1.shape}, {h2.shape}, {out.shape}"
            )
        for name, w in (("w_hidden1", h1), ("w_hidden2", h2), ("w_out", out)):
            if not np.isfinite(w).all():
                raise ValueError(f"{name} contains non-finite entries")
        self._params = np.empty(h1.size + h2.size + out.size)
        views = _split(self._params, (h1.shape, h2.shape, out.shape))
        for view, w in zip(views, (h1, h2, out)):
            view[...] = w
        self.w_hidden1, self.w_hidden2, self.w_out = views

    def __reduce__(self):
        # rebuilt from its matrices, a copy's matrices share one new vector;
        # copied attribute by attribute, they would not
        return MlpModel, self.weights()

    @property
    def layer_sizes(self) -> tuple:
        return (
            self.w_hidden1.shape[1] - 1,
            self.w_hidden1.shape[0],
            self.w_hidden2.shape[0],
            self.w_out.shape[0],
        )

    def weights(self) -> tuple:
        return self.w_hidden1, self.w_hidden2, self.w_out


def init_model(n_in: int, n_hidden1: int, n_hidden2: int, n_out: int, rng) -> MlpModel:
    """Seeded uniform initialization in +-1/sqrt(fan_in), fan_in = columns incl. bias."""
    if min(n_in, n_hidden1, n_hidden2, n_out) < 1:
        raise ValueError(f"layer sizes must be >= 1, got {(n_in, n_hidden1, n_hidden2, n_out)}")

    def draw(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    return MlpModel(
        w_hidden1=draw(n_hidden1, n_in + 1),
        w_hidden2=draw(n_hidden2, n_hidden1 + 1),
        w_out=draw(n_out, n_hidden2 + 1),
    )


def _with_bias(x: np.ndarray) -> np.ndarray:
    """Prepend the constant bias input 1 (column-wise for batches)."""
    if x.ndim == 1:
        out = np.empty(x.size + 1)
        out[0] = 1.0
        out[1:] = x
        return out
    return np.hstack([np.ones((x.shape[0], 1)), x])


@dataclass
class ForwardCache:
    """Pre-activations and activations of one forward pass."""

    inputs: np.ndarray
    z_hidden1: np.ndarray
    a_hidden1: np.ndarray
    z_hidden2: np.ndarray
    a_hidden2: np.ndarray
    outputs: np.ndarray


def forward_batch(model: MlpModel, x: np.ndarray) -> ForwardCache:
    """Forward pass for a batch (m, n_in) of input rows.

    It runs on numpy's OpenBLAS pinned to one thread, so that its bits do not
    depend on the thread count and no OpenBLAS thread is left spinning on a
    core that other threads need. :func:`predict` runs one row's products on
    a path of its own, which keeps no cache.
    """
    x = np.asarray(x, dtype=np.float64)
    n_in = model.w_hidden1.shape[1] - 1
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"expected (m, {n_in}) inputs, got {x.shape}")
    with _blas.one_thread("numpy"):
        z1 = _with_bias(x) @ model.w_hidden1.T
        a1 = relu(z1)
        z2 = _with_bias(a1) @ model.w_hidden2.T
        a2 = relu(z2)
        out = _with_bias(a2) @ model.w_out.T
    return ForwardCache(inputs=x, z_hidden1=z1, a_hidden1=a1, z_hidden2=z2, a_hidden2=a2, outputs=out)


@functools.lru_cache(maxsize=4)
def _l2_weights(layer_sizes: tuple, lambdas: tuple) -> np.ndarray:
    """Read-only weight c of the L2 term for each entry of the flat parameter vector.

    lambda / n on each of a matrix's n non-bias entries, 0 on its bias column;
    :func:`cost` adds 1/2 * sum(c * w^2) and :func:`gradients` adds c * w.
    The vectors of the last four (layer sizes, lambdas) pairs are kept and
    shared by every caller, concurrent trials included.
    """
    shapes = _shapes(layer_sizes)
    c = np.zeros(sum(rows * cols for rows, cols in shapes))
    for lam, part in zip(lambdas, _split(c, shapes)):
        if lam:
            part[:, 1:] = lam / part[:, 1:].size
    c.flags.writeable = False
    return c


def cost(model: MlpModel, x: np.ndarray, y: np.ndarray, lambdas=(0.1, 0.1, 0.1)) -> float:
    """Mean half-squared error over the (m, n_in) batch plus the L2 penalties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = forward_batch(model, x).outputs
    if y.shape != out.shape:
        raise ValueError(f"target shape {y.shape} != {out.shape}")
    data_term = 0.5 * np.sum((out - y) ** 2) / x.shape[0]
    reg = 0.0
    if any(lambdas):
        w = model._params
        # 1/2 * sum(c * w^2), in one pass and without a temporary vector
        reg = 0.5 * np.einsum("i,i,i->", _l2_weights(model.layer_sizes, tuple(lambdas)), w, w)
    return float(data_term + reg)


class _Gradients(tuple):
    """What :func:`gradients` returns: one array per weight matrix, each a view
    into ``vector``, the whole gradient in the flat parameter layout."""

    vector: np.ndarray


class _GradientWorkspace:
    """The arrays one :func:`gradients` call writes, for one shape and batch size.

    Column 0 of the bias-augmented input and activations holds the constant 1.
    grad is the gradient in the model's flat parameter layout, and grads its
    per-matrix views.
    """

    def __init__(self, model: MlpModel, m: int):
        n_in, h1, h2, n_out = model.layer_sizes
        self.x, self.a1, self.a2 = (np.ones((m, n + 1)) for n in (n_in, h1, h2))
        self.z1, self.d1, self.z2, self.d2 = (np.empty((m, n)) for n in (h1, h1, h2, h2))
        self.mask1, self.mask2 = np.empty((m, h1), bool), np.empty((m, h2), bool)
        self.out = np.empty((m, n_out))  # outputs, then the output error
        self.grad = np.empty_like(model._params)
        self.grads = _Gradients(_split(self.grad, _shapes(model.layer_sizes)))
        self.grads.vector = self.grad


def gradients(model: MlpModel, x: np.ndarray, y: np.ndarray, lambdas=(0.1, 0.1, 0.1),
              work: _GradientWorkspace | None = None) -> tuple:
    """Exact gradients of :func:`cost` for each weight matrix.

    The output-layer error is (output - target) / m for a batch of m rows; it
    back-propagates through the linear output layer and the ReLU masks, so
    each gradient product already holds the batch mean. The L2 term c * w
    (see :func:`_l2_weights`) is added in one pass over the flat vector. The
    gradients are views into one flat vector of ``work`` (a fresh workspace
    when None) and stay valid until its next use.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_in, _, _, n_out = model.layer_sizes
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"expected (m, {n_in}) inputs, got {x.shape}")
    if y.shape != (x.shape[0], n_out):
        raise ValueError(f"target shape {y.shape} != ({x.shape[0]}, {n_out})")
    m = x.shape[0]
    if work is None:
        work = _GradientWorkspace(model, m)
    elif work.x.shape[0] != m:
        raise ValueError(f"workspace holds {work.x.shape[0]} rows, the batch {m}")
    w_h1, w_h2, w_out = model.weights()

    # the forward pass of forward_batch
    np.copyto(work.x[:, 1:], x)
    np.matmul(work.x, w_h1.T, out=work.z1)
    np.maximum(work.z1, 0.0, out=work.a1[:, 1:])
    np.matmul(work.a1, w_h2.T, out=work.z2)
    np.maximum(work.z2, 0.0, out=work.a2[:, 1:])
    delta_out = np.matmul(work.a2, w_out.T, out=work.out)

    np.subtract(delta_out, y, out=delta_out)                       # (m, n_out)
    np.divide(delta_out, m, out=delta_out)
    delta_h2 = np.matmul(delta_out, w_out[:, 1:], out=work.d2)
    np.multiply(delta_h2, np.greater(work.z2, 0.0, out=work.mask2), out=delta_h2)
    delta_h1 = np.matmul(delta_h2, w_h2[:, 1:], out=work.d1)
    np.multiply(delta_h1, np.greater(work.z1, 0.0, out=work.mask1), out=delta_h1)

    for g, delta, a in zip(work.grads, (delta_h1, delta_h2, delta_out), (work.x, work.a1, work.a2)):
        np.matmul(delta.T, a, out=g)

    if any(lambdas):
        work.grad += _l2_weights(model.layer_sizes, tuple(lambdas)) * model._params
    return work.grads


@dataclass
class AdamState:
    """First and second moments, flat in the model's parameter layout, and the step count.

    scratch is one more vector of that size, for the intermediate terms of
    :func:`adam_step`.
    """

    first: np.ndarray
    second: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.first)

    @classmethod
    def zeros(cls, model: MlpModel) -> "AdamState":
        return cls(first=np.zeros_like(model._params), second=np.zeros_like(model._params))


# Adam's moment decay rates and denominator guard, at their published values
# (Kingma & Ba, "Adam", ICLR 2015)
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


def adam_step(state: AdamState, model: MlpModel, grads: tuple, alpha: float):
    """One Adam update, in place on both the state and the model weights.

    grads holds one gradient per weight matrix, as :func:`gradients` returns
    them. The update runs in Kingma & Ba's efficient form, over the flat
    vectors:

        alpha_t = alpha * sqrt(1 - beta2^t) / (1 - beta1^t)
        eps_hat = epsilon * sqrt(1 - beta2^t)
        w -= m / (sqrt(v) + eps_hat) * alpha_t

    which is alpha * m_hat / (sqrt(v_hat) + epsilon) with m_hat and v_hat the
    bias-corrected moments, up to rounding, at one square root and one
    division per weight. Each term is one pass, written into the state's
    scratch vector.
    """
    shapes = [np.shape(g) for g in grads]
    if shapes != [w.shape for w in model.weights()]:
        raise ValueError(f"gradient shapes {shapes} != weight shapes "
                         f"{[w.shape for w in model.weights()]}")
    if isinstance(grads, _Gradients):
        g = grads.vector
    else:
        g = np.concatenate([np.ravel(np.asarray(x, dtype=np.float64)) for x in grads])
    state.t += 1
    t = state.t
    alpha_t = alpha * math.sqrt(1.0 - _BETA2**t) / (1.0 - _BETA1**t)
    eps_hat = _EPSILON * math.sqrt(1.0 - _BETA2**t)
    m, v, s = state.first, state.second, state.scratch
    m *= _BETA1
    m += np.multiply(1.0 - _BETA1, g, out=s)
    v *= _BETA2
    v += np.multiply(np.multiply(1.0 - _BETA2, g, out=s), g, out=s)
    np.sqrt(v, out=s)
    s += eps_hat
    np.divide(m, s, out=s)
    s *= alpha_t
    model._params -= s


def alpha_schedule(epoch: int, gamma: float = 50.0) -> float:
    """Step size 1 / (gamma * epoch); epochs are 1-based."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return 1.0 / (gamma * epoch)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 100
    inner_iters: int = 10
    gamma: float = 50.0
    lambdas: tuple = (0.1, 0.1, 0.1)
    seed: int = 0
    log_every: int = 100  # updates between curve points; 0 disables intermediate points
    hidden: tuple | None = (90, 90)  # hidden layer widths; None: both the free-vertex count

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("inner_iters", 1), ("seed", 0),
                            ("log_every", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), least, name))
        lambdas = self.lambdas
        if not (isinstance(lambdas, (list, tuple)) and len(lambdas) == 3
                and all(_finite_number(lam) and lam >= 0 for lam in lambdas)):
            raise ValueError(f"lambdas must be three finite non-negative numbers, got {lambdas!r}")
        object.__setattr__(self, "lambdas", tuple(lambdas))
        if not (_finite_number(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        hidden = self.hidden
        if hidden is not None:
            if not (isinstance(hidden, (list, tuple)) and len(hidden) == 2
                    and all(_is_integer(h) and h >= 1 for h in hidden)):
                raise ValueError(f"hidden must be two integers >= 1 or None, got {hidden!r}")
            object.__setattr__(self, "hidden", tuple(int(h) for h in hidden))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambdas"] = list(self.lambdas)
        if self.hidden is not None:
            d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class TrainingLog:
    """What :func:`train` records.

    curve holds (update, test RMSE mm) pairs, taken every ``log_every``
    updates (never when it is 0) and after the last one, when a test set is
    given; it stays empty otherwise. epoch_mean_cost holds, per epoch, the mean over its batches of
    the cost after the batch's last update.
    """

    curve: list = field(default_factory=list)
    epoch_mean_cost: list = field(default_factory=list)


def _rmse_mm(model: MlpModel, x: np.ndarray, y: np.ndarray, mm_per_unit: float) -> float:
    out = forward_batch(model, x).outputs
    return float(np.sqrt(np.mean((out - y) ** 2)) * mm_per_unit)


def train(dataset, train_idx, config: TrainConfig, test_idx=None) -> tuple:
    """Train an estimator on the given dataset rows; returns (model, log).

    The hidden layers are config.hidden wide, or dataset.n_free each when it
    is None. Weight initialization and the per-epoch shuffles come from one
    generator seeded with config.seed, so identical inputs give identical
    weights. The updates run with numpy's OpenBLAS on one thread, and the
    caller's count is given back after: the weights then do not depend on how
    many threads train at once.
    """
    x_all = dataset.inputs()
    y_all = dataset.targets()
    train_idx = np.asarray(train_idx, dtype=np.int64)
    x_test = y_test = None
    if test_idx is not None and len(test_idx):
        test_idx = np.asarray(test_idx, dtype=np.int64)
        x_test, y_test = x_all[test_idx], y_all[test_idx]

    m = len(train_idx)
    n_batches = m // config.batch_size
    if n_batches < 1:
        raise ValueError(
            f"training set of {m} samples cannot fill one batch of {config.batch_size}"
        )

    hidden = (dataset.n_free, dataset.n_free) if config.hidden is None else config.hidden
    rng = np.random.default_rng(config.seed)
    model = init_model(x_all.shape[1], *hidden, y_all.shape[1], rng)
    state = AdamState.zeros(model)
    work = _GradientWorkspace(model, config.batch_size)
    log = TrainingLog()
    total_updates = config.epochs * n_batches * config.inner_iters

    with _blas.one_thread("numpy"):
        for epoch in range(1, config.epochs + 1):
            alpha = alpha_schedule(epoch, config.gamma)
            perm = rng.permutation(m)  # remainder after the last full batch is dropped
            epoch_costs = []
            for b in range(n_batches):
                rows = train_idx[perm[b * config.batch_size : (b + 1) * config.batch_size]]
                xb, yb = x_all[rows], y_all[rows]
                for _ in range(config.inner_iters):
                    grads = gradients(model, xb, yb, config.lambdas, work)
                    adam_step(state, model, grads, alpha)
                    t = state.t
                    if x_test is not None and (
                        t == total_updates or config.log_every and t % config.log_every == 0
                    ):
                        log.curve.append((t, _rmse_mm(model, x_test, y_test,
                                                      dataset.mm_per_unit)))
                epoch_costs.append(cost(model, xb, yb, config.lambdas))
            mean_cost = float(np.mean(epoch_costs))
            if not np.isfinite(mean_cost):
                raise ValueError(f"training diverged: mean cost of epoch {epoch} is {mean_cost}")
            log.epoch_mean_cost.append(mean_cost)

    return model, log


def predict(model: MlpModel, observation_disp: np.ndarray) -> np.ndarray:
    """Estimate the (n_free, 3) field from (n_obs, 3) observation displacements.

    The observation rows must follow the observation order the model was
    trained with. Each layer is one matrix-vector product of its stored
    (out, in + 1) weights with a bias-augmented vector (entry 0 is 1), on
    numpy's OpenBLAS unpinned. That is the product :func:`forward_batch`
    runs for a batch of one row, so the field has the same bits; predict
    leaves out its transposed views, its pin and its cache.
    """
    obs = np.asarray(observation_disp, dtype=np.float64)
    w_h1, w_h2, w_out = model.weights()
    n_in = w_h1.shape[1] - 1
    if obs.ndim != 2 or obs.shape[1] != 3 or obs.shape[0] * 3 != n_in:
        raise ValueError(f"expected ({n_in // 3}, 3) observation displacements, got {obs.shape}")
    x = _with_bias(obs.reshape(-1))
    # a float sum of the entries is finite when every entry is, unless it overflows (then the
    # exact test decides); unlike numpy's sums and products, it sets off no overflow warning
    if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
        raise ValueError("observation displacements contain non-finite values")
    for w in (w_h1, w_h2):
        x = _with_bias(relu(w @ x))
    return (w_out @ x).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Model file: JSON with full-precision weights and provenance metadata
# ---------------------------------------------------------------------------

def save_model(
    model: MlpModel,
    path,
    observation_ids=None,
    mesh_hash: str | None = None,
    mm_per_unit: float | None = None,
    train_config: TrainConfig | None = None,
    metrics: dict | None = None,
):
    doc = {
        "format": "deformest-model",
        "version": 1,
        "layer_sizes": list(model.layer_sizes),
        "w_hidden1": model.w_hidden1.tolist(),
        "w_hidden2": model.w_hidden2.tolist(),
        "w_out": model.w_out.tolist(),
        "observation_ids": None if observation_ids is None else [int(i) for i in observation_ids],
        "mesh_hash": mesh_hash,
        "mm_per_unit": mm_per_unit,
        "train_config": None if train_config is None else train_config.to_dict(),
        "metrics": metrics,
    }
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> tuple:
    """Returns (model, metadata dict with observation_ids/mesh_hash/etc.)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "deformest-model":
        raise ValueError(f"{path}: not a model file")
    missing = [k for k in ("layer_sizes", "w_hidden1", "w_hidden2", "w_out") if k not in doc]
    if missing:
        raise ValueError(f"{path}: model file lacks {', '.join(missing)}")
    try:
        model = MlpModel(doc["w_hidden1"], doc["w_hidden2"], doc["w_out"])
    except (TypeError, ValueError) as exc:  # TypeError: a weight that is a JSON object
        raise ValueError(f"{path}: {exc}") from None
    if list(model.layer_sizes) != doc["layer_sizes"]:
        raise ValueError(f"{path}: layer_sizes do not match stored weights")
    meta = {
        "observation_ids": doc.get("observation_ids"),
        "mesh_hash": doc.get("mesh_hash"),
        "mm_per_unit": doc.get("mm_per_unit"),
        "train_config": doc.get("train_config"),
        "metrics": doc.get("metrics"),
    }
    return model, meta
