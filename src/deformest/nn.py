"""Two-hidden-layer ReLU network estimating full displacement fields.

The network maps the flattened displacements of the observation vertices to
the flattened displacements of all free vertices (vertex-major layout, x, y,
z within each vertex). Both hidden layers use ReLU; the output layer is
linear. Each weight matrix carries its bias weights in column 0, fed by a
constant 1.

Training is mini-batch gradient descent with Adam: each epoch shuffles the
training set with a seeded generator, partitions it into floor(m / batch)
batches (remainder dropped), and performs a fixed number of consecutive
updates on each batch. The step size is 1 / (gamma * epoch), constant within
an epoch. The data term of the cost is the mean over the batch of the
half-squared output error; each weight matrix adds an L2 penalty
lambda / (2 n) * sum(w^2) over its non-bias entries, n being their count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "MlpModel",
    "ForwardCache",
    "AdamState",
    "TrainConfig",
    "TrainingLog",
    "init_model",
    "relu",
    "relu_grad",
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


def relu_grad(z):
    """Derivative of ReLU; 0 at z = 0 by convention."""
    return (z > 0.0).astype(np.float64)


@dataclass
class MlpModel:
    """Weights of the estimator; column 0 of each matrix holds bias weights."""

    w_hidden1: np.ndarray  # (n_h1, n_in + 1)
    w_hidden2: np.ndarray  # (n_h2, n_h1 + 1)
    w_out: np.ndarray      # (n_out, n_h2 + 1)

    def __post_init__(self):
        self.w_hidden1 = np.asarray(self.w_hidden1, dtype=np.float64)
        self.w_hidden2 = np.asarray(self.w_hidden2, dtype=np.float64)
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        h1, h2, out = self.w_hidden1, self.w_hidden2, self.w_out
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
        return np.concatenate([[1.0], x])
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
    """Forward pass for one input row (n_in,) or a batch (m, n_in) of rows.

    The activations and outputs keep the input's rank.
    """
    x = np.asarray(x, dtype=np.float64)
    n_in = model.w_hidden1.shape[1] - 1
    if x.ndim not in (1, 2) or x.shape[-1] != n_in:
        raise ValueError(f"expected ({n_in},) or (m, {n_in}) inputs, got {x.shape}")
    z1 = _with_bias(x) @ model.w_hidden1.T
    a1 = relu(z1)
    z2 = _with_bias(a1) @ model.w_hidden2.T
    a2 = relu(z2)
    out = _with_bias(a2) @ model.w_out.T
    return ForwardCache(inputs=x, z_hidden1=z1, a_hidden1=a1, z_hidden2=z2, a_hidden2=a2, outputs=out)


def _regularizer_counts(model: MlpModel) -> tuple:
    # non-bias element count per matrix
    return tuple(w.shape[0] * (w.shape[1] - 1) for w in model.weights())


def cost(model: MlpModel, x: np.ndarray, y: np.ndarray, lambdas=(0.1, 0.1, 0.1)) -> float:
    """Mean half-squared error over the batch plus the L2 penalties."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape != (x.shape[0], model.layer_sizes[3]):
        raise ValueError(f"target shape {y.shape} != ({x.shape[0]}, {model.layer_sizes[3]})")
    out = forward_batch(model, x).outputs
    data_term = 0.5 * np.sum((out - y) ** 2) / x.shape[0]
    reg = 0.0
    for lam, n, w in zip(lambdas, _regularizer_counts(model), model.weights()):
        if lam:
            reg += lam / (2.0 * n) * np.sum(w[:, 1:] ** 2)
    return float(data_term + reg)


def gradients(model: MlpModel, x: np.ndarray, y: np.ndarray, lambdas=(0.1, 0.1, 0.1)) -> tuple:
    """Exact gradients of :func:`cost` for each weight matrix.

    The output-layer error is (output - target); it back-propagates through
    the linear output layer and the ReLU masks. Regularization gradients
    touch non-bias entries only.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape != (x.shape[0], model.layer_sizes[3]):
        raise ValueError(f"target shape {y.shape} != ({x.shape[0]}, {model.layer_sizes[3]})")
    m = x.shape[0]
    cache = forward_batch(model, x)

    delta_out = cache.outputs - y                                   # (m, n_out)
    delta_h2 = (delta_out @ model.w_out[:, 1:]) * relu_grad(cache.z_hidden2)
    delta_h1 = (delta_h2 @ model.w_hidden2[:, 1:]) * relu_grad(cache.z_hidden1)

    g_out = delta_out.T @ _with_bias(cache.a_hidden2) / m
    g_h2 = delta_h2.T @ _with_bias(cache.a_hidden1) / m
    g_h1 = delta_h1.T @ _with_bias(cache.inputs) / m

    for g, lam, n, w in zip(
        (g_h1, g_h2, g_out), lambdas, _regularizer_counts(model), model.weights()
    ):
        if lam:
            g[:, 1:] += (lam / n) * w[:, 1:]
    return g_h1, g_h2, g_out


@dataclass
class AdamState:
    """Per-matrix first and second moment accumulators and the step counter."""

    first: tuple
    second: tuple
    t: int = 0

    @classmethod
    def zeros(cls, model: MlpModel) -> "AdamState":
        return cls(
            first=tuple(np.zeros_like(w) for w in model.weights()),
            second=tuple(np.zeros_like(w) for w in model.weights()),
        )


# Adam's moment decay rates and denominator guard, at their published values
# (Kingma & Ba, "Adam", ICLR 2015)
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


def adam_step(state: AdamState, model: MlpModel, grads: tuple, alpha: float):
    """One Adam update, in place on both the state and the model weights."""
    state.t += 1
    t = state.t
    for w, g, m, v in zip(model.weights(), grads, state.first, state.second):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != weight shape {w.shape}")
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        w -= alpha * m_hat / (np.sqrt(v_hat) + _EPSILON)


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
        if min(self.epochs, self.batch_size, self.inner_iters) < 1:
            raise ValueError("epochs, batch_size and inner_iters must be >= 1")
        if any(lam < 0 for lam in self.lambdas) or len(self.lambdas) != 3:
            raise ValueError("lambdas must be three non-negative values")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.hidden is not None and (len(self.hidden) != 2 or min(self.hidden) < 1):
            raise ValueError(f"hidden must be two sizes >= 1 or None, got {self.hidden}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambdas"] = list(self.lambdas)
        if self.hidden is not None:
            d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "lambdas" in d:
            d["lambdas"] = tuple(d["lambdas"])
        if d.get("hidden") is not None:
            d["hidden"] = tuple(int(h) for h in d["hidden"])
        return cls(**d)


@dataclass
class TrainingLog:
    """What :func:`train` records.

    curve holds (update, test RMSE mm) pairs, taken every ``log_every``
    updates and after the last one, when a test set is given; it stays empty
    otherwise. epoch_mean_cost holds, per epoch, the mean over its batches of
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
    weights.
    """
    x_all = dataset.inputs()
    y_all = dataset.targets()
    train_idx = np.asarray(train_idx, dtype=np.int64)
    x_train, y_train = x_all[train_idx], y_all[train_idx]
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
    log = TrainingLog()
    total_updates = config.epochs * n_batches * config.inner_iters

    for epoch in range(1, config.epochs + 1):
        alpha = alpha_schedule(epoch, config.gamma)
        perm = rng.permutation(m)  # remainder after the last full batch is dropped
        epoch_costs = []
        for b in range(n_batches):
            sel = perm[b * config.batch_size : (b + 1) * config.batch_size]
            xb, yb = x_train[sel], y_train[sel]
            for _ in range(config.inner_iters):
                grads = gradients(model, xb, yb, config.lambdas)
                adam_step(state, model, grads, alpha)
                t = state.t
                if x_test is not None and config.log_every and (
                    t % config.log_every == 0 or t == total_updates
                ):
                    log.curve.append((t, _rmse_mm(model, x_test, y_test, dataset.mm_per_unit)))
            epoch_costs.append(cost(model, xb, yb, config.lambdas))
        mean_cost = float(np.mean(epoch_costs))
        if not np.isfinite(mean_cost):
            raise ValueError(f"training diverged: mean cost of epoch {epoch} is {mean_cost}")
        log.epoch_mean_cost.append(mean_cost)

    return model, log


def predict(model: MlpModel, observation_disp: np.ndarray) -> np.ndarray:
    """Estimate the (n_free, 3) field from (n_obs, 3) observation displacements.

    The observation rows must follow the observation order the model was
    trained with.
    """
    obs = np.asarray(observation_disp, dtype=np.float64)
    n_in = model.layer_sizes[0]
    if obs.ndim != 2 or obs.shape[1] != 3 or obs.shape[0] * 3 != n_in:
        raise ValueError(f"expected ({n_in // 3}, 3) observation displacements, got {obs.shape}")
    if not np.isfinite(obs).all():
        raise ValueError("observation displacements contain non-finite values")
    return forward_batch(model, obs.reshape(-1)).outputs.reshape(-1, 3)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


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
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if list(model.layer_sizes) != list(doc["layer_sizes"]):
        raise ValueError(f"{path}: layer_sizes do not match stored weights")
    meta = {
        "observation_ids": doc.get("observation_ids"),
        "mesh_hash": doc.get("mesh_hash"),
        "mm_per_unit": doc.get("mm_per_unit"),
        "train_config": doc.get("train_config"),
        "metrics": doc.get("metrics"),
    }
    return model, meta
