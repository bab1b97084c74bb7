"""Small dense networks trained from scratch with mini-batch gradient descent.

Everything runs on float64 numpy: forward passes, backprop, inverted dropout,
early stopping on validation accuracy, a finite-difference gradient check,
and a versioned JSON weights format. Training is bit-deterministic for a
fixed (dataset, specs, config) triple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "softmax", "identity")

_GRADIENT_CHECK_PARAM_CAP = 10_000


class DimensionMismatchError(ValueError):
    """Input or layer dimensions do not line up."""


class ModelFormatError(ValueError):
    """A weights file is malformed; the message names the offending field."""


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self) -> None:
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {self.input_dim}->{self.output_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")


@dataclass
class MlpModel:
    """Dense feed-forward stack; weights[i] has shape (out, in)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    dropout_rate: float = 0.2

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations) > 0):
            raise ValueError("weights, biases and activations must align and be non-empty")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation '{act}' at layer {i}")
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise DimensionMismatchError(f"layer {i} weight/bias shapes disagree: {w.shape} vs {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise DimensionMismatchError(
                    f"layer {i} expects {w.shape[1]} inputs but layer {i - 1} emits "
                    f"{self.weights[i - 1].shape[0]}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} contains non-finite parameters")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, features) -> np.ndarray:
        """Inference pass for a single feature vector; dropout is inactive."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 1:
            raise DimensionMismatchError(f"expected a 1-d input, got shape {x.shape}")
        return self.forward_batch(x[None, :])[0]

    def forward_batch(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_dims[0]:
            raise DimensionMismatchError(
                f"expected inputs of dimension {self.layer_dims[0]}, got shape {x.shape}")
        for w, b, act in zip(self.weights, self.biases, self.activations):
            x = _activate(x @ w.T + b, act)
        return x


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("learning_rate, batch_size, max_epochs and patience must be positive")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie strictly between 0 and 1")


@dataclass
class TrainReport:
    """Per-epoch accuracies plus where early stopping settled."""

    train_accuracy: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0

    @property
    def best_train_accuracy(self) -> float:
        return self.train_accuracy[self.best_epoch]

    @property
    def best_validation_accuracy(self) -> float:
        return self.validation_accuracy[self.best_epoch]


def _activate(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "sigmoid":
        return _sigmoid(z)
    if act == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    return z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activation_grad(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return z > 0  # multiplying by the mask equals multiplying by 1.0 / 0.0
    if act == "sigmoid":
        s = _sigmoid(z)
        return s * (1.0 - s)
    if act == "identity":
        return np.ones_like(z)
    raise ValueError(f"softmax is only supported as the output layer, not '{act}' mid-stack")


def init_model(specs: list[LayerSpec], seed_or_rng=0, dropout_rate: float = 0.2) -> MlpModel:
    """Uniform initialization in +-sqrt(6/(fan_in+fan_out)), seeded."""
    _validate_specs(specs)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    weights, biases = [], []
    for spec in specs:
        limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        weights.append(rng.uniform(-limit, limit, size=(spec.output_dim, spec.input_dim)))
        biases.append(np.zeros(spec.output_dim))
    return MlpModel(weights, biases, [s.activation for s in specs], dropout_rate)


def _validate_specs(specs: list[LayerSpec]) -> None:
    if not specs:
        raise ValueError("at least one layer is required")
    for prev, nxt in zip(specs, specs[1:]):
        if prev.output_dim != nxt.input_dim:
            raise DimensionMismatchError(
                f"layer chain broken: {prev.output_dim} outputs feed {nxt.input_dim} inputs")
    for spec in specs[:-1]:
        if spec.activation == "softmax":
            raise ValueError("softmax is only supported as the output layer")


# --- loss heads ---------------------------------------------------------------

def _head_loss(logits: np.ndarray, labels: np.ndarray, head: str) -> float:
    """Mean loss over the batch."""
    if head == "softmax":
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        return float((log_z - logits[np.arange(len(logits)), labels]).mean())
    z = logits[:, 0]
    return float((np.maximum(z, 0.0) - z * labels + np.log1p(np.exp(-np.abs(z)))).mean())


def _head_grad(logits: np.ndarray, labels: np.ndarray, head: str) -> np.ndarray:
    """Gradient of the mean loss w.r.t. the output logits."""
    n = logits.shape[0]
    if head == "softmax":
        grad = _activate(logits, "softmax")
        grad[np.arange(n), labels] -= 1.0
        return grad / n
    if head == "sigmoid":
        grad = np.zeros_like(logits)
        grad[:, 0] = (_sigmoid(logits[:, 0]) - labels) / n
        return grad
    raise ValueError(f"training requires a softmax or sigmoid output layer, got '{head}'")


def _predictions(outputs: np.ndarray, head: str) -> np.ndarray:
    if head == "softmax":
        return outputs.argmax(axis=1)
    return (outputs[:, 0] >= 0.5).astype(np.int64)


def _dataset_arrays(dataset, input_dim: int, head: str, output_dim: int) -> tuple[np.ndarray, np.ndarray]:
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    features = np.asarray([np.asarray(f, dtype=np.float64) for f, _ in dataset])
    if features.ndim != 2 or features.shape[1] != input_dim:
        raise DimensionMismatchError(
            f"dataset features have shape {features.shape}, model expects dimension {input_dim}")
    raw_labels = [label for _, label in dataset]
    if head == "softmax":
        labels = np.asarray(raw_labels, dtype=np.int64)
        if labels.min() < 0 or labels.max() >= output_dim:
            raise ValueError(f"class labels must lie in [0, {output_dim}), got range "
                             f"[{labels.min()}, {labels.max()}]")
    else:
        if output_dim != 1:
            raise DimensionMismatchError("a sigmoid training head needs exactly one output")
        raw = np.asarray(raw_labels)
        if not np.isin(raw, (0, 1)).all():
            raise ValueError("sigmoid-head labels must be 0 or 1")
        labels = raw.astype(np.int64)
    return features, labels


def _forward_cached(model: MlpModel, x: np.ndarray, rng: np.random.Generator | None):
    """Forward pass keeping per-layer caches; rng enables inverted dropout.

    Returns raw logits for the output layer; the loss heads consume logits.
    """
    caches = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b, act) in enumerate(zip(model.weights, model.biases, model.activations)):
        if rng is not None and model.dropout_rate > 0.0:
            mask = (rng.random(a.shape) >= model.dropout_rate) / (1.0 - model.dropout_rate)
            a = a * mask
        else:
            mask = None
        z = a @ w.T + b
        caches.append((a, mask, z))
        a = z if i == last else _activate(z, act)
    return a, caches


def _backward(model: MlpModel, caches, grad_logits: np.ndarray):
    """Gradients for every weight and bias given dLoss/dLogits."""
    grads_w, grads_b = [], []
    dz = grad_logits
    for i in range(len(model.weights) - 1, -1, -1):
        a_in, mask, _ = caches[i]
        grads_w.append(dz.T @ a_in)
        grads_b.append(dz.sum(axis=0))
        if i > 0:
            da = dz @ model.weights[i]
            if mask is not None:
                da = da * mask
            dz = da * _activation_grad(caches[i - 1][2], model.activations[i - 1])
    grads_w.reverse()
    grads_b.reverse()
    return grads_w, grads_b


def _batch_loss(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    out, _ = _forward_cached(model, x, rng=None)
    return _head_loss(out, labels, model.activations[-1])


def accuracy(model: MlpModel, dataset) -> float:
    """Fraction of correct predictions; no dropout, no rng."""
    head = model.activations[-1]
    features, labels = _dataset_arrays(dataset, model.layer_dims[0], head, model.layer_dims[-1])
    predicted = _predictions(model.forward_batch(features), head)
    return float((predicted == labels).mean())


def train(dataset, specs: list[LayerSpec], cfg: TrainConfig = TrainConfig(),
          dropout_rate: float = 0.2) -> tuple[MlpModel, TrainReport]:
    """Mini-batch SGD with early stopping on validation accuracy.

    The returned model carries the weights of the best validation epoch.
    Identical inputs produce bit-identical weights.
    """
    _validate_specs(specs)
    head = specs[-1].activation
    features, labels = _dataset_arrays(dataset, specs[0].input_dim, head, specs[-1].output_dim)
    n = len(features)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(specs, rng, dropout_rate=dropout_rate)

    n_val = max(1, int(round(n * cfg.validation_fraction)))
    if n - n_val < 1:
        raise ValueError(f"dataset of {n} samples is too small to split off validation data")
    perm = rng.permutation(n)
    x_val, y_val = features[perm[:n_val]], labels[perm[:n_val]]
    x_train, y_train = features[perm[n_val:]], labels[perm[n_val:]]

    report = TrainReport()
    best_val = -1.0
    best_weights = None
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(x_train))
        xs, ys = x_train[order], y_train[order]
        # a diverging step overflows; the finite check below reports it as an error
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(xs), cfg.batch_size):
                out, caches = _forward_cached(model, xs[start:start + cfg.batch_size], rng)
                grad = _head_grad(out, ys[start:start + cfg.batch_size], head)
                grads_w, grads_b = _backward(model, caches, grad)
                for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                    w -= cfg.learning_rate * gw
                    b -= cfg.learning_rate * gb
        if not all(np.isfinite(w).all() and np.isfinite(b).all()
                   for w, b in zip(model.weights, model.biases)):
            raise ValueError(f"training diverged: parameters became non-finite in epoch {epoch}; "
                             f"lower the learning rate (got {cfg.learning_rate})")
        train_pred = _predictions(model.forward_batch(x_train), head)
        val_pred = _predictions(model.forward_batch(x_val), head)
        report.train_accuracy.append(float((train_pred == y_train).mean()))
        report.validation_accuracy.append(float((val_pred == y_val).mean()))
        report.epochs_run = epoch + 1
        if report.validation_accuracy[-1] > best_val:
            best_val = report.validation_accuracy[-1]
            best_weights = ([w.copy() for w in model.weights], [b.copy() for b in model.biases])
            report.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    model.weights, model.biases = best_weights
    return model, report


def gradient_check(model: MlpModel, features, label, step: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences."""
    if model.n_params > _GRADIENT_CHECK_PARAM_CAP:
        raise ValueError(f"model has {model.n_params} parameters; the check is "
                         f"intended for small models (<= {_GRADIENT_CHECK_PARAM_CAP})")
    head = model.activations[-1]
    x = np.asarray(features, dtype=np.float64)[None, :]
    if head == "softmax":
        labels = np.asarray([int(label)], dtype=np.int64)
    else:
        labels = np.asarray([int(bool(label))], dtype=np.int64)

    out, caches = _forward_cached(model, x, rng=None)
    grads_w, grads_b = _backward(model, caches, _head_grad(out, labels, head))

    worst = 0.0
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for tensor, grad_tensor in zip(params, grads):
            flat = tensor.reshape(-1)
            grad_flat = grad_tensor.reshape(-1)
            for k in range(flat.size):
                origin = flat[k]
                flat[k] = origin + step
                up = _batch_loss(model, x, labels)
                flat[k] = origin - step
                down = _batch_loss(model, x, labels)
                flat[k] = origin
                numeric = (up - down) / (2.0 * step)
                analytic = grad_flat[k]
                err = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-8)
                if err > worst:
                    worst = err
    return worst


# --- versioned weights files ---------------------------------------------------

_FORMAT_VERSION = 1


def save_model(model: MlpModel, path: str) -> None:
    doc = {
        "version": _FORMAT_VERSION,
        "dropout": model.dropout_rate,
        "layers": [
            {
                "in": int(w.shape[1]),
                "out": int(w.shape[0]),
                "activation": act,
                "w": [float(v) for v in w.reshape(-1)],
                "b": [float(v) for v in b],
            }
            for w, b, act in zip(model.weights, model.biases, model.activations)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _format_error(where: str, problem: str) -> ModelFormatError:
    return ModelFormatError(f"{where}: {problem}")


def load_model(path: str) -> MlpModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"file: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise _format_error("file", "top level must be a JSON object")
    if doc.get("version") != _FORMAT_VERSION:
        raise _format_error("version", f"expected {_FORMAT_VERSION}, got {doc.get('version')!r}")
    dropout = doc.get("dropout")
    if isinstance(dropout, bool) or not isinstance(dropout, (int, float)) or not 0 <= dropout < 1:
        raise _format_error("dropout", f"expected a rate in [0, 1), got {dropout!r}")
    layers = doc.get("layers")
    if not isinstance(layers, list) or not layers:
        raise _format_error("layers", "expected a non-empty list")

    weights, biases, activations = [], [], []
    for i, layer in enumerate(layers):
        where = f"layers[{i}]"
        if not isinstance(layer, dict):
            raise _format_error(where, "expected a JSON object")
        for key in ("in", "out", "activation", "w", "b"):
            if key not in layer:
                raise _format_error(f"{where}.{key}", "missing")
        n_in, n_out = layer["in"], layer["out"]
        for name, v in (("in", n_in), ("out", n_out)):
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise _format_error(f"{where}.{name}", f"expected a positive integer, got {v!r}")
        act = layer["activation"]
        if act not in ACTIVATIONS:
            raise _format_error(f"{where}.activation", f"unknown activation {act!r}")
        if not isinstance(layer["w"], list) or len(layer["w"]) != n_in * n_out:
            raise _format_error(f"{where}.w", f"expected {n_in * n_out} values")
        if not isinstance(layer["b"], list) or len(layer["b"]) != n_out:
            raise _format_error(f"{where}.b", f"expected {n_out} values")
        try:
            w = np.asarray(layer["w"], dtype=np.float64).reshape(n_out, n_in)
            b = np.asarray(layer["b"], dtype=np.float64)
        except (TypeError, ValueError):
            raise _format_error(f"{where}.w", "values must be numbers") from None
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise _format_error(f"{where}.w", "values must be finite")
        weights.append(w)
        biases.append(b)
        activations.append(act)
    try:
        return MlpModel(weights, biases, activations, float(dropout))
    except (ValueError, DimensionMismatchError) as exc:
        raise _format_error("layers", str(exc)) from None
