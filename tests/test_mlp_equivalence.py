"""The trainer against the per-batch loop it replaced.

The reference below indexes every mini-batch out of the full feature matrix,
computes the loss with each gradient, and applies the relu backward as a
float mask, as the first trainer did. It is frozen: its forward pass draws one
dropout mask per layer from the rng, its sigmoid is the boolean-indexed
formula, its inference pass builds a fresh array at every step, and it steps
each layer's weights and biases as separate arrays, so none of it calls the
code under test. The current trainer must reproduce its weights,
biases and report bit for bit, so models trained for a seed never change.
The inference pass is held to a frozen copy of the one that preceded its
in-place softmax, so a scene's scores never change either.
"""

import numpy as np
import pytest

from refexp import mlp
from refexp.datagen import (SceneGenSpec, rin_training_pairs, rpn_training_pairs,
                            synth_rin_dataset, synth_rpn_dataset)
from refexp.mlp import TrainConfig, TrainReport
from refexp.networks import rin_layer_specs, rpn_layer_specs


# --- per-batch reference -------------------------------------------------------

def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_activate(z, act):
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "sigmoid":
        return reference_sigmoid(z)
    if act == "softmax":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return z


def reference_forward_batch(model, x):
    """Inference pass without dropout, one fresh array per step."""
    for w, b, act in zip(model.weights, model.biases, model.activations):
        x = reference_activate(x @ w.T + b, act)
    return x


def reference_forward_cached(model, x, rng):
    """Training forward pass: one ``rng.random`` mask per layer input, drawn in
    layer order; returns raw output logits and (input, mask, logits) caches."""
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
        a = z if i == last else reference_activate(z, act)
    return a, caches


def reference_head_loss_and_grad(logits, labels, head):
    n = logits.shape[0]
    if head == "softmax":
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        loss = float((log_z - logits[np.arange(n), labels]).mean())
        grad = reference_activate(logits, "softmax")
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n
    z = logits[:, 0]
    y = labels.astype(np.float64)
    loss = float((np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean())
    grad = np.zeros_like(logits)
    grad[:, 0] = (reference_sigmoid(z) - y) / n
    return loss, grad


def reference_activation_grad(z, act):
    if act == "relu":
        return (z > 0).astype(np.float64)
    s = reference_sigmoid(z)
    return s * (1.0 - s)


def reference_backward(model, caches, grad_logits):
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
            dz = da * reference_activation_grad(caches[i - 1][2], model.activations[i - 1])
    return grads_w[::-1], grads_b[::-1]


def reference_train(dataset, specs, cfg, dropout_rate):
    head = specs[-1].activation
    features, labels = mlp._dataset_arrays(dataset, specs[0].input_dim, head,
                                           specs[-1].output_dim)
    n = len(features)
    rng = np.random.default_rng(cfg.seed)
    model = mlp.init_model(specs, rng, dropout_rate=dropout_rate)
    n_val = max(1, int(round(n * cfg.validation_fraction)))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    report = TrainReport()
    best_val, best_weights, stale = -1.0, None, 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_idx))
        for start in range(0, len(order), cfg.batch_size):
            batch = train_idx[order[start:start + cfg.batch_size]]
            out, caches = reference_forward_cached(model, features[batch], rng)
            _, grad = reference_head_loss_and_grad(out, labels[batch], head)
            grads_w, grads_b = reference_backward(model, caches, grad)
            for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                w -= cfg.learning_rate * gw
                b -= cfg.learning_rate * gb
        train_pred = mlp._predictions(reference_forward_batch(model, features[train_idx]), head)
        val_pred = mlp._predictions(reference_forward_batch(model, features[val_idx]), head)
        report.train_accuracy.append(float((train_pred == labels[train_idx]).mean()))
        report.validation_accuracy.append(float((val_pred == labels[val_idx]).mean()))
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


def frozen_forward_batch(model, x):
    """forward_batch before its softmax ran in place: a fresh array per softmax step."""
    for w, b, act in zip(model.weights, model.biases, model.activations):
        z = x @ w.T
        z += b
        if act == "relu":
            x = np.maximum(z, 0.0, out=z)
        elif act == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
        else:
            e = np.exp(np.minimum(z, -z))
            x = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return x


# --- equivalence ---------------------------------------------------------------

def rpn_pairs():
    return rpn_training_pairs(synth_rpn_dataset(SceneGenSpec(seed=1), 300))


def rin_pairs():
    return rin_training_pairs(synth_rin_dataset(SceneGenSpec(seed=2), 310))


def rin_recipe_pairs():
    return rin_training_pairs(synth_rin_dataset(SceneGenSpec(seed=3), 1200))


CASES = {
    # 270 training rows: the last batch of 32 holds 14
    "rpn-softmax-no-dropout": (rpn_pairs, rpn_layer_specs, 0.0,
                               TrainConfig(seed=5, batch_size=32, max_epochs=15, patience=15,
                                           learning_rate=0.2)),
    # 279 training rows: the last batch of 50 holds 29
    "rin-sigmoid-dropout": (rin_pairs, rin_layer_specs, 0.2,
                            TrainConfig(seed=6, batch_size=50, max_epochs=15, patience=15,
                                        learning_rate=0.2)),
    "rpn-early-stop": (rpn_pairs, rpn_layer_specs, 0.0,
                       TrainConfig(seed=7, batch_size=16, max_epochs=200, patience=4,
                                   learning_rate=0.2)),
    # 270 training rows: the last batch of 24 holds 6
    "rpn-softmax-dropout": (rpn_pairs, rpn_layer_specs, 0.2,
                            TrainConfig(seed=8, batch_size=24, max_epochs=8, patience=8,
                                        learning_rate=0.2)),
    # the recipe's rin shape, batch, rate and learning rate; 1,080 training
    # rows: the last batch of 32 holds 24
    "rin-recipe": (rin_recipe_pairs, rin_layer_specs, 0.2,
                   TrainConfig(seed=9, max_epochs=6, patience=6)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_equals_per_batch_loop(case):
    pairs, specs, dropout, cfg = CASES[case]
    data = pairs()
    model, report = mlp.train(data, specs(), cfg, dropout_rate=dropout)
    expected, expected_report = reference_train(data, specs(), cfg, dropout)
    for actual, wanted in zip(model.weights + model.biases, expected.weights + expected.biases):
        assert actual.shape == wanted.shape and actual.tobytes() == wanted.tobytes()
    np.testing.assert_array_equal(report.train_accuracy, expected_report.train_accuracy)
    np.testing.assert_array_equal(report.validation_accuracy,
                                  expected_report.validation_accuracy)
    assert report.best_epoch == expected_report.best_epoch
    assert report.epochs_run == expected_report.epochs_run
    if case == "rpn-early-stop":
        assert report.epochs_run < cfg.max_epochs


@pytest.mark.parametrize("specs", [rpn_layer_specs, rin_layer_specs])
def test_forward_batch_equals_frozen_forward(specs):
    """The scorers' shapes with nonzero biases, at every batch size up to 64 and
    at 1,560 rows (every ordered pair of a 40-object scene)."""
    rng = np.random.default_rng(11)
    model = mlp.init_model(specs(), rng)
    model.biases = [rng.normal(0.0, 2.0, b.shape) for b in model.biases]
    for rows in [*range(1, 65), 1560]:
        x = rng.normal(0.5, 2.0, (rows, model.weights[0].shape[1]))
        got = model.forward_batch(x)
        assert got.shape == (rows, model.weights[-1].shape[0])
        assert got.tobytes() == frozen_forward_batch(model, x).tobytes()
