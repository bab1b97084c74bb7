"""Trainer, forward pass, gradient check and weights-file round trips."""

import json

import numpy as np
import pytest

from refexp.mlp import (DimensionMismatchError, LayerSpec, MlpModel, ModelFormatError,
                        TrainConfig, accuracy, gradient_check, init_model, load_model,
                        save_model, train)
from refexp.networks import rin_layer_specs, rpn_layer_specs


def zero_model(dims, activations, dropout=0.2):
    weights = [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(o) for o in dims[1:]]
    return MlpModel(weights, biases, list(activations), dropout)


def toy_blobs(seed=0):
    # two well-separated gaussian clusters, 50 points each
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-0.5, -0.5), scale=0.15, size=(50, 2))
    b = rng.normal(loc=(0.5, 0.5), scale=0.15, size=(50, 2))
    return [(a[i], 0) for i in range(50)] + [(b[i], 1) for i in range(50)]


class TestForward:
    def test_zero_weight_softmax_is_uniform(self):
        model = zero_model((8, 6), ["softmax"])
        out = model.forward(np.ones(8))
        np.testing.assert_allclose(out, np.full(6, 1 / 6), atol=1e-12)

    def test_identity_layer_passes_input_through(self):
        model = zero_model((3, 3), ["identity"])
        model.weights[0][:] = np.eye(3)
        v = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(model.forward(v), v)

    def test_sigmoid_of_zero_is_half(self):
        model = zero_model((1, 1), ["sigmoid"])
        model.weights[0][:] = [[1.0]]
        assert model.forward(np.array([0.0]))[0] == 0.5

    def test_softmax_sums_to_one(self):
        model = init_model(rpn_layer_specs(), 3)
        out = model.forward(np.random.default_rng(0).uniform(0, 1, 8))
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()

    def test_dimension_mismatch_named_error(self):
        model = zero_model((4, 2), ["relu"])
        with pytest.raises(DimensionMismatchError):
            model.forward(np.ones(5))

    def test_forward_ignores_dropout(self):
        model = init_model(rin_layer_specs(), 7, dropout_rate=0.2)
        x = np.random.default_rng(1).uniform(0, 1, 14)
        assert np.array_equal(model.forward(x), model.forward(x))


class TestModelValidation:
    def test_misaligned_layers_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MlpModel([np.zeros((4, 3)), np.zeros((2, 5))],
                     [np.zeros(4), np.zeros(2)], ["relu", "sigmoid"])

    def test_non_finite_weights_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            MlpModel([w], [np.zeros(2)], ["relu"])

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            zero_model((2, 2), ["relu"], dropout=1.0)

    def test_layer_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 4, "relu")
        with pytest.raises(ValueError):
            LayerSpec(4, 4, "tanh")


class TestGradientCheck:
    def test_rin_shape_random_weights(self):
        model = init_model(rin_layer_specs(), 0)
        x = np.random.default_rng(0).uniform(0, 1, 14)
        assert gradient_check(model, x, 1) < 1e-4

    def test_rpn_shape_random_weights(self):
        model = init_model(rpn_layer_specs(), 0)
        x = np.random.default_rng(0).uniform(0, 1, 8)
        assert gradient_check(model, x, 3) < 1e-4

    def test_zero_weight_model(self):
        model = zero_model((8, 32, 16, 6), ["relu", "relu", "softmax"], dropout=0.0)
        x = np.random.default_rng(2).uniform(0, 1, 8)
        assert gradient_check(model, x, 0) < 1e-6


class TestTrain:
    def test_toy_blobs_reach_perfect_validation(self):
        # patience equal to the epoch budget so early stopping cannot cut
        # the run before the separator is found
        cfg = TrainConfig(seed=0, max_epochs=200, patience=200)
        specs = [LayerSpec(2, 8, "relu"), LayerSpec(8, 1, "sigmoid")]
        _, report = train(toy_blobs(), specs, cfg)
        assert report.best_validation_accuracy == 1.0
        assert report.best_epoch < 200

    def test_single_repeated_sample_memorized(self):
        data = [(np.array([0.2, 0.8]), 1)] * 12
        specs = [LayerSpec(2, 4, "relu"), LayerSpec(4, 3, "softmax")]
        model, report = train(data, specs, TrainConfig(seed=0, max_epochs=50))
        assert report.train_accuracy[report.best_epoch] == 1.0
        assert accuracy(model, data) == 1.0

    def test_deterministic_weights(self):
        specs = [LayerSpec(2, 8, "relu"), LayerSpec(8, 1, "sigmoid")]
        cfg = TrainConfig(seed=3, max_epochs=15)
        m1, _ = train(toy_blobs(), specs, cfg)
        m2, _ = train(toy_blobs(), specs, cfg)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], [LayerSpec(2, 1, "sigmoid")], TrainConfig())

    def test_label_out_of_range_rejected(self):
        data = [(np.zeros(2), 5)] * 20
        with pytest.raises(ValueError):
            train(data, [LayerSpec(2, 3, "softmax")], TrainConfig())

    def test_sigmoid_labels_must_be_binary(self):
        data = [(np.zeros(2), 2)] * 20
        with pytest.raises(ValueError):
            train(data, [LayerSpec(2, 1, "sigmoid")], TrainConfig())

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=1.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_training_raises(self):
        specs = [LayerSpec(2, 8, "relu"), LayerSpec(8, 1, "sigmoid")]
        with pytest.raises(ValueError, match="non-finite"):
            train(toy_blobs(), specs, TrainConfig(learning_rate=1e308, max_epochs=5))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(rpn_layer_specs(), 5)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        xs = np.random.default_rng(0).uniform(0, 1, size=(20, 8))
        for x in xs:
            assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model(rin_layer_specs(), 5)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        path.write_text(path.read_text()[:200])
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_mismatched_dims_rejected(self, tmp_path):
        model = init_model(rpn_layer_specs(), 5)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][0]["in"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_error_names_offending_field(self, tmp_path):
        model = init_model(rpn_layer_specs(), 5)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][1]["activation"] = "maxout"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="activation"):
            load_model(str(path))
