"""Trainer, forward pass, gradient check and weights-file round trips."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from refexp import mlp
from refexp.mlp import (ACTIVATIONS, DimensionMismatchError, LayerSpec, MlpModel,
                        ModelFormatError, TrainConfig, accuracy, gradient_check, init_model,
                        load_model, save_model, train)
from refexp.networks import RIN_FEATURE_DIM, rin_layer_specs, rpn_layer_specs

from test_mlp_equivalence import reference_forward_batch, reference_sigmoid

# signed zeros, infinities, NaNs (two payloads, either sign), subnormals and
# magnitudes past 709, where exp overflows or underflows
SIGMOID_EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.225e-308, -1e-310,
     709.79, -709.79, 745.2, -745.2, 1e308, -1e308],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
              0xFFF0000000000001], dtype=np.uint64).view(np.float64)])


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_forward_batch_equals_chained_forward(self, data):
        depth = data.draw(st.integers(1, 4))
        dims = data.draw(st.lists(st.integers(1, 9), min_size=depth + 1, max_size=depth + 1))
        acts = data.draw(st.lists(st.sampled_from(("relu", "sigmoid", "identity")),
                                  min_size=depth - 1, max_size=depth - 1))
        acts.append(data.draw(st.sampled_from(ACTIVATIONS)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from((0.1, 1.0, 30.0)))
        model = MlpModel([rng.normal(0, scale, (o, i)) for i, o in zip(dims, dims[1:])],
                         [rng.normal(0, scale, o) for o in dims[1:]], acts)
        # up to 70 rows, so both of OpenBLAS's small- and large-batch paths run
        x = rng.normal(0, scale, (data.draw(st.integers(1, 70)), dims[0]))
        before = x.copy()
        got = model.forward_batch(x)
        np.testing.assert_array_equal(x.view(np.uint64), before.view(np.uint64))
        np.testing.assert_array_equal(got.view(np.uint64),
                                      reference_forward_batch(model, x).view(np.uint64))


class TestSigmoid:
    @settings(max_examples=300)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                      elements=st.one_of(st.floats(), st.sampled_from(SIGMOID_EDGES.tolist()))))
    @example(SIGMOID_EDGES)
    @example(SIGMOID_EDGES.reshape(-1, 2))
    def test_equals_boolean_indexed_formula_bit_for_bit(self, z):
        np.testing.assert_array_equal(mlp._sigmoid(z).view(np.uint64),
                                      reference_sigmoid(z).view(np.uint64))


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

    def test_trained_model(self):
        # a trained model's weights are views of the trainer's flat buffer;
        # the check perturbs them in place through those views
        specs = [LayerSpec(2, 8, "relu"), LayerSpec(8, 1, "sigmoid")]
        model, _ = train(toy_blobs(), specs, TrainConfig(seed=1, max_epochs=5))
        before = [p.copy() for p in model.weights + model.biases]
        assert gradient_check(model, np.array([0.3, -0.2]), 1) < 1e-4
        for p, q in zip(model.weights + model.biases, before):
            assert p.tobytes() == q.tobytes()


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

    def test_peak_memory_is_pinned(self):
        # tracemalloc peak of one training call at the recipe's rin shape: about
        # 3.95 MB with NumPy 2.4. The bound is the 5,340,754 bytes measured
        # before the inference pass worked in place, plus 10%; a per-epoch
        # dropout mask array (3,600 rows x 102 inputs, 2.9 MB) exceeds it.
        rng = np.random.default_rng(0)
        features = rng.random((4000, RIN_FEATURE_DIM))
        data = list(zip(features, (features[:, 0] > 0.5).astype(int)))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train(data, rin_layer_specs(), TrainConfig(seed=3, max_epochs=2, patience=2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 5_875_000

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

    @pytest.mark.parametrize("key", ["w", "b"])
    @pytest.mark.parametrize("bad", ["0.5", True, 10 ** 400, math.nan, None],
                             ids=["string", "bool", "huge-int", "nan", "null"])
    def test_weight_not_a_finite_number_named(self, tmp_path, key, bad):
        model = init_model(rpn_layer_specs(), 5)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][1][key][-1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=rf"^layers\[1\]\.{key}: expected a list of \d+ "):
            load_model(str(path))
