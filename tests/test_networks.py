import logging

import numpy as np
import pytest

from refexp.mlp import MlpModel, init_model
from refexp.networks import (NetworkShapeError, PAIR_FEATURE_DIM, RIN_DIMS,
                             RIN_FEATURE_DIM, RPN_DIMS, _scene_pairs, encode_pair,
                             encode_relation, presence_scores, rin_layer_specs,
                             rpn_layer_specs, score_scene, validate_rin, validate_rpn)
from refexp.pipeline import EmptyCandidatesError, build_candidate_sets, describe
from refexp.scene import (CATEGORIES, PipelineConfig, RelationCategory, UnknownObjectError,
                          scene_from_json)

from helpers import (crowded_scene_doc, full_batch_scored, held_relations, make_scene,
                     mixed_corpus, scored_from_relations, set_fields)


@pytest.fixture
def pair_scene():
    return make_scene([(0, "book", (10, 20, 30, 40)), (1, "cup", (50, 60, 10, 10))])


def test_configured_dims():
    assert RPN_DIMS == (8, 32, 16, 6)
    assert RIN_DIMS == (14, 64, 16, 8, 1)
    assert PAIR_FEATURE_DIM == 8
    assert RIN_FEATURE_DIM == 14  # 8 pair features + 6 one-hot


def test_layer_specs_match_dims():
    assert [s.output_dim for s in rpn_layer_specs()] == [32, 16, 6]
    assert rpn_layer_specs()[-1].activation == "softmax"
    assert [s.output_dim for s in rin_layer_specs()] == [64, 16, 8, 1]
    assert rin_layer_specs()[-1].activation == "sigmoid"


class TestEncodePair:
    def test_worked_example(self, pair_scene):
        got = encode_pair(pair_scene, 0, 1)
        np.testing.assert_allclose(got, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.1, 0.1])

    def test_swap_permutes_halves(self, pair_scene):
        fwd = encode_pair(pair_scene, 0, 1)
        rev = encode_pair(pair_scene, 1, 0)
        np.testing.assert_array_equal(rev, np.concatenate([fwd[4:], fwd[:4]]))

    def test_same_object_rejected(self, pair_scene):
        with pytest.raises(ValueError):
            encode_pair(pair_scene, 0, 0)

    def test_unknown_id_rejected(self, pair_scene):
        with pytest.raises(UnknownObjectError):
            encode_pair(pair_scene, 0, 7)

    def test_negative_zero_corner_encodes_as_zero(self):
        """encode_pair and the scene-wide encode share one box format, so a -0.0
        corner gives the same +0.0 bits in both."""
        scene = make_scene([(0, "a", (-0.0, 5.0, 10.0, 10.0)), (1, "b", (20.0, -0.0, 10.0, 10.0))])
        _, _, rows = _scene_pairs(scene)
        for row, (a, b) in zip(rows, [(0, 1), (1, 0)]):
            assert encode_pair(scene, a, b).tobytes() == row.tobytes()
        assert not np.signbit(rows).any()

    def test_values_stay_normalized(self):
        scene = make_scene([(0, "a", (90, 90, 10, 10)), (1, "b", (0, 0, 100, 100))])
        for vec in (encode_pair(scene, 0, 1), encode_pair(scene, 1, 0)):
            assert (vec >= 0).all() and (vec <= 1).all()


def test_encode_relation_appends_one_hot(pair_scene):
    vec = encode_relation(pair_scene, 0, 1, RelationCategory.ON_TOP)
    assert vec.shape == (14,)
    np.testing.assert_array_equal(vec[:8], encode_pair(pair_scene, 0, 1))
    one_hot = vec[8:]
    assert one_hot.sum() == 1.0
    assert one_hot[RelationCategory.ON_TOP.index] == 1.0


class TestScoring:
    """One pair read from the scene-wide arrays; ids 0 and 1 sit at rows 0 and 1."""

    def test_zero_weight_rpn_is_uniform(self, pair_scene):
        dims = RPN_DIMS
        model = MlpModel([np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
                         [np.zeros(o) for o in dims[1:]],
                         ["relu", "relu", "softmax"])
        probs = presence_scores(model, pair_scene)[0, 1]
        np.testing.assert_allclose(probs, 1 / 6, rtol=0, atol=1e-12)

    def test_probabilities_sum_to_one(self, pair_scene):
        model = init_model(rpn_layer_specs(), 11)
        probs = presence_scores(model, pair_scene)[0, 1]
        assert probs.shape == (len(CATEGORIES),)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert [cat.index for cat in CATEGORIES] == list(range(len(CATEGORIES)))

    def test_zero_final_layer_confidence_half(self, pair_scene):
        model = init_model(rin_layer_specs(), 11)
        model.weights[-1][:] = 0.0
        model.biases[-1][:] = 0.0
        scored = score_scene(init_model(rpn_layer_specs(), 11), model, pair_scene)
        assert scored.confidences[0, 1, RelationCategory.LEFT.index] == 0.5

    def test_confidence_in_open_interval(self, pair_scene):
        model = init_model(rin_layer_specs(), 12)
        scored = score_scene(init_model(rpn_layer_specs(), 12), model, pair_scene)
        assert 0.0 < scored.confidences[1, 0, RelationCategory.RIGHT.index] < 1.0

    def test_wrong_shape_rejected(self, pair_scene):
        rin_shaped = init_model(rin_layer_specs(), 0)
        rpn_shaped = init_model(rpn_layer_specs(), 0)
        with pytest.raises(NetworkShapeError):
            presence_scores(rin_shaped, pair_scene)
        with pytest.raises(NetworkShapeError):
            score_scene(rin_shaped, rin_shaped, pair_scene)
        with pytest.raises(NetworkShapeError):
            score_scene(rpn_shaped, rpn_shaped, pair_scene)

    def test_validators(self):
        validate_rpn(init_model(rpn_layer_specs(), 0))
        validate_rin(init_model(rin_layer_specs(), 0))
        with pytest.raises(NetworkShapeError):
            validate_rpn(init_model(rin_layer_specs(), 0))


class TestScoreScene:
    @pytest.fixture
    def models(self):
        return init_model(rpn_layer_specs(), 1), init_model(rin_layer_specs(), 2)

    @pytest.mark.parametrize("n_objects,expected", [(2, 12), (3, 36), (5, 120)])
    def test_entry_counts(self, models, n_objects, expected):
        rpn, rin = models
        entries = [(i, f"type{i}", (i * 15.0, i * 10.0, 8, 8)) for i in range(n_objects)]
        relations = score_scene(rpn, rin, make_scene(entries))
        assert len(relations) == expected

    def test_deterministic_ordering(self, models):
        rpn, rin = models
        scene = make_scene([(2, "a", (0, 0, 5, 5)), (0, "b", (20, 20, 5, 5)),
                            (1, "c", (40, 40, 5, 5))])
        relations = held_relations(score_scene(rpn, rin, scene))
        keys = [(r.target_id, r.reference_id, r.category.index) for r in relations]
        assert keys == sorted(keys)

    def test_too_few_objects(self, models):
        rpn, rin = models
        with pytest.raises(ValueError):
            score_scene(rpn, rin, make_scene([(0, "solo", (0, 0, 5, 5))]))

    def test_object_tuple_order_irrelevant(self, models):
        rpn, rin = models
        entries = [(0, "a", (0, 0, 5, 5)), (1, "b", (20, 20, 5, 5)), (2, "c", (40, 5, 5, 5))]
        forward = score_scene(rpn, rin, make_scene(entries))
        backward = score_scene(rpn, rin, make_scene(list(reversed(entries))))
        assert forward.ids == backward.ids
        np.testing.assert_array_equal(forward.probabilities, backward.probabilities)
        np.testing.assert_array_equal(forward.confidences, backward.confidences)

    def test_arrays_are_read_only(self, models):
        """The selection stages memoized on a ScoredScene cannot go stale."""
        rpn, rin = models
        scene = make_scene([(0, "a", (0, 0, 5, 5)), (1, "b", (20, 20, 5, 5)), (2, "a", (40, 5, 5, 5))])
        scored = score_scene(rpn, rin, scene)
        rebuilt = scored_from_relations(held_relations(scored))
        sets = build_candidate_sets(scored, 0)
        for held in (scored, rebuilt, sets.above_threshold):
            for scores in (held.probabilities, held.confidences):
                with pytest.raises(ValueError, match="read-only"):
                    scores[0, 1, 0] = 0.5
        for mask in (sets.best, scored.present(0.5)):
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 1, 0] = True
        assert held_relations(rebuilt) == held_relations(scored)
        assert set_fields(build_candidate_sets(rebuilt, 0)) == set_fields(sets)

    @pytest.mark.parametrize("seed", range(6))
    def test_arrays_equal_per_pair_rows(self, models, seed):
        """One vectorized encode gives the rows encode_pair gives, and the nets'
        batches the outputs of the same batches of those rows, bit for bit."""
        rpn, rin = models
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        ids = [int(i) for i in rng.choice(1000, size=n, replace=False)]  # shuffled, sparse
        # some boxes spill over the 100 x 80 image, so clamping is exercised
        entries = [(oid, f"type{k % 3}", (*rng.uniform(0, 90, 2), *rng.uniform(1, 40, 2)))
                   for k, oid in enumerate(ids)]
        scene = make_scene(entries, width=100.0, height=80.0)

        order = sorted(ids)
        pairs = [(a, b) for a in order for b in order if a != b]
        probabilities = rpn.forward_batch(np.stack([encode_pair(scene, a, b) for a, b in pairs]))
        # rin's two batches: each pair's most probable category, then the rest
        top = [CATEGORIES[k] for k in probabilities.argmax(axis=1)]
        rows = list(enumerate(top)) + \
            [(row, cat) for row in range(len(pairs)) for cat in RelationCategory if cat is not top[row]]
        confidences = np.concatenate([
            rin.forward_batch(np.stack([encode_relation(scene, *pairs[row], cat) for row, cat in part]))
            for part in (rows[:len(pairs)], rows[len(pairs):])])
        expected_p = np.full((n, n, 6), np.nan)
        expected_c = np.full((n, n, 6), np.nan)
        for row, (a, b) in enumerate(pairs):
            expected_p[order.index(a), order.index(b)] = probabilities[row]
        for (row, cat), confidence in zip(rows, confidences[:, 0]):
            a, b = pairs[row]
            expected_c[order.index(a), order.index(b), cat.index] = confidence

        scored = score_scene(rpn, rin, scene)
        assert scored.ids == tuple(order)
        np.testing.assert_array_equal(scored.probabilities, expected_p)
        np.testing.assert_array_equal(scored.confidences, expected_c)
        first = held_relations(scored)[0]
        assert (first.probability, first.confidence) == (expected_p[0, 1, 0], expected_c[0, 1, 0])


class TestSplitRinBatches:
    """rin scores each pair's most probable category eagerly, the rest on demand."""

    @pytest.fixture
    def rin_rows(self, monkeypatch, rin_model):
        """Row counts of the rin batches run while the test runs."""
        rows, forward_batch = [], MlpModel.forward_batch

        def counting_forward(model, features):
            if model is rin_model:
                rows.append(len(features))
            return forward_batch(model, features)

        monkeypatch.setattr(MlpModel, "forward_batch", counting_forward)
        return rows

    @staticmethod
    def describe_all(rpn, rin, scene, scored, threshold):
        cfg = PipelineConfig(presence_threshold=threshold)
        for target in scene.object_ids():
            try:
                describe(rpn, rin, scene, target, cfg, scored=scored)
            except EmptyCandidatesError:
                pass

    def test_default_threshold_runs_argmax_rows_only(self, rpn_model, rin_model, rin_rows):
        scene = scene_from_json(crowded_scene_doc(32))
        scored = score_scene(rpn_model, rin_model, scene)
        self.describe_all(rpn_model, rin_model, scene, scored, 0.5)
        scored.above(0.5)
        assert rin_rows == [32 * 31]

    def test_low_threshold_scores_the_rest_once(self, rpn_model, rin_model, rin_rows):
        scene = scene_from_json(crowded_scene_doc(32))
        scored = score_scene(rpn_model, rin_model, scene)
        probabilities = scored.probabilities
        runner_up = np.sort(np.nan_to_num(probabilities), axis=2)[:, :, -2]
        assert (runner_up > 0.2).any()  # 0.2 needs a non-argmax entry
        self.describe_all(rpn_model, rin_model, scene, scored, 0.2)
        self.describe_all(rpn_model, rin_model, scene, scored, 0.3)
        assert rin_rows == [32 * 31, 5 * 32 * 31]
        assert not np.isnan(scored.confidences[~np.isnan(probabilities)]).any()
        held_relations(scored)
        assert rin_rows == [32 * 31, 5 * 32 * 31]

    def test_within_a_few_ulp_of_one_full_batch(self, rpn_model, rin_model):
        # smaller batches may take another GEMM kernel, so bits can move; on
        # this corpus 98% of entries match and none is off by more than 3 ulp
        for scene in mixed_corpus():
            split = score_scene(rpn_model, rin_model, scene)
            full = full_batch_scored(rpn_model, rin_model, scene)
            np.testing.assert_array_equal(split.probabilities, full.probabilities)
            scored = ~np.isnan(full.probabilities)
            np.testing.assert_array_max_ulp(split.confidences[scored], full.confidences[scored],
                                            maxulp=4)

    def test_each_batch_logged_at_debug(self, rpn_model, rin_model, caplog):
        scene = scene_from_json(crowded_scene_doc(5))
        with caplog.at_level(logging.DEBUG, logger="refexp.networks"):
            scored = score_scene(rpn_model, rin_model, scene)
            scored.confidences
            scored.confidences
        assert [r.getMessage() for r in caplog.records] == [
            "scoring 5 objects: 20 rin rows in the first batch",
            "scoring the other categories: 100 rin rows"]


class TestTrainedBehavior:
    """Qualitative behaviors the session-trained scorers must show."""

    def test_dominant_categories_on_layered_scene(self, rpn_model):
        # tall bottle A above, small bottle B overlapping the wide book C below
        scene = make_scene([
            (0, "bottle", (140, 100, 80, 60)),
            (1, "bottle", (220, 290, 30, 50)),
            (2, "book", (150, 300, 200, 60)),
        ], width=640, height=480)
        probabilities = presence_scores(rpn_model, scene)
        assert CATEGORIES[probabilities[2, 0].argmax()] is RelationCategory.IN_FRONT
        assert CATEGORIES[probabilities[2, 1].argmax()] is RelationCategory.AT_BOTTOM

    def test_nearer_reference_more_informative(self, rpn_model, rin_model):
        # three bottles in a row; for the rightmost target the middle one is
        # the natural reference for a Right phrase
        scene = make_scene([
            (0, "bottle", (100, 190, 50, 80)),
            (1, "bottle", (380, 210, 50, 70)),
            (2, "bottle", (500, 200, 60, 80)),
        ], width=640, height=480)
        confidences = score_scene(rpn_model, rin_model, scene).confidences
        right = RelationCategory.RIGHT.index
        assert confidences[2, 1, right] > confidences[2, 0, right]  # near over far

    def test_learnability_against_rule_oracle(self, rpn_setup):
        assert rpn_setup.test_accuracy >= 0.95
