import numpy as np
import pytest

from refexp.mlp import MlpModel, init_model
from refexp.networks import (NetworkShapeError, PAIR_FEATURE_DIM, RIN_DIMS,
                             RIN_FEATURE_DIM, RPN_DIMS, ScoredScene, encode_pair,
                             encode_relation, presence_scores, rin_layer_specs,
                             rpn_layer_specs, score_scene, validate_rin, validate_rpn)
from refexp.pipeline import build_candidate_sets
from refexp.scene import CATEGORIES, RelationCategory, UnknownObjectError

from helpers import make_scene


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
        relations = score_scene(rpn, rin, scene)
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
        assert forward == backward

    def test_arrays_are_read_only(self, models):
        """The selection stages memoized on a ScoredScene cannot go stale."""
        rpn, rin = models
        scene = make_scene([(0, "a", (0, 0, 5, 5)), (1, "b", (20, 20, 5, 5)), (2, "a", (40, 5, 5, 5))])
        scored = score_scene(rpn, rin, scene)
        rebuilt = ScoredScene.from_relations(scored)
        sets = build_candidate_sets(scored, 0)
        for held in (scored, rebuilt, sets.above_threshold):
            for scores in (held.probabilities, held.confidences):
                with pytest.raises(ValueError, match="read-only"):
                    scores[0, 1, 0] = 0.5
        assert rebuilt == scored
        assert build_candidate_sets(rebuilt, 0) == sets == build_candidate_sets(list(scored), 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_arrays_equal_per_pair_rows(self, models, seed):
        """One vectorized encode gives the rows encode_pair gives, bit for bit."""
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
        confidences = rin.forward_batch(np.stack([encode_relation(scene, a, b, cat)
                                                  for a, b in pairs for cat in RelationCategory]))
        expected_p = np.full((n, n, 6), np.nan)
        expected_c = np.full((n, n, 6), np.nan)
        for row, (a, b) in enumerate(pairs):
            i, j = order.index(a), order.index(b)
            expected_p[i, j] = probabilities[row]
            expected_c[i, j] = confidences[6 * row:6 * row + 6, 0]

        scored = score_scene(rpn, rin, scene)
        assert scored.ids == tuple(order)
        np.testing.assert_array_equal(scored.probabilities, expected_p)
        np.testing.assert_array_equal(scored.confidences, expected_c)
        first = next(iter(scored))
        assert (first.probability, first.confidence) == (expected_p[0, 1, 0], expected_c[0, 1, 0])


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
