import pytest

from refexp.datagen import mirrored_duplicate_scenes
from refexp.krreg import distractors, krreg_describe, landmarks, rank
from refexp.networks import score_scene
from refexp.pipeline import describe
from refexp.scene import PipelineConfig, RelationCategory

from helpers import make_scene, mixed_corpus

R = RelationCategory


@pytest.fixture
def book_mouse_cup_scene():
    # target book 0, twin book 1, two differently sized landmarks
    return make_scene([
        (0, "book", (10, 10, 10, 10)),
        (1, "book", (80, 80, 10, 10)),
        (2, "mouse", (40, 10, 20, 10)),
        (3, "cup", (10, 40, 30, 20)),
    ])


class TestSets:
    def test_distractors_share_type(self, book_mouse_cup_scene):
        assert distractors(book_mouse_cup_scene, 0) == {1}

    def test_distractors_empty_for_unique_type(self, book_mouse_cup_scene):
        assert distractors(book_mouse_cup_scene, 2) == set()

    def test_three_of_a_kind(self):
        scene = make_scene([(0, "cup", (0, 0, 5, 5)), (1, "cup", (10, 10, 5, 5)),
                            (2, "cup", (20, 20, 5, 5)), (3, "vase", (30, 30, 5, 5))])
        assert distractors(scene, 1) == {0, 2}

    def test_landmarks_exclude_target_and_distractors(self, book_mouse_cup_scene):
        assert landmarks(book_mouse_cup_scene, 0) == {2, 3}

    def test_landmarks_all_others_when_unique(self, book_mouse_cup_scene):
        assert landmarks(book_mouse_cup_scene, 2) == {0, 1, 3}

    def test_partition(self, book_mouse_cup_scene):
        scene = book_mouse_cup_scene
        for target in scene.object_ids():
            d, l = distractors(scene, target), landmarks(scene, target)
            assert d | l | {target} == set(scene.object_ids())
            assert d & l == set()


class TestRank:
    def test_hand_computed_values(self, book_mouse_cup_scene):
        got = rank(book_mouse_cup_scene, 0, 2)
        # area 0.2*0.1, centers 0.35 apart on x, no mouse distractors
        assert got.distance == pytest.approx(0.35)
        assert got.distractor_count == 0
        assert got.rank == pytest.approx(0.02 / 0.35)

    def test_unit_substitution(self):
        scene = make_scene([(0, "book", (20, 45, 10, 10)), (1, "mouse", (25, 25, 50, 50))])
        got = rank(scene, 0, 1)
        assert got.distance == pytest.approx(0.25)
        assert got.rank == pytest.approx(1.0)

    def test_doubling_area_doubles_rank(self):
        base = make_scene([(0, "book", (10, 45, 10, 10)), (1, "mouse", (60, 40, 10, 20))])
        double = make_scene([(0, "book", (10, 45, 10, 10)), (1, "mouse", (60, 30, 10, 40))])
        # keep the landmark center fixed while doubling its height
        assert rank(double, 0, 1).distance == pytest.approx(rank(base, 0, 1).distance)
        assert rank(double, 0, 1).rank == pytest.approx(2 * rank(base, 0, 1).rank)

    def test_coincident_centers_stay_finite(self):
        scene = make_scene([(0, "book", (40, 40, 20, 20)), (1, "mouse", (45, 45, 10, 10))])
        got = rank(scene, 0, 1)
        assert got.distance == 0.0
        assert got.rank == pytest.approx((0.1 * 0.1) / 1e-6)

    def test_landmark_distractors_divide_rank(self, book_mouse_cup_scene):
        lone = rank(book_mouse_cup_scene, 0, 2)
        # one twin leaves the divisor at the clamp floor of 1
        one_twin = make_scene([
            (0, "book", (10, 10, 10, 10)),
            (1, "mouse", (40, 10, 20, 10)),
            (2, "mouse", (70, 70, 20, 10)),
        ])
        assert rank(one_twin, 0, 1).distractor_count == 1
        assert rank(one_twin, 0, 1).rank == pytest.approx(lone.rank)
        # two twins genuinely halve it
        two_twins = make_scene([
            (0, "book", (10, 10, 10, 10)),
            (1, "mouse", (40, 10, 20, 10)),
            (2, "mouse", (70, 70, 20, 10)),
            (3, "mouse", (10, 70, 20, 10)),
        ])
        assert rank(two_twins, 0, 1).distractor_count == 2
        assert rank(two_twins, 0, 1).rank == pytest.approx(lone.rank / 2)

    def test_non_landmark_rejected(self, book_mouse_cup_scene):
        with pytest.raises(ValueError):
            rank(book_mouse_cup_scene, 0, 1)


class TestDescribe:
    def test_single_landmark_no_distractors(self, rpn_model):
        scene = make_scene([(0, "book", (10, 40, 15, 15)), (1, "mouse", (60, 40, 15, 15))])
        got = krreg_describe(rpn_model, scene, 0)
        assert got is not None
        assert got.phrase == "The book to the left of the mouse"

    def test_example_layout(self, rpn_model):
        scene = make_scene([(0, "book", (84, 300, 70, 44)), (1, "mouse", (284, 300, 56, 36)),
                            (2, "book", (380, 295, 70, 44))], width=640, height=480)
        got = krreg_describe(rpn_model, scene, 2)
        assert got is not None and got.phrase == "The book to the right of the mouse"

    def test_mirrored_duplicates_fail(self, rpn_model):
        scene = mirrored_duplicate_scenes(1, seed=7)[0]
        assert krreg_describe(rpn_model, scene, 0) is None

    def test_failure_has_mirroring_distractor_relation(self, rpn_model, rin_model):
        """Whenever the baseline stays silent the twin really does repeat every
        candidate relation, yet the main pipeline can still answer."""
        scene = mirrored_duplicate_scenes(1, seed=7)[0]
        assert krreg_describe(rpn_model, scene, 0) is None
        assert describe(rpn_model, rin_model, scene, 0).phrase

    def test_priority_order_decides_between_present_relations(self, rpn_model):
        # a diagonal pair keeps both the x and the y relation in play once the
        # threshold drops below their split probabilities
        scene = make_scene([(0, "book", (10, 10, 10, 10)), (1, "mouse", (40, 40, 20, 20))])
        low = PipelineConfig(presence_threshold=0.2)
        assert krreg_describe(rpn_model, scene, 0, low).category is R.BEHIND
        reversed_cfg = PipelineConfig(presence_threshold=0.2,
                                      relation_priority=tuple(reversed(low.relation_priority)))
        assert krreg_describe(rpn_model, scene, 0, reversed_cfg).category is R.LEFT

    def test_nearer_larger_landmark_wins(self, rpn_model):
        # two landmark types; the big nearby cup outranks the small far mouse
        scene = make_scene([
            (0, "book", (10, 40, 10, 10)),
            (1, "cup", (30, 40, 30, 20)),
            (2, "mouse", (80, 42, 8, 8)),
        ])
        got = krreg_describe(rpn_model, scene, 0)
        assert got is not None
        assert got.reference_id == 1

    def test_shared_scoring_gives_same_answer(self, rpn_model, rin_model):
        for scene in mixed_corpus():
            scored = score_scene(rpn_model, rin_model, scene)
            for threshold in (0.2, 0.5):
                cfg = PipelineConfig(presence_threshold=threshold)
                for target in scene.object_ids():
                    assert krreg_describe(rpn_model, scene, target, cfg, scored=scored) == \
                        krreg_describe(rpn_model, scene, target, cfg)

    def test_single_object_scene_rejected(self, rpn_model):
        with pytest.raises(ValueError):
            krreg_describe(rpn_model, make_scene([(0, "book", (0, 0, 5, 5))]), 0)
