import math

import pytest

from refexp.datagen import mirrored_duplicate_scenes
from refexp.krreg import _ranked_landmarks, krreg_describe
from refexp.networks import presence_scores, score_scene, validate_rpn
from refexp.pipeline import describe
from refexp.scene import (PipelineConfig, ReferringExpression, RelationCategory, SpatialRelation,
                          render_phrase)

from helpers import make_scene, mixed_corpus, scored_from_relations

R = RelationCategory
# the baseline's fixed order for trying a landmark's present relations
PRIORITY = (R.BEHIND, R.IN_FRONT, R.ON_TOP, R.AT_BOTTOM, R.LEFT, R.RIGHT)


# --- the set-based baseline, kept as the reference krreg must reproduce --------

def ref_distractors(scene, target_id):
    target = scene.object_by_id(target_id)
    return {o.id for o in scene.objects if o.id != target_id and o.type_name == target.type_name}


def ref_landmarks(scene, target_id):
    same_type = ref_distractors(scene, target_id)
    return {o.id for o in scene.objects if o.id != target_id and o.id not in same_type}


def ref_rank(scene, target_id, landmark_id):
    if landmark_id not in ref_landmarks(scene, target_id):
        raise ValueError(f"object {landmark_id} is not a landmark for target {target_id}")
    target = scene.object_by_id(target_id)
    landmark = scene.object_by_id(landmark_id)
    w, h = scene.image_width, scene.image_height
    area = (landmark.box.w / w) * (landmark.box.h / h)
    tx, ty = target.box.center()
    lx, ly = landmark.box.center()
    distance = math.hypot((tx - lx) / w, (ty - ly) / h)
    count = len(ref_distractors(scene, landmark_id))
    return area / (max(distance, 1e-6) * max(count, 1))


def ref_krreg_describe(rpn, scene, target_id, cfg):
    validate_rpn(rpn)
    target = scene.object_by_id(target_id)
    present = presence_scores(rpn, scene) > cfg.presence_threshold
    index = {oid: k for k, oid in enumerate(scene.object_ids())}
    distractor_rows = [index[d] for d in ref_distractors(scene, target_id)]
    landmark_ids = ref_landmarks(scene, target_id)
    type_of = {o.id: o.type_name for o in scene.objects}
    ranked = sorted(landmark_ids, key=lambda l: (-ref_rank(scene, target_id, l), l))
    for landmark in ranked:
        same_type = [index[o] for o in landmark_ids if type_of[o] == type_of[landmark]]
        repeats = present[distractor_rows][:, same_type]
        for cat in PRIORITY:
            if not present[index[target_id], index[landmark], cat.index]:
                continue
            if not repeats[:, :, cat.index].any():
                reference = scene.object_by_id(landmark)
                return ReferringExpression(target_id, landmark, cat,
                                           render_phrase(target, reference, cat))
    return None


def tie_scenes():
    """Landmarks of equal rank on either side of the target, so the id decides."""
    left, right = (20, 45, 10, 10), (70, 45, 10, 10)
    return [
        make_scene([(5, "book", (45, 45, 10, 10)), (3, "mouse", right), (7, "mouse", left)]),
        make_scene([(5, "book", (45, 45, 10, 10)), (3, "cup", right), (7, "mouse", left)]),
        make_scene([(5, "book", (45, 45, 10, 10)), (3, "cup", left), (7, "mouse", right),
                    (1, "book", (45, 80, 10, 10))]),
        # type names that differ only by a trailing NUL are still two types
        make_scene([(0, "cup", (45, 45, 10, 10)), (1, "cup\x00", right), (2, "cup", left)]),
    ]


def landmark_ids(scene, target_id):
    return {landmark for landmark, _ in _ranked_landmarks(scene, target_id)}


@pytest.fixture
def book_mouse_cup_scene():
    # target book 0, twin book 1, two differently sized landmarks
    return make_scene([
        (0, "book", (10, 10, 10, 10)),
        (1, "book", (80, 80, 10, 10)),
        (2, "mouse", (40, 10, 20, 10)),
        (3, "cup", (10, 40, 30, 20)),
    ])


def rank_of(scene, target_id, landmark_id):
    return dict(_ranked_landmarks(scene, target_id))[landmark_id]


class TestLandmarks:
    def test_exclude_target_and_same_type(self, book_mouse_cup_scene):
        assert landmark_ids(book_mouse_cup_scene, 0) == {2, 3}

    def test_all_others_when_unique(self, book_mouse_cup_scene):
        assert landmark_ids(book_mouse_cup_scene, 2) == {0, 1, 3}

    def test_three_of_a_kind(self):
        scene = make_scene([(0, "cup", (0, 0, 5, 5)), (1, "cup", (10, 10, 5, 5)),
                            (2, "cup", (20, 20, 5, 5)), (3, "vase", (30, 30, 5, 5))])
        assert landmark_ids(scene, 1) == {3}

    def test_partition(self, book_mouse_cup_scene):
        scene = book_mouse_cup_scene
        for target in scene.object_ids():
            same_type = ref_distractors(scene, target)
            assert landmark_ids(scene, target) | same_type | {target} == set(scene.object_ids())
            assert landmark_ids(scene, target) & (same_type | {target}) == set()

    def test_reference_distractors(self, book_mouse_cup_scene):
        assert ref_distractors(book_mouse_cup_scene, 0) == {1}
        assert ref_distractors(book_mouse_cup_scene, 2) == set()

    def test_best_first_ties_to_lower_id(self):
        scene = tie_scenes()[0]
        ranked = _ranked_landmarks(scene, 5)
        assert [landmark for landmark, _ in ranked] == [3, 7]
        assert ranked[0][1] == ranked[1][1]

    def test_ranks_equal_reference_bit_for_bit(self):
        for scene in mixed_corpus() + tie_scenes():
            for target in scene.object_ids():
                expected = sorted(((l, ref_rank(scene, target, l))
                                   for l in ref_landmarks(scene, target)),
                                  key=lambda entry: (-entry[1], entry[0]))
                assert _ranked_landmarks(scene, target) == expected


class TestRank:
    def test_hand_computed_values(self, book_mouse_cup_scene):
        # area 0.2*0.1, centers 0.35 apart on x, no mouse type-mates
        assert rank_of(book_mouse_cup_scene, 0, 2) == pytest.approx(0.02 / 0.35)

    def test_unit_substitution(self):
        # area 0.25 over distance 0.25
        scene = make_scene([(0, "book", (20, 45, 10, 10)), (1, "mouse", (25, 25, 50, 50))])
        assert rank_of(scene, 0, 1) == pytest.approx(1.0)

    def test_doubling_area_doubles_rank(self):
        base = make_scene([(0, "book", (10, 45, 10, 10)), (1, "mouse", (60, 40, 10, 20))])
        # keep the landmark center fixed while doubling its height
        double = make_scene([(0, "book", (10, 45, 10, 10)), (1, "mouse", (60, 30, 10, 40))])
        assert rank_of(double, 0, 1) == pytest.approx(2 * rank_of(base, 0, 1))

    def test_coincident_centers_stay_finite(self):
        scene = make_scene([(0, "book", (40, 40, 20, 20)), (1, "mouse", (45, 45, 10, 10))])
        assert rank_of(scene, 0, 1) == pytest.approx((0.1 * 0.1) / 1e-6)

    def test_landmark_type_mates_divide_rank(self, book_mouse_cup_scene):
        lone = rank_of(book_mouse_cup_scene, 0, 2)
        # one twin leaves the divisor at the clamp floor of 1
        one_twin = make_scene([
            (0, "book", (10, 10, 10, 10)),
            (1, "mouse", (40, 10, 20, 10)),
            (2, "mouse", (70, 70, 20, 10)),
        ])
        assert rank_of(one_twin, 0, 1) == pytest.approx(lone)
        # two twins genuinely halve it
        two_twins = make_scene([
            (0, "book", (10, 10, 10, 10)),
            (1, "mouse", (40, 10, 20, 10)),
            (2, "mouse", (70, 70, 20, 10)),
            (3, "mouse", (10, 70, 20, 10)),
        ])
        assert rank_of(two_twins, 0, 1) == pytest.approx(lone / 2)


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
        present = presence_scores(rpn_model, scene)[0, 1] > 0.2
        assert present[R.BEHIND.index] and present[R.LEFT.index]
        low = PipelineConfig(presence_threshold=0.2)
        assert krreg_describe(rpn_model, scene, 0, low).category is R.BEHIND

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

    def test_landmark_the_scoring_lacks_is_skipped(self, rpn_model, rin_model):
        """A landmark outside ``scored`` has no present relation, so the next one
        is tried, as describe answers from such a scoring."""
        scene = make_scene([(0, "book", (10, 10, 50, 50)), (1, "mouse", (500, 10, 50, 50)),
                            (2, "cup", (70, 10, 100, 100))], width=640, height=480)
        assert [landmark for landmark, _ in _ranked_landmarks(scene, 0)] == [2, 1]
        partial = scored_from_relations([SpatialRelation(0, 1, R.LEFT, 0.9, 0.8),
                                         SpatialRelation(1, 0, R.RIGHT, 0.9, 0.8)])
        got = krreg_describe(rpn_model, scene, 0, scored=partial)
        assert got == ReferringExpression(0, 1, R.LEFT, "The book to the left of the mouse")
        assert describe(rpn_model, rin_model, scene, 0, scored=partial).reference_id == 1

    def test_equal_to_set_based_reference(self, rpn_model, rin_model):
        """Fresh and shared-scoring answers both equal the set-based baseline's."""
        scenes = mixed_corpus() + mirrored_duplicate_scenes(10, seed=3) + tie_scenes()
        for scene in scenes:
            scored = score_scene(rpn_model, rin_model, scene)
            for threshold in (0.2, 0.5, 0.8):
                cfg = PipelineConfig(presence_threshold=threshold)
                for target in scene.object_ids():
                    expected = ref_krreg_describe(rpn_model, scene, target, cfg)
                    assert krreg_describe(rpn_model, scene, target, cfg) == expected
                    assert krreg_describe(rpn_model, scene, target, cfg, scored=scored) == expected

    def test_single_object_scene_rejected(self, rpn_model):
        with pytest.raises(ValueError):
            krreg_describe(rpn_model, make_scene([(0, "book", (0, 0, 5, 5))]), 0)
