"""Selection pipeline: thresholding, per-category maxima, pruning, final pick."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refexp.krreg import krreg_describe
from refexp.networks import score_scene
from refexp.pipeline import (EmptyCandidatesError, build_candidate_sets, describe,
                             describe_oracle, eliminate_ambiguous, select_relation)
from refexp.scene import (PipelineConfig, RelationCategory, SpatialRelation, UnknownObjectError,
                          scene_from_json)

from helpers import (crowded_scene_doc, full_batch_scored, held_relations, make_scene,
                     mixed_corpus, scored_from_relations, set_fields, two_books_and_mouse)

R = RelationCategory


def rel(t, r, cat, p, c):
    return SpatialRelation(t, r, cat, p, c)


def loop_candidate_sets(relations, target_id, cfg=PipelineConfig()):
    """The per-relation loops that the array stages replaced, kept as the reference:
    the four stages as ``set_fields`` gives them."""
    def key(r):
        return (r.target_id, r.reference_id, r.category.index)

    def preference(r):
        return (r.confidence, -r.reference_id, -r.category.index)

    above = tuple(sorted((r for r in relations if r.probability > cfg.presence_threshold), key=key))
    best = {}
    for r in above:
        held = best.get((r.target_id, r.category))
        if held is None or preference(r) > preference(held):
            best[(r.target_id, r.category)] = r
    best_per_category = tuple(sorted(best.values(), key=key))
    return (above, tuple(r for r in above if r.target_id == target_id), best_per_category,
            tuple(r for r in best_per_category if r.target_id != target_id))


def ref_eliminate_ambiguous(stages, scene):
    """The set-based elimination that the mask test replaced, kept as the reference:
    a target relation survives unless some competitor has its type signature."""
    _, from_target, _, competitors = stages
    type_of = {obj.id: obj.type_name for obj in scene.objects}
    taken = {(type_of[r.target_id], type_of[r.reference_id], r.category) for r in competitors}
    return tuple(r for r in from_target
                 if (type_of[r.target_id], type_of[r.reference_id], r.category) not in taken)


def outcome(call):
    try:
        return call()
    except EmptyCandidatesError:
        return None


class TestBuildCandidateSets:
    def test_probability_exactly_at_threshold_excluded(self):
        sets = build_candidate_sets(scored_from_relations([rel(0, 1, R.RIGHT, 0.5, 0.9)]), 0)
        assert set_fields(sets) == ((), (), (), ())

    def test_just_above_threshold_included(self):
        kept = rel(0, 1, R.RIGHT, 0.5000001, 0.9)
        sets = build_candidate_sets(scored_from_relations([kept]), 0)
        assert set_fields(sets) == ((kept,), (kept,), (kept,), ())

    def test_argmax_keeps_highest_confidence(self):
        low = rel(0, 1, R.RIGHT, 0.9, 0.3)
        high = rel(0, 2, R.RIGHT, 0.9, 0.8)
        sets = build_candidate_sets(scored_from_relations([low, high]), 0)
        assert set_fields(sets)[2] == (high,)

    def test_argmax_tie_prefers_lowest_reference(self):
        a = rel(0, 2, R.RIGHT, 0.9, 0.7)
        b = rel(0, 1, R.RIGHT, 0.9, 0.7)
        sets = build_candidate_sets(scored_from_relations([a, b]), 0)
        assert set_fields(sets)[2] == (b,)

    def test_per_object_per_category_maxima(self):
        rels = [rel(0, 1, R.RIGHT, 0.9, 0.6), rel(0, 1, R.BEHIND, 0.8, 0.5),
                rel(1, 0, R.LEFT, 0.9, 0.4)]
        _, _, best_per_category, competitors = set_fields(
            build_candidate_sets(scored_from_relations(rels), 0))
        assert len(best_per_category) == 3
        assert competitors == (rels[2],)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_reference_on_ties(self, seed):
        # few confidence levels, so per-category maxima tie often
        rng = np.random.default_rng(seed)
        ids = [int(i) for i in rng.choice(50, size=6, replace=False)]
        rels = [rel(a, b, cat, float(rng.uniform(0.3, 1.0)), float(rng.choice([0.25, 0.5, 0.75])))
                for a in ids for b in ids if a != b for cat in R if rng.random() < 0.6]
        rng.shuffle(rels)
        scored = scored_from_relations(rels)
        for target in ids:
            assert set_fields(build_candidate_sets(scored, target)) == \
                loop_candidate_sets(rels, target)

    def test_matches_loop_reference_on_scored_scenes(self, rpn_model, rin_model):
        for scene in mixed_corpus():
            scored = score_scene(rpn_model, rin_model, scene)
            for threshold in (0.3, 0.5):
                cfg = PipelineConfig(presence_threshold=threshold)
                for target in scene.object_ids():
                    assert set_fields(build_candidate_sets(scored, target, cfg)) == \
                        loop_candidate_sets(held_relations(scored), target, cfg)

    def test_shared_scored_scene_matches_fresh_scoring(self, rpn_model, rin_model):
        """Stages memoized on one ScoredScene, reused across targets with the
        thresholds interleaved, equal those of a freshly scored scene."""
        for scene in mixed_corpus():
            shared = score_scene(rpn_model, rin_model, scene)
            for target in scene.object_ids():
                for threshold in (0.3, 0.5, 0.7):
                    cfg = PipelineConfig(presence_threshold=threshold)
                    got = build_candidate_sets(shared, target, cfg)
                    want = build_candidate_sets(score_scene(rpn_model, rin_model, scene), target, cfg)
                    assert got.above_threshold.ids == want.above_threshold.ids
                    np.testing.assert_array_equal(got.above_threshold.probabilities,
                                                  want.above_threshold.probabilities)
                    np.testing.assert_array_equal(got.above_threshold.confidences,
                                                  want.above_threshold.confidences)
                    assert set_fields(got)[1:] == set_fields(want)[1:]

    def test_unknown_target_named(self, rpn_model, rin_model):
        """A target the scored scene does not hold is named, not read as a target
        with no relations, and the row lookup's ValueError does not leak."""
        scored = score_scene(rpn_model, rin_model, two_books_and_mouse())
        with pytest.raises(UnknownObjectError, match="no object with id 99") as raised:
            build_candidate_sets(scored, 99)
        assert not isinstance(raised.value, ValueError)

    def test_confidences_independent_of_read_order(self, rpn_model, rin_model):
        """Whichever threshold is asked first, or the full array, the confidences
        of a scene come out bit for bit the same."""
        def read(scene, order):
            scored = score_scene(rpn_model, rin_model, scene)
            for threshold in order:
                build_candidate_sets(scored, scene.object_ids()[0],
                                     PipelineConfig(presence_threshold=threshold))
            return scored.confidences

        for scene in mixed_corpus():
            want = read(scene, ())
            for order in ((0.3, 0.7), (0.7, 0.3)):
                np.testing.assert_array_equal(read(scene, order), want)

    def test_raising_threshold_never_adds(self):
        scored = scored_from_relations(
            rel(i % 3, (i + 1) % 3, list(R)[i % 6], (i % 10) / 10 + 0.05, 0.5) for i in range(30))
        previous = None
        for t in [0.1, 0.3, 0.5, 0.7, 0.9]:
            sets = build_candidate_sets(scored, 0, PipelineConfig(presence_threshold=t))
            current = set(held_relations(sets.above_threshold))
            if previous is not None:
                assert current <= previous
            previous = current


class TestEliminateAmbiguous:
    def scene(self):
        return make_scene([(0, "book", (0, 40, 10, 10)),
                           (1, "book", (40, 40, 10, 10)),
                           (2, "mouse", (20, 40, 8, 8))])

    def test_duplicate_type_candidate_removed(self):
        # both books sit right of the mouse; the signature collides
        mine = rel(1, 2, R.RIGHT, 0.9, 0.8)
        twin = rel(0, 2, R.RIGHT, 0.9, 0.7)
        sets = build_candidate_sets(scored_from_relations([mine, twin]), 1)
        assert eliminate_ambiguous(sets, self.scene()) == ()

    @pytest.mark.parametrize("threshold", [0.2, 0.3, 0.5, 0.7, 0.9])
    def test_masks_equal_set_based_reference(self, rpn_model, rin_model, threshold):
        """The mask test keeps exactly what the set-based elimination keeps, on every
        target of cluttered, mirrored and crowded scenes."""
        cfg = PipelineConfig(presence_threshold=threshold)
        scenes = mixed_corpus() + [scene_from_json(crowded_scene_doc(n)) for n in (16, 32, 64)]
        for scene in scenes:
            scored = score_scene(rpn_model, rin_model, scene)
            above = best = None
            for target in scene.object_ids():
                sets = build_candidate_sets(scored, target, cfg)
                if above is None:  # both stages are shared by the scene's targets
                    above = held_relations(sets.above_threshold)
                    best = sets.above_threshold.where(sets.best)
                stages = (above, tuple(r for r in above if r.target_id == target), best,
                          tuple(r for r in best if r.target_id != target))
                assert eliminate_ambiguous(sets, scene) == ref_eliminate_ambiguous(stages, scene)

    def test_unique_types_untouched(self):
        scene = make_scene([(0, "book", (0, 40, 10, 10)),
                            (1, "cup", (40, 40, 10, 10)),
                            (2, "mouse", (20, 40, 8, 8))])
        mine = rel(1, 2, R.RIGHT, 0.9, 0.8)
        other = rel(0, 2, R.LEFT, 0.9, 0.7)
        sets = build_candidate_sets(scored_from_relations([mine, other]), 1)
        assert eliminate_ambiguous(sets, scene) == (mine,)

    def test_same_types_different_category_kept(self):
        mine = rel(1, 2, R.RIGHT, 0.9, 0.8)
        twin = rel(0, 2, R.LEFT, 0.9, 0.7)
        sets = build_candidate_sets(scored_from_relations([mine, twin]), 1)
        assert eliminate_ambiguous(sets, self.scene()) == (mine,)

    def test_no_cascading_removals(self):
        # the twin's own candidate got outranked per-category, yet elimination
        # still judges against the original competitor set
        mine = rel(1, 2, R.RIGHT, 0.9, 0.9)
        twin = rel(0, 2, R.RIGHT, 0.9, 0.1)
        sets = build_candidate_sets(scored_from_relations([mine, twin]), 1)
        assert eliminate_ambiguous(sets, self.scene()) == ()


class TestSelectRelation:
    def test_confidence_outranks_probability(self):
        first = rel(2, 0, R.RIGHT, 0.9649, 0.4940)
        second = rel(2, 1, R.RIGHT, 0.8735, 0.9860)
        assert select_relation([first, second]) is second

    def test_single_candidate(self):
        only = rel(0, 1, R.LEFT, 0.8, 0.2)
        assert select_relation([only]) is only

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidatesError):
            select_relation([])

    def test_tie_breaks_reference_then_category(self):
        a = rel(0, 2, R.LEFT, 0.9, 0.7)
        b = rel(0, 1, R.BEHIND, 0.9, 0.7)
        c = rel(0, 1, R.LEFT, 0.9, 0.7)
        assert select_relation([a, b, c]) is c


class TestDescribe:
    def test_example_layout(self, rpn_model, rin_model):
        got = describe(rpn_model, rin_model, two_books_and_mouse(), 2)
        assert got.phrase == "The book to the right of the mouse"
        assert (got.target_id, got.reference_id) == (2, 1)

    def test_two_object_scene(self, rpn_model, rin_model):
        scene = make_scene([(0, "book", (10, 40, 15, 15)), (1, "mouse", (60, 40, 15, 15))])
        got = describe(rpn_model, rin_model, scene, 0)
        assert got.phrase == "The book to the left of the mouse"

    def test_coincident_twins_have_no_expression(self, rpn_model, rin_model):
        # identical boxes encode identically in both directions, so any
        # candidate is mirrored by its twin and pruned; if nothing clears the
        # threshold the set is empty anyway
        scene = make_scene([(0, "cup", (40, 40, 20, 20)), (1, "cup", (40, 40, 20, 20))])
        with pytest.raises(EmptyCandidatesError):
            describe(rpn_model, rin_model, scene, 0)

    def test_unknown_target_rejected(self, rpn_model, rin_model):
        scene = make_scene([(0, "book", (10, 40, 15, 15)), (1, "mouse", (60, 40, 15, 15))])
        with pytest.raises(LookupError):
            describe(rpn_model, rin_model, scene, 5)

    def test_object_order_permutation_invariant(self, rpn_model, rin_model):
        """The pipeline, its twin and the baseline all ignore storage order."""
        entries = [(0, "book", (84, 300, 70, 44)), (1, "mouse", (284, 300, 56, 36)),
                   (2, "book", (380, 295, 70, 44))]
        direct = make_scene(entries, width=640, height=480)
        shuffled = make_scene([entries[1], entries[2], entries[0]], width=640, height=480)
        methods = (describe, describe_oracle,
                   lambda rpn, rin, scene, target: krreg_describe(rpn, scene, target))
        for method in methods:
            assert method(rpn_model, rin_model, shuffled, 2) is not None
            for target in direct.object_ids():
                assert outcome(lambda: method(rpn_model, rin_model, direct, target)) == \
                    outcome(lambda: method(rpn_model, rin_model, shuffled, target))

    def test_shared_scoring_gives_fresh_phrase(self, rpn_model, rin_model):
        """Every target described from one scoring of its scene gets the phrase a
        fresh call gives, and the one the loop stages give."""
        for scene in mixed_corpus():
            scored = score_scene(rpn_model, rin_model, scene)
            relations = held_relations(scored)
            for target in scene.object_ids():
                shared = outcome(lambda: describe(rpn_model, rin_model, scene, target,
                                                  scored=scored))
                fresh = outcome(lambda: describe(rpn_model, rin_model, scene, target))
                loops = outcome(lambda: select_relation(ref_eliminate_ambiguous(
                    loop_candidate_sets(relations, target), scene)))
                assert shared == fresh
                if loops is None:
                    assert shared is None
                else:
                    assert (shared.reference_id, shared.category) == \
                        (loops.reference_id, loops.category)

    def test_selected_relation_is_sound(self, rpn_model, rin_model):
        """The winning signature must not appear among the pruned competitors."""
        from refexp.networks import score_scene
        scene = two_books_and_mouse()
        relations = score_scene(rpn_model, rin_model, scene)
        sets = build_candidate_sets(relations, 2)
        chosen = select_relation(eliminate_ambiguous(sets, scene))
        assert chosen.probability > 0.5
        type_of = {o.id: o.type_name for o in scene.objects}
        signature = (type_of[chosen.target_id], type_of[chosen.reference_id], chosen.category)
        for comp in set_fields(sets)[3]:
            assert (type_of[comp.target_id], type_of[comp.reference_id], comp.category) != signature


    def test_relations_built_for_survivors_only(self, rpn_model, rin_model, monkeypatch):
        """Scoring and selection build no relation of their own: describing a target
        of a 32-object scene builds at most as many as it has above the threshold."""
        scene = scene_from_json(crowded_scene_doc(32))
        target = 10
        row = scene.object_ids().index(target)
        above = int(np.count_nonzero(score_scene(rpn_model, rin_model, scene).probabilities[row] > 0.5))
        built = []
        post_init = SpatialRelation.__post_init__
        monkeypatch.setattr(SpatialRelation, "__post_init__",
                            lambda relation: built.append(relation) or post_init(relation))
        got = describe(rpn_model, rin_model, scene, target)
        assert got.target_id == target
        assert 0 < len(built) <= above

    @pytest.mark.parametrize("threshold", [0.2, 0.3, 0.5, 0.7, 0.9])
    def test_split_batches_give_the_full_batch_phrases(self, rpn_model, rin_model, threshold):
        cfg = PipelineConfig(presence_threshold=threshold)
        for scene in mixed_corpus():
            split = score_scene(rpn_model, rin_model, scene)
            full = full_batch_scored(rpn_model, rin_model, scene)
            for target in scene.object_ids():
                assert outcome(lambda: describe(rpn_model, rin_model, scene, target, cfg,
                                                scored=split)) == \
                    outcome(lambda: describe(rpn_model, rin_model, scene, target, cfg,
                                             scored=full))


@st.composite
def relabelled_scenes(draw):
    """A scene of 2-8 boxes over at most three types, and the same scene with its
    objects reordered, its ids mapped by an increasing function and its types
    renamed one-to-one; with the id map."""
    n = draw(st.integers(2, 8))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    types = draw(st.lists(st.sampled_from(["book", "cup", "mouse"]), min_size=n, max_size=n))
    boxes = draw(st.lists(st.tuples(st.integers(0, 90), st.integers(0, 70), st.integers(1, 30),
                                    st.integers(1, 30)), min_size=n, max_size=n))
    new_ids = sorted(draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n, unique=True)))
    id_map = dict(zip(sorted(ids), new_ids))
    type_map = dict(zip(["book", "cup", "mouse"], draw(st.permutations(["lamp", "pen", "vase"]))))
    entries = list(zip(ids, types, boxes))
    relabelled = [(id_map[oid], type_map[name], box)
                  for oid, name, box in draw(st.permutations(entries))]
    return make_scene(entries), make_scene(relabelled), id_map


@settings(max_examples=25, deadline=None)
@given(relabelled_scenes())
def test_describe_invariant_under_relabelling(rpn_model, rin_model, scenes):
    """Storage order, id values and type names do not change which relation is
    chosen, only the words and ids it is reported with."""
    scene, relabelled, id_map = scenes

    def choice(scene, target):
        got = outcome(lambda: describe(rpn_model, rin_model, scene, target))
        return None if got is None else (got.target_id, got.reference_id, got.category)

    for target in scene.object_ids():
        want = choice(scene, target)
        if want is not None:
            want = (id_map[want[0]], id_map[want[1]], want[2])
        assert choice(relabelled, id_map[target]) == want


class TestDescribeOracle:
    def test_agrees_on_example(self, rpn_model, rin_model):
        scene = two_books_and_mouse()
        assert describe_oracle(rpn_model, rin_model, scene, 2) == \
            describe(rpn_model, rin_model, scene, 2)

    def test_agrees_on_empty(self, rpn_model, rin_model):
        scene = make_scene([(0, "cup", (40, 40, 20, 20)), (1, "cup", (40, 40, 20, 20))])
        with pytest.raises(EmptyCandidatesError):
            describe_oracle(rpn_model, rin_model, scene, 0)

    def test_agrees_on_small_random_corpus(self, rpn_model, rin_model):
        from refexp.datagen import SceneGenSpec, generate_scenes
        from refexp.evaluation import pipeline_oracle_check
        scenes = generate_scenes(SceneGenSpec(min_objects=2, max_objects=6, seed=99), 60)
        matches, total = pipeline_oracle_check(rpn_model, rin_model, scenes)
        assert matches == total
