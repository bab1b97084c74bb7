"""Selection pipeline: thresholding, per-category maxima, pruning, final pick."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refexp.datagen import SceneGenSpec, generate_scenes, mirrored_duplicate_scenes
from refexp.krreg import krreg_describe
from refexp.mlp import MlpModel
from refexp.networks import ScoredScene, score_scene
from refexp.pipeline import (EmptyCandidatesError, build_candidate_sets, describe,
                             describe_oracle, eliminate_ambiguous, select_relation)
from refexp.scene import (PipelineConfig, ReferringExpression, RelationCategory, Scene,
                          SpatialRelation, UnknownObjectError, render_phrase, scene_from_json)

from helpers import (crowded_scene_doc, frozen_describe_oracle, full_batch_scored, held_relations,
                     make_scene, mixed_corpus, scored_from_relations, set_fields,
                     two_books_and_mouse)

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


def eager_describe(rpn, rin, scene, target_id, threshold):
    """describe with both scene-wide stages built for every target, the survivors
    read from the thresholded copy: kept as the reference for the lazy stages."""
    scored = score_scene(rpn, rin, scene)
    above = scored.probabilities > threshold
    confidences = np.where(above, scored.confidences_at(above), np.nan)
    confidence = np.where(above, confidences, -np.inf)
    best = above & (confidence == confidence.max(axis=1, keepdims=True, initial=-np.inf))
    best &= best.cumsum(axis=1) == 1
    held = ScoredScene(scored.ids, np.where(above, scored.probabilities, np.nan), confidences)
    t = held.ids.index(target_id)
    types = np.array([scene.object_by_id(oid).type_name for oid in held.ids])
    mates = types == types[t]
    mates[t] = False
    own = ~np.isnan(held.probabilities[t])
    distinct = own & ~((types == types[:, None]) @ best[mates].any(axis=0))
    chosen = select_relation(held.where(distinct, t))
    target, reference = scene.object_by_id(target_id), scene.object_by_id(chosen.reference_id)
    return ReferringExpression(target_id, chosen.reference_id, chosen.category,
                               render_phrase(target, reference, chosen.category))


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

    @pytest.mark.parametrize("mate", ["book", "cup"])
    def test_relation_at_threshold_not_a_candidate(self, mate):
        """Read from the target's row, with and without a type-mate to compete."""
        scene = make_scene([(0, mate, (0, 40, 10, 10)), (1, "book", (40, 40, 10, 10)),
                            (2, "mouse", (20, 40, 8, 8))])
        at = rel(1, 2, R.RIGHT, 0.5, 0.9)
        above = rel(1, 0, R.RIGHT, 0.6, 0.2)
        sets = build_candidate_sets(scored_from_relations([at, above]), 1)
        assert eliminate_ambiguous(sets, scene) == (above,)

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

    @pytest.mark.parametrize("scored_ids", [(0, 1, 999), (0, 1, 2, 999), (0, 999)])
    def test_scoring_of_another_scene_named(self, rpn_model, rin_model, scored_ids):
        """A ``scored`` holding an id the scene lacks is named by describe, the twin and
        krreg, also once the scene's own type codes are cached."""
        scene = two_books_and_mouse()
        for target in scene.object_ids():
            krreg_describe(rpn_model, scene, target,
                           scored=score_scene(rpn_model, rin_model, scene))
        foreign = scored_from_relations(rel(a, b, R.RIGHT, 0.9, 0.8)
                                        for a in scored_ids for b in scored_ids if a != b)
        for method in (lambda: describe(rpn_model, rin_model, scene, 0, scored=foreign),
                       lambda: describe_oracle(rpn_model, rin_model, scene, 0, scored=foreign),
                       lambda: krreg_describe(rpn_model, scene, 0, scored=foreign)):
            with pytest.raises(UnknownObjectError, match="no object with id 999"):
                method()

    def test_type_codes_follow_the_scored_ids(self, rpn_model, rin_model):
        """A scoring over some of the scene's objects reads their types, not the
        types at the same positions of the scene's cached codes."""
        scene = make_scene([(0, "book", (0, 40, 10, 10)), (1, "book", (40, 40, 10, 10)),
                            (2, "mouse", (20, 40, 8, 8))])
        describe(rpn_model, rin_model, scene, 2)  # caches the codes of ids 0, 1, 2
        partial = scored_from_relations([rel(0, 2, R.RIGHT, 0.9, 0.8), rel(2, 0, R.LEFT, 0.9, 0.8)])
        got = describe(rpn_model, rin_model, scene, 0, scored=partial)
        assert got.phrase == "The book to the right of the mouse"

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


    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
    def test_lazy_stages_equal_eager_reference(self, rpn_model, rin_model, monkeypatch,
                                               threshold):
        """Every target gets the eager reference's expression and the twin's; from
        0.5 up, describing all of a scene's targets and their twins from one scoring
        runs the rpn batch and the first rin batch only."""
        cfg = PipelineConfig(presence_threshold=threshold)
        forward_batch = MlpModel.forward_batch
        for scene in mixed_corpus():
            want = [outcome(lambda: eager_describe(rpn_model, rin_model, scene, target, threshold))
                    for target in scene.object_ids()]
            batches = []
            monkeypatch.setattr(MlpModel, "forward_batch",
                                lambda model, x: batches.append(model) or forward_batch(model, x))
            scored = score_scene(rpn_model, rin_model, scene)
            for target, expected in zip(scene.object_ids(), want):
                assert outcome(lambda: describe(rpn_model, rin_model, scene, target, cfg,
                                                scored=scored)) == expected
                assert outcome(lambda: describe_oracle(rpn_model, rin_model, scene, target, cfg,
                                                       scored=scored)) == expected
            monkeypatch.undo()
            if threshold >= 0.5:
                assert [id(m) for m in batches] == [id(rpn_model), id(rin_model)]


class TestSceneInputsShared:
    """What every target of a scene reads is built once per scoring and threshold."""

    @staticmethod
    def scenes():
        return mixed_corpus() + [scene_from_json(crowded_scene_doc(n)) for n in (16, 32)]

    def test_any_read_order_gives_fresh_results(self, rpn_model, rin_model):
        """Thresholds read in any order from one ScoredScene give what a fresh
        scoring gives, and a memoized ``above`` tuple is returned as it was."""
        low = 0.2
        for scene in self.scenes():
            shared = score_scene(rpn_model, rin_model, scene)
            if len(scene.objects) == 32:
                # the low reads reach the pending rin batch
                unscored, _ = shared._pending
                assert (shared.probabilities[unscored] > low).any()
            first = {}
            for threshold in (0.5, low, 0.7, low, 0.5):
                cfg = PipelineConfig(presence_threshold=threshold)
                above = first.setdefault(threshold, shared.above(threshold))
                assert shared.above(threshold) is above
                assert above == score_scene(rpn_model, rin_model, scene).above(threshold)
                for target in scene.object_ids():
                    for method in (describe, describe_oracle):
                        assert outcome(lambda: method(rpn_model, rin_model, scene, target, cfg,
                                                      scored=shared)) == \
                            outcome(lambda: method(rpn_model, rin_model, scene, target, cfg))
                    assert krreg_describe(rpn_model, scene, target, cfg, scored=shared) == \
                        krreg_describe(rpn_model, scene, target, cfg)
            if len(scene.objects) == 32:
                # the low reads ran the pending rin batch after above(0.5) was memoized
                assert shared._pending is None

    def test_each_input_built_once(self, rpn_model, rin_model, monkeypatch):
        """Describing and twin-checking every target of a 32-object scene from one
        scoring builds each above-threshold relation once, beyond the survivors,
        and derives the scene's type codes once."""
        reference = scene_from_json(crowded_scene_doc(32))
        scored = score_scene(rpn_model, rin_model, reference)
        above = int(np.count_nonzero(scored.probabilities > 0.5))
        survivors = sum(len(eliminate_ambiguous(build_candidate_sets(scored, target), reference))
                        for target in scored.ids)

        scene = scene_from_json(crowded_scene_doc(32))  # its type codes are not derived yet
        scored = score_scene(rpn_model, rin_model, scene)
        built, derived = [], []
        post_init = SpatialRelation.__post_init__
        monkeypatch.setattr(SpatialRelation, "__post_init__",
                            lambda relation: built.append(relation) or post_init(relation))
        derive = Scene.type_codes.func
        monkeypatch.setattr(Scene.type_codes, "func", lambda scene: derived.append(1) or derive(scene))
        for target in scene.object_ids():
            outcome(lambda: describe(rpn_model, rin_model, scene, target, scored=scored))
            outcome(lambda: describe_oracle(rpn_model, rin_model, scene, target, scored=scored))
            krreg_describe(rpn_model, scene, target, scored=scored)
        assert survivors > 0
        assert 0 < len(built) <= above + survivors
        assert len(derived) == 1


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

    @pytest.mark.parametrize("scene_ids, target", [((0, 5, 2), 5), ((0, 1), 0)])
    def test_foreign_or_partial_scoring_named_by_every_method(self, rpn_model, rin_model,
                                                              scene_ids, target):
        """A scoring of ids (0, 1, 2) on a scene that lacks one of them raises
        UnknownObjectError from describe, the twin and krreg alike, whether or not
        the scoring also lacks the target."""
        names = ("cup", "book", "mouse")
        scene = make_scene([(oid, names[k], (10 + 30 * k, 40, 10, 10))
                            for k, oid in enumerate(scene_ids)])
        foreign = scored_from_relations(rel(a, b, R.LEFT, 0.9, 0.8)
                                        for a in (0, 1, 2) for b in (0, 1, 2) if a != b)
        for method in (lambda: describe(rpn_model, rin_model, scene, target, scored=foreign),
                       lambda: describe_oracle(rpn_model, rin_model, scene, target, scored=foreign),
                       lambda: krreg_describe(rpn_model, scene, target, scored=foreign)):
            with pytest.raises(UnknownObjectError, match="no object with id [125] "):
                method()

    def test_matches_the_frozen_twin_on_the_corpora(self, rpn_model, rin_model):
        """Every target of corpora A, B and M and of two crowded scenes gets the
        outcome of the twin as it was before its one-pass rewrite."""
        corpus = (generate_scenes(SceneGenSpec(seed=11), 300)
                  + generate_scenes(SceneGenSpec(min_objects=8, max_objects=12,
                                                 duplicate_type_probability=1.0, seed=11), 100)
                  + mirrored_duplicate_scenes(200, seed=8)
                  + [scene_from_json(crowded_scene_doc(n)) for n in (16, 32)])
        cases = 0
        for scene in corpus:
            scored = score_scene(rpn_model, rin_model, scene)
            for target in scene.object_ids():
                assert outcome(lambda: describe_oracle(rpn_model, rin_model, scene, target,
                                                       scored=scored)) == \
                    outcome(lambda: frozen_describe_oracle(rpn_model, rin_model, scene, target,
                                                           scored=scored))
                cases += 1
        assert cases == 1493 + 993 + 800 + 16 + 32

    def test_lower_reference_wins_a_tie_and_decides_the_mirror(self):
        """Mate book 1 holds "right of" at 0.7 against both the mouse (id 2) and the cup
        (id 3); its best is the mouse, so target book 0's more confident relation to the
        mouse is mirrored and its relation to the cup survives."""
        scene = make_scene([(0, "book", (60, 40, 10, 10)), (1, "book", (80, 40, 10, 10)),
                            (2, "mouse", (10, 40, 10, 10)), (3, "cup", (30, 40, 10, 10))])
        scored = scored_from_relations([
            rel(0, 2, R.RIGHT, 0.9, 0.8), rel(0, 3, R.RIGHT, 0.9, 0.6),
            rel(1, 2, R.RIGHT, 0.9, 0.7), rel(1, 3, R.RIGHT, 0.9, 0.7)])
        for method in (describe, describe_oracle, frozen_describe_oracle):
            got = method(None, None, scene, 0, scored=scored)
            assert got.phrase == "The book to the right of the cup"

    def test_reads_only_above(self, rpn_model, rin_model):
        """Given a stand-in that exposes only ``above(threshold)`` of a real scoring,
        the twin gives what it gives with that scoring."""
        class AboveOnly:
            __slots__ = ("above",)

            def __init__(self, scored):
                self.above = scored.above

        for threshold in (0.3, 0.5):
            cfg = PipelineConfig(presence_threshold=threshold)
            for scene in mixed_corpus() + [scene_from_json(crowded_scene_doc(32))]:
                scored = score_scene(rpn_model, rin_model, scene)
                for target in scene.object_ids():
                    assert outcome(lambda: describe_oracle(rpn_model, rin_model, scene, target,
                                                           cfg, scored=AboveOnly(scored))) == \
                        outcome(lambda: describe_oracle(rpn_model, rin_model, scene, target,
                                                        cfg, scored=scored))

    def test_agrees_on_small_random_corpus(self, rpn_model, rin_model):
        from refexp.evaluation import pipeline_oracle_check
        scenes = generate_scenes(SceneGenSpec(min_objects=2, max_objects=6, seed=99), 60)
        matches, total = pipeline_oracle_check(rpn_model, rin_model, scenes)
        assert matches == total


@st.composite
def tied_scorings(draw):
    """A scene of 2-7 objects over at most three types, and a scoring of some of its
    ordered pairs with confidences from {0.6, 0.7, 0.8}, so equal-confidence
    references are common."""
    n = draw(st.integers(2, 7))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    types = draw(st.lists(st.sampled_from(["book", "cup", "mouse"]), min_size=n, max_size=n))
    scene = make_scene((oid, name, (5 * k, 40, 4, 4))
                       for k, (oid, name) in enumerate(zip(ids, types)))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    relations = draw(st.lists(st.builds(
        lambda pair, cat, p, c: rel(*pair, cat, p, c), st.sampled_from(pairs),
        st.sampled_from([R.LEFT, R.RIGHT, R.ON_TOP]), st.sampled_from([0.4, 0.6, 0.9]),
        st.sampled_from([0.6, 0.7, 0.8])), min_size=1, max_size=3 * n))
    return scene, scored_from_relations(relations)


@settings(max_examples=200, deadline=None)
@given(tied_scorings())
def test_twin_matches_frozen_twin_and_describe_on_ties(scoring):
    """The one-pass twin picks what the frozen twin picks for every target, and what
    describe picks for every scored target."""
    scene, scored = scoring
    for target in scene.object_ids():
        got = outcome(lambda: describe_oracle(None, None, scene, target, scored=scored))
        assert got == outcome(lambda: frozen_describe_oracle(None, None, scene, target,
                                                             scored=scored))
        if target in scored.ids:
            assert got == outcome(lambda: describe(None, None, scene, target, scored=scored))
