import pytest

import refexp.pipeline as pipeline
from refexp.datagen import mirrored_duplicate_scenes
from refexp.evaluation import (AMBIGUOUS, UNAMBIGUOUS, CaseRecord, EvalReport,
                               MethodCounts, OracleTypeError, ambiguity_oracle,
                               compare_corpus, parse_phrase, pipeline_oracle_check)
from refexp.mlp import MlpModel
from refexp.scene import ReferringExpression, RelationCategory, render_phrase

from helpers import make_scene, mixed_corpus, two_books_and_mouse

R = RelationCategory


def expression(scene, target_id, reference_id, category):
    phrase = render_phrase(scene.object_by_id(target_id),
                           scene.object_by_id(reference_id), category)
    return ReferringExpression(target_id, reference_id, category, phrase)


class TestParsePhrase:
    @pytest.mark.parametrize("category", list(R))
    def test_round_trip_each_category(self, category):
        scene = make_scene([(0, "book", (0, 0, 5, 5)), (1, "sports ball", (10, 10, 5, 5))])
        phrase = render_phrase(scene.object_by_id(0), scene.object_by_id(1), category)
        assert parse_phrase(phrase) == [("book", category, "sports ball")]

    def test_every_reading_of_a_type_holding_a_fragment(self):
        phrase = "The cup to the left of the shelf to the left of the table behind the bed"
        assert parse_phrase(phrase) == [
            ("cup", R.LEFT, "shelf to the left of the table behind the bed"),
            ("cup to the left of the shelf", R.LEFT, "table behind the bed"),
            ("cup to the left of the shelf to the left of the table", R.BEHIND, "bed")]
        # two occurrences of " behind the " sharing a space
        assert parse_phrase("The cup behind the behind the bed") == [
            ("cup", R.BEHIND, "behind the bed"), ("cup behind the", R.BEHIND, "bed")]

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError):
            parse_phrase("A book to the left of the mouse")

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            parse_phrase("The book near the mouse")


class TestAmbiguityOracle:
    def test_unique_pair_is_unambiguous(self):
        scene = make_scene([(0, "book", (10, 40, 10, 10)), (1, "mouse", (40, 40, 10, 10))])
        verdict = ambiguity_oracle(scene, expression(scene, 0, 1, R.LEFT))
        assert verdict == UNAMBIGUOUS

    def test_twin_targets_are_ambiguous(self):
        # both books right of the mouse, so the phrase fits two pairs
        scene = make_scene([(0, "mouse", (5, 40, 8, 8)),
                            (1, "book", (30, 40, 10, 10)),
                            (2, "book", (60, 40, 10, 10))])
        verdict = ambiguity_oracle(scene, expression(scene, 1, 0, R.RIGHT))
        assert verdict == AMBIGUOUS

    def test_unique_pair_with_wrong_target_is_ambiguous(self):
        # the stated relation singles out object 2, yet the speaker meant 1
        scene = make_scene([(0, "mouse", (40, 40, 8, 8)),
                            (1, "book", (10, 40, 10, 10)),
                            (2, "book", (70, 40, 10, 10))])
        claim = ReferringExpression(1, 0, R.RIGHT, "The book to the right of the mouse")
        assert ambiguity_oracle(scene, claim) == AMBIGUOUS

    def test_missing_type_raises(self):
        scene = make_scene([(0, "book", (10, 40, 10, 10)), (1, "mouse", (40, 40, 10, 10))])
        claim = ReferringExpression(0, 1, R.LEFT, "The vase to the left of the mouse")
        with pytest.raises(OracleTypeError):
            ambiguity_oracle(scene, claim)

    # "The cup to the left of the shelf to the right of the table" reads as a cup left
    # of a "shelf to the right of the table" or as a "cup to the left of the shelf"
    # right of a table; only readings whose two types occur in the scene count
    @pytest.mark.parametrize("objects, verdict", [
        ([(0, "cup", (10, 40, 10, 10)), (1, "table", (40, 38, 20, 14))], OracleTypeError),
        ([(0, "cup", (10, 40, 10, 10)), (1, "shelf to the right of the table", (40, 38, 20, 14)),
          (2, "cup", (75, 40, 10, 10))], UNAMBIGUOUS),
        # both readings count; either one alone would single out object 0
        ([(0, "cup to the left of the shelf", (75, 40, 10, 10)), (1, "table", (40, 38, 20, 14)),
          (2, "cup", (10, 40, 10, 10)), (3, "shelf to the right of the table", (90, 5, 5, 5))],
         AMBIGUOUS),
        ([(0, "cup", (10, 40, 10, 10)), (1, "shelf to the right of the table", (40, 38, 20, 14)),
          (2, "cup to the left of the shelf", (75, 40, 10, 10)), (3, "table", (90, 5, 5, 5))],
         AMBIGUOUS),
    ], ids=["no-reading", "one-reading", "two-readings-right-fits", "two-readings-left-fits"])
    def test_type_names_holding_a_fragment(self, objects, verdict):
        scene = make_scene(objects)
        claim = ReferringExpression(
            0, 1, R.LEFT, "The cup to the left of the shelf to the right of the table")
        if verdict is OracleTypeError:
            with pytest.raises(OracleTypeError):
                ambiguity_oracle(scene, claim)
        else:
            assert ambiguity_oracle(scene, claim) == verdict

    def test_same_type_pair_can_still_be_unambiguous(self):
        scene = make_scene([(0, "cup", (10, 40, 10, 10)), (1, "cup", (50, 40, 10, 10))])
        verdict = ambiguity_oracle(scene, expression(scene, 1, 0, R.RIGHT))
        assert verdict == UNAMBIGUOUS

    def test_judges_from_phrase_not_ids(self):
        """A false phrase stays false even when the ids happen to be right."""
        scene = make_scene([(0, "book", (10, 40, 10, 10)), (1, "mouse", (40, 40, 10, 10))])
        lie = ReferringExpression(0, 1, R.RIGHT, "The book to the right of the mouse")
        assert ambiguity_oracle(scene, lie) == AMBIGUOUS


class TestCounts:
    def test_rates(self):
        counts = MethodCounts(unambiguous=8, ambiguous=2, no_expression=10)
        assert counts.cases == 20
        assert counts.expressions == 10
        assert counts.unambiguous_rate_over_expressions() == 0.8
        assert counts.unambiguous_rate_over_cases() == 0.4

    def test_empty_rates_are_zero(self):
        counts = MethodCounts()
        assert counts.unambiguous_rate_over_expressions() == 0.0
        assert counts.unambiguous_rate_over_cases() == 0.0

    def test_report_json_shape(self):
        record = CaseRecord(0, 1, "The a behind the b", UNAMBIGUOUS, None, None, False)
        report = EvalReport(records=[record])
        report.ours.unambiguous += 1
        report.krreg.no_expression += 1
        doc = report.to_json()
        assert doc["case_count"] == 1
        assert doc["ours"]["unambiguous"] == 1
        assert doc["krreg"]["no_expression"] == 1
        assert doc["records"][0]["krreg"]["phrase"] is None


class TestCompareCorpus:
    def test_empty_corpus_rejected(self, rpn_model, rin_model):
        with pytest.raises(ValueError):
            compare_corpus(rpn_model, rin_model, [])

    def test_counts_add_up(self, rpn_model, rin_model):
        scenes = mirrored_duplicate_scenes(5, seed=8)
        report = compare_corpus(rpn_model, rin_model, scenes)
        expected_cases = sum(len(s.objects) for s in scenes)
        assert report.case_count == expected_cases
        assert report.ours.cases == expected_cases
        assert report.krreg.cases == expected_cases
        assert 0.0 <= report.agreement_rate <= 1.0

    def test_agreement_on_clean_scene(self, rpn_model, rin_model):
        report = compare_corpus(rpn_model, rin_model, [two_books_and_mouse()])
        by_target = {r.target_id: r for r in report.records}
        # both methods call the right-hand book the same way
        assert by_target[2].agree
        assert by_target[2].ours_phrase == "The book to the right of the mouse"

    def test_silent_baseline_counts_as_disagreement(self, rpn_model, rin_model):
        report = compare_corpus(rpn_model, rin_model, mirrored_duplicate_scenes(2, seed=7))
        silent = [r for r in report.records if r.krreg_phrase is None]
        assert silent
        assert all(not r.agree for r in silent if r.ours_phrase is not None)

    def test_both_silent_counts_as_agreement(self, rpn_model, rin_model):
        # coincident twins: every candidate is mirrored, and no landmark exists
        scene = make_scene([(0, "cup", (40, 40, 20, 20)), (1, "cup", (40, 40, 20, 20))])
        report = compare_corpus(rpn_model, rin_model, [scene])
        assert [(r.ours_phrase, r.krreg_phrase, r.agree) for r in report.records] == \
            [(None, None, True)] * 2


@pytest.mark.parametrize("run", [compare_corpus, pipeline_oracle_check])
def test_each_scene_scored_once(monkeypatch, rpn_model, rin_model, run):
    """One score_scene call and one batch per net for each scene, shared by
    every target, the baseline and the twin; the target-independent selection
    stages are built at most once per scene (one memo miss), and only for a
    scene where some target has a type-mate to compete with."""
    scored, batches, misses = [], [], []
    score_scene, forward_batch = pipeline.score_scene, MlpModel.forward_batch
    scene_stages = pipeline._scene_stages

    def counting_score(rpn, rin, scene):
        scored.append((score_scene(rpn, rin, scene), scene))  # held, so ids stay unique
        return scored[-1][0]

    def counting_forward(model, features):
        batches.append(model)
        return forward_batch(model, features)

    def counting_stages(scored_scene, threshold):
        misses.append(next(s for held, s in scored if held is scored_scene))
        return scene_stages(scored_scene, threshold)

    monkeypatch.setattr(pipeline, "score_scene", counting_score)
    monkeypatch.setattr(MlpModel, "forward_batch", counting_forward)
    monkeypatch.setattr(pipeline, "_scene_stages", counting_stages)
    scenes = mixed_corpus()[::4]
    run(rpn_model, rin_model, scenes)
    assert [id(s) for _, s in scored] == [id(s) for s in scenes]
    assert [id(m) for m in batches] == [id(rpn_model), id(rin_model)] * len(scenes)
    with_mates = [s for s in scenes if max(s.type_codes[2]) > 1]
    assert 0 < len(with_mates) < len(scenes)
    assert [id(s) for s in misses] == [id(s) for s in with_mates]
