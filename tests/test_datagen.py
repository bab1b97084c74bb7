"""Synthetic corpora, JSONL round trips and the annotation extractor."""

import json
import re
from collections import Counter

import numpy as np
import pytest

from refexp.datagen import (DEFAULT_TYPE_POOL, DatasetFormatError, SceneGenSpec,
                            extract_rin_dataset, extract_rpn_dataset, generate_scenes,
                            load_synonym_map,
                            mirrored_duplicate_scenes, normalize_predicate,
                            read_rin_samples, read_rpn_samples, read_scenes,
                            read_vg_annotations, rin_training_pairs, rpn_training_pairs,
                            synth_rin_dataset, synth_rpn_dataset, write_rin_samples,
                            write_rpn_samples, write_scenes)
from refexp.rules import dominant_category, rule_holds
from refexp.scene import RelationCategory, scene_to_json

from helpers import crowded_scene_doc


class TestSceneGenSpec:
    def test_min_objects_floor(self):
        with pytest.raises(ValueError):
            SceneGenSpec(min_objects=1)

    def test_pool_must_cover_max(self):
        with pytest.raises(ValueError):
            SceneGenSpec(max_objects=len(DEFAULT_TYPE_POOL) + 1)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            SceneGenSpec(duplicate_type_probability=1.5)


class TestGenerateScenes:
    def test_count_and_bounds(self):
        spec = SceneGenSpec(seed=3)
        scenes = generate_scenes(spec, 25)
        assert len(scenes) == 25
        for scene in scenes:
            assert spec.min_objects <= len(scene.objects) <= spec.max_objects
            for obj in scene.objects:
                assert obj.box.x >= 0 and obj.box.y >= 0
                assert obj.box.x + obj.box.w <= scene.image_width
                assert obj.box.y + obj.box.h <= scene.image_height
                assert obj.box.y + obj.box.h <= scene.image_height

    def test_sequential_ids(self):
        for scene in generate_scenes(SceneGenSpec(seed=1), 5):
            assert [o.id for o in scene.objects] == list(range(len(scene.objects)))

    def test_deterministic(self):
        assert generate_scenes(SceneGenSpec(seed=7), 10) == generate_scenes(SceneGenSpec(seed=7), 10)

    def test_seeds_differ(self):
        assert generate_scenes(SceneGenSpec(seed=1), 10) != generate_scenes(SceneGenSpec(seed=2), 10)


class TestSynthRpn:
    def test_balanced_and_labeled_by_dominant_rule(self):
        samples = synth_rpn_dataset(SceneGenSpec(seed=0), 60)
        counts = Counter(s.label for s in samples)
        assert all(counts[cat] == 10 for cat in RelationCategory)
        for s in samples:
            assert s.features.shape == (8,)
            assert (s.features >= 0).all() and (s.features <= 1).all()

    def test_near_quota_rounding(self):
        samples = synth_rpn_dataset(SceneGenSpec(seed=0), 100)
        counts = Counter(s.label for s in samples)
        assert sum(counts.values()) == 100
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_deterministic(self):
        a = synth_rpn_dataset(SceneGenSpec(seed=5), 30)
        b = synth_rpn_dataset(SceneGenSpec(seed=5), 30)
        assert all(np.array_equal(x.features, y.features) and x.label == y.label
                   for x, y in zip(a, b))

    def test_training_pairs_labels_are_indices(self):
        samples = synth_rpn_dataset(SceneGenSpec(seed=0), 12)
        pairs = rpn_training_pairs(samples)
        assert all(isinstance(label, int) and 0 <= label < 6 for _, label in pairs)


class TestSynthRin:
    def test_balanced_across_category_and_label(self):
        samples = synth_rin_dataset(SceneGenSpec(seed=0), 48)
        counts = Counter((RelationCategory(list(RelationCategory)[int(np.argmax(s.features[8:]))].value), s.label)
                         for s in samples)
        assert sum(counts.values()) == 48
        assert len(counts) == 12  # every (category, label) bucket non-empty
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_one_hot_block(self):
        for s in synth_rin_dataset(SceneGenSpec(seed=0), 24):
            assert s.features.shape == (14,)
            assert s.features[8:].sum() == 1.0

    def test_training_pairs_binary(self):
        pairs = rin_training_pairs(synth_rin_dataset(SceneGenSpec(seed=0), 24))
        assert {label for _, label in pairs} <= {0, 1}


class TestMirroredScenes:
    def test_structure(self):
        scenes = mirrored_duplicate_scenes(8, seed=7)
        assert len(scenes) == 8
        for scene in scenes:
            assert (scene.image_width, scene.image_height) == (640.0, 480.0)
            assert len(scene.objects) == 4
            names = [o.type_name for o in scene.objects]
            assert set(names) <= set(DEFAULT_TYPE_POOL)
            assert names[0] == names[2] and names[1] == names[3]
            assert names[0] != names[1]
            tops = {o.box.y for o in scene.objects}
            heights = {o.box.h for o in scene.objects}
            assert len(tops) == 1 and len(heights) == 1
            for obj in scene.objects:
                assert obj.box.x + obj.box.w <= scene.image_width
                assert obj.box.y + obj.box.h <= scene.image_height

    def test_duplicates_only_separated_horizontally(self):
        scene = mirrored_duplicate_scenes(1, seed=0)[0]
        a, b = scene.objects[0], scene.objects[2]
        cats = {c for c in RelationCategory if rule_holds(a.box, b.box, c)}
        assert cats <= {RelationCategory.RIGHT, RelationCategory.LEFT}
        assert cats

    def test_deterministic(self):
        assert mirrored_duplicate_scenes(5, seed=9) == mirrored_duplicate_scenes(5, seed=9)


class TestJsonlRoundTrips:
    def test_rpn_samples(self, tmp_path):
        samples = synth_rpn_dataset(SceneGenSpec(seed=0), 12)
        path = tmp_path / "rpn.jsonl"
        write_rpn_samples(str(path), samples)
        back = read_rpn_samples(str(path))
        assert len(back) == 12
        assert all(np.array_equal(a.features, b.features) and a.label == b.label
                   for a, b in zip(samples, back))

    def test_rin_samples(self, tmp_path):
        samples = synth_rin_dataset(SceneGenSpec(seed=0), 12)
        path = tmp_path / "rin.jsonl"
        write_rin_samples(str(path), samples)
        back = read_rin_samples(str(path))
        assert all(np.array_equal(a.features, b.features) and a.label == b.label
                   for a, b in zip(samples, back))

    def test_scenes(self, tmp_path):
        scenes = generate_scenes(SceneGenSpec(seed=2), 6)
        path = tmp_path / "scenes.jsonl"
        write_scenes(str(path), scenes)
        assert read_scenes(str(path)) == scenes

    def test_oversized_scene_is_named(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text(json.dumps(crowded_scene_doc(3)) + "\n" + json.dumps(crowded_scene_doc(257)) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2: scene has 257 objects"):
            read_scenes(str(path))

    def test_bad_line_is_named(self, tmp_path):
        path = tmp_path / "rpn.jsonl"
        path.write_text('{"features": [0.1], "label": 0}\n')
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_rpn_samples(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "rpn.jsonl"
        good = [0.1] * 8
        path.write_text(json.dumps({"features": good, "label": 9}) + "\n")
        with pytest.raises(DatasetFormatError):
            read_rpn_samples(str(path))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        path = tmp_path / "rpn.jsonl"
        line = json.dumps({"features": [0.1] * 8, "label": 0}).replace("0.1", bad, 1)
        path.write_text(line + "\n")
        with pytest.raises(DatasetFormatError, match="line 1.features"):
            read_rpn_samples(str(path))
        path.write_text(json.dumps({"features": [0.1] * 14, "label": True}).replace("0.1", bad, 1))
        with pytest.raises(DatasetFormatError, match="line 1.features"):
            read_rin_samples(str(path))


    @pytest.mark.parametrize("read, what", [(read_rpn_samples, "rpn dataset"),
                                            (read_rin_samples, "rin dataset"),
                                            (read_scenes, "scene corpus")])
    @pytest.mark.parametrize("content, problem", [(b"[" * 100_000, "is too deeply nested"),
                                                  (b"\xff\xfe{}", "is not UTF-8 text")],
                             ids=["nested", "not-utf8"])
    def test_undecodable_line_is_named(self, tmp_path, read, what, content, problem):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"\n" + content + b"\n")
        with pytest.raises(DatasetFormatError) as info:
            read(str(path))
        assert str(info.value) == f"{what} {path} line 2 {problem}"

    def test_lines_end_as_in_text_mode(self, tmp_path):
        """\\n, \\r\\n and a lone \\r each end a line, and blank lines are counted."""
        scenes = generate_scenes(SceneGenSpec(seed=2), 3)
        first, second, third = (json.dumps(scene_to_json(s)) for s in scenes)
        path = tmp_path / "scenes.jsonl"
        path.write_bytes(f"{first}\r\n\r{second}\r{third}\n \n".encode())
        assert read_scenes(str(path)) == scenes
        path.write_bytes(f"{first}\r\n\r{second}\r{third}\n \n{{bad".encode())
        with pytest.raises(DatasetFormatError, match=r"line 6\b.*not valid JSON"):
            read_scenes(str(path))


class TestPredicates:
    def test_normalization(self):
        assert normalize_predicate("  To   THE Left of ") == "to the left of"

    def test_synonym_map_round_trip(self, tmp_path):
        path = tmp_path / "synonyms.json"
        path.write_text(json.dumps({"left of": "left", "Above": "behind"}))
        mapping = load_synonym_map(str(path))
        assert mapping["left of"] is RelationCategory.LEFT
        assert mapping["above"] is RelationCategory.BEHIND

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "synonyms.json"
        path.write_text(json.dumps({"left of": "port side"}))
        with pytest.raises(DatasetFormatError):
            load_synonym_map(str(path))

    @pytest.mark.parametrize("value", [["on_top"], {"on": "on_top"}], ids=["list", "object"])
    def test_value_not_a_string_named(self, tmp_path, value):
        path = tmp_path / "synonyms.json"
        path.write_text(json.dumps({"on": value}))
        with pytest.raises(DatasetFormatError, match=re.escape(repr(value))):
            load_synonym_map(str(path))


def annotation_doc():
    return [{
        "image_id": 1,
        "width": 100,
        "height": 100,
        "relationships": [
            {"predicate": "to the right of",
             "subject": {"x": 60, "y": 40, "w": 20, "h": 20},
             "object": {"x": 10, "y": 40, "w": 20, "h": 20}},
            {"predicate": "behind",
             "subject": {"x": 10, "y": 5, "w": 20, "h": 20},
             "object": {"x": 30, "y": 60, "w": 20, "h": 20}},
            {"predicate": "holding",
             "subject": {"x": 0, "y": 0, "w": 10, "h": 10},
             "object": {"x": 50, "y": 50, "w": 10, "h": 10}},
        ],
    }]


class TestAnnotations:
    def test_read_validates_structure(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(annotation_doc()))
        images = read_vg_annotations(str(path))
        assert len(images) == 1
        assert len(images[0]["relationships"]) == 3

    def test_missing_field_named_with_path(self, tmp_path):
        doc = annotation_doc()
        del doc[0]["relationships"][1]["subject"]
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=r"images\[0\].relationships\[1\].subject"):
            read_vg_annotations(str(path))

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("bad", ["Infinity", "NaN"])
    def test_non_finite_image_size_rejected(self, tmp_path, field, bad):
        doc = annotation_doc()
        doc[0][field] = "BAD"
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc).replace('"BAD"', bad))
        with pytest.raises(DatasetFormatError, match=rf"images\[0\].{field}"):
            read_vg_annotations(str(path))

    @pytest.mark.parametrize("key", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_box_number_rejected(self, tmp_path, key, bad):
        doc = annotation_doc()
        doc[0]["relationships"][0]["object"][key] = "BAD"
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc).replace('"BAD"', bad))
        where = rf"images\[0\].relationships\[0\].object.{key}"
        with pytest.raises(DatasetFormatError, match=where):
            read_vg_annotations(str(path))
        with pytest.raises(DatasetFormatError, match=where):
            extract_rpn_dataset(str(path))

    def test_extra_fields_tolerated(self, tmp_path):
        doc = annotation_doc()
        doc[0]["url"] = "ignored"
        doc[0]["relationships"][0]["synsets"] = ["ignored"]
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        assert read_vg_annotations(str(path))

    def test_extract_rpn_skips_unmapped_predicates(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(annotation_doc()))
        samples = extract_rpn_dataset(str(path))
        assert len(samples) == 2
        assert {s.label for s in samples} == {RelationCategory.RIGHT, RelationCategory.BEHIND}

    @pytest.mark.parametrize("subject, reference", [
        ({"x": 10, "y": 10, "w": 20, "h": 20}, {"x": 10, "y": 10, "w": 20, "h": 20}),
        ({"x": 90, "y": 10, "w": 20, "h": 20}, {"x": 90, "y": 10, "w": 30, "h": 20}),
    ], ids=["equal", "equal-once-clamped"])
    def test_extract_rpn_skips_self_pairs(self, tmp_path, caplog, subject, reference):
        doc = annotation_doc()
        doc[0]["relationships"] = [{"predicate": "on", "subject": subject, "object": reference}]
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        with caplog.at_level("INFO", logger="refexp.datagen"):
            assert extract_rpn_dataset(str(path)) == []
        assert "dropped 1 relationships" in caplog.text

    def test_extract_rpn_cap(self, tmp_path):
        doc = annotation_doc()
        doc[0]["relationships"] = [doc[0]["relationships"][0]] * 7
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        samples = extract_rpn_dataset(str(path), per_class_cap=4)
        assert len(samples) == 4

    def test_extract_rin_labels_annotated_pairs_informative(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(annotation_doc()))
        samples = extract_rin_dataset(str(path))
        assert samples
        assert any(s.label for s in samples)
        for s in samples:
            assert s.features.shape == (14,)

    def test_negative_zero_corner_written_as_zero(self, tmp_path):
        """The extractors encode boxes as encode_pair does: a -0.0 corner is +0.0."""
        box = {"x": -0.0, "y": 10, "w": 10, "h": 10}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps([{"image_id": 1, "width": 100, "height": 100, "relationships": [
            {"predicate": "left of", "subject": box, "object": dict(box, x=50, y=-0.0)}]}]))
        for extract in (extract_rpn_dataset, extract_rin_dataset):
            samples = extract(str(path))
            assert samples and not any(np.signbit(s.features).any() for s in samples)

    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps([]))
        with caplog.at_level("WARNING"):
            assert extract_rpn_dataset(str(path)) == []
        assert any("no" in r.message.lower() for r in caplog.records)
