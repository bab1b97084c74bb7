import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from refexp.scene import (CATEGORIES, BoundingBox, PipelineConfig, RelationCategory, Scene,
                          SceneFormatError, SceneObject, UnknownObjectError, _finite_numbers,
                          _is_finite_number, canonical_type_name, clamp_box, load_scene,
                          render_phrase, scene_from_json, scene_to_json)

from helpers import crowded_scene_doc, make_scene


def test_center_symmetric_box():
    assert BoundingBox(0, 0, 10, 10).center() == (5, 5)


def test_center_offset_box():
    assert BoundingBox(2, 4, 6, 8).center() == (5, 8)


def test_center_unit_box():
    assert BoundingBox(0, 0, 1, 1).center() == (0.5, 0.5)


@pytest.mark.parametrize("w,h", [(0, 5), (5, 0), (-1, 5)])
def test_box_rejects_non_positive_sides(w, h):
    with pytest.raises(ValueError):
        BoundingBox(0, 0, w, h)


def test_box_rejects_negative_origin():
    with pytest.raises(ValueError):
        BoundingBox(-1, 0, 5, 5)


def test_category_canonical_order():
    assert [c.value for c in sorted(RelationCategory, key=lambda c: c.index)] == [
        "right", "left", "on_top", "at_bottom", "in_front", "behind"]


def test_category_lookups_by_identity():
    R = RelationCategory
    assert R.__hash__ is object.__hash__
    table = {cat: cat.value for cat in R}
    assert [table[cat] for cat in CATEGORIES] == [c.value for c in CATEGORIES]
    assert R.LEFT in set(CATEGORIES) and R.LEFT in table
    assert R("left") is R.LEFT
    restored = pickle.loads(pickle.dumps(R.LEFT))
    assert restored is R.LEFT and table[restored] == "left" and restored in {R.LEFT}
    assert [cat.index for cat in CATEGORIES] == list(range(6))
    assert CATEGORIES.index(R.ON_TOP) == R.ON_TOP.index == 2


class TestRenderPhrase:
    def test_on_top(self):
        mouse = SceneObject(0, "mouse", BoundingBox(0, 0, 1, 1))
        book = SceneObject(1, "book", BoundingBox(2, 2, 1, 1))
        assert render_phrase(mouse, book, RelationCategory.ON_TOP) == \
            "The mouse on top of the book"

    def test_right(self):
        chair = SceneObject(0, "chair", BoundingBox(0, 0, 1, 1))
        couch = SceneObject(1, "couch", BoundingBox(2, 2, 1, 1))
        assert render_phrase(chair, couch, RelationCategory.RIGHT) == \
            "The chair to the right of the couch"

    def test_behind_takes_no_of(self):
        cup = SceneObject(0, "cup", BoundingBox(0, 0, 1, 1))
        ball = SceneObject(1, "sports ball", BoundingBox(2, 2, 1, 1))
        assert render_phrase(cup, ball, RelationCategory.BEHIND) == \
            "The cup behind the sports ball"

    def test_pure(self):
        a = SceneObject(0, "cup", BoundingBox(0, 0, 1, 1))
        b = SceneObject(1, "vase", BoundingBox(2, 2, 1, 1))
        first = render_phrase(a, b, RelationCategory.LEFT)
        assert render_phrase(a, b, RelationCategory.LEFT) == first


def test_canonical_type_name_lowers_and_strips():
    assert canonical_type_name("  Sports Ball ") == "sports ball"


def test_scene_object_canonicalizes_type():
    obj = SceneObject(0, "Book", BoundingBox(0, 0, 1, 1))
    assert obj.type_name == "book"


def test_scene_rejects_duplicate_ids():
    objs = (SceneObject(0, "a", BoundingBox(0, 0, 1, 1)),
            SceneObject(0, "b", BoundingBox(2, 2, 1, 1)))
    with pytest.raises(ValueError):
        Scene(10, 10, objs)


def test_scene_lookup_by_id_ignores_tuple_order():
    scene = make_scene([(5, "cup", (0, 0, 1, 1)), (2, "book", (3, 3, 1, 1))])
    assert scene.object_by_id(2).type_name == "book"
    assert scene.object_ids() == [2, 5]


def test_scene_unknown_id():
    scene = make_scene([(0, "cup", (0, 0, 1, 1)), (1, "book", (3, 3, 1, 1))])
    with pytest.raises(UnknownObjectError):
        scene.object_by_id(9)


def test_type_codes_number_types_in_sorted_id_order():
    scene = make_scene([(5, "cup", (0, 0, 1, 1)), (2, "book", (3, 3, 1, 1)),
                        (7, "cup", (6, 6, 1, 1))])
    ids, codes, counts = scene.type_codes
    assert (ids, codes.tolist(), counts) == ((2, 5, 7), [0, 1, 1], (1, 2))
    assert scene.type_codes[1] is codes
    with pytest.raises(ValueError, match="read-only"):
        codes[0] = 1


class TestPipelineConfig:
    def test_threshold_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                PipelineConfig(presence_threshold=bad)

    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.presence_threshold == 0.5


class TestSceneJson:
    DOC = {
        "image_width": 100,
        "image_height": 80,
        "objects": [
            {"id": 0, "type": "Book", "box": [1, 2, 10, 10]},
            {"id": 1, "type": "cup", "box": [30, 30, 5, 5]},
        ],
    }

    def test_happy_path(self):
        scene = scene_from_json(self.DOC)
        assert scene.image_width == 100
        assert scene.object_by_id(0).type_name == "book"

    def test_unknown_scene_field_named(self):
        doc = dict(self.DOC, extra=1)
        with pytest.raises(SceneFormatError, match="extra"):
            scene_from_json(doc)

    def test_unknown_object_field_named(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["objects"][1]["color"] = "red"
        with pytest.raises(SceneFormatError, match="color"):
            scene_from_json(doc)

    def test_missing_field(self):
        doc = {k: v for k, v in self.DOC.items() if k != "image_height"}
        with pytest.raises(SceneFormatError, match="image_height"):
            scene_from_json(doc)

    def test_unknown_field_named_before_missing_one(self):
        doc = {k: v for k, v in self.DOC.items() if k != "image_height"}
        with pytest.raises(SceneFormatError, match="^unknown field 'extra' in scene$"):
            scene_from_json(dict(doc, extra=1))
        doc = json.loads(json.dumps(self.DOC))
        doc["objects"][1] = {"id": 1, "color": "red", "type": "cup"}
        with pytest.raises(SceneFormatError, match=r"^unknown field 'color' in objects\[1\]$"):
            scene_from_json(doc)
        del doc["objects"][1]["color"]
        with pytest.raises(SceneFormatError, match=r"^missing field 'box' in objects\[1\]$"):
            scene_from_json(doc)

    def test_integer_and_float_boxes_parse_alike(self):
        floats = json.loads(json.dumps(self.DOC))
        for entry in floats["objects"]:
            entry["box"] = [float(v) for v in entry["box"]]
        scene = scene_from_json(self.DOC)
        assert scene == scene_from_json(floats)
        assert {type(v) for o in scene.objects for v in vars(o.box).values()} == {float}

    def test_overflowing_box_clamped_with_warning(self, caplog):
        doc = json.loads(json.dumps(self.DOC))
        doc["objects"][0]["box"] = [90, 70, 30, 30]
        with caplog.at_level("WARNING"):
            scene = scene_from_json(doc)
        box = scene.object_by_id(0).box
        assert (box.x, box.y, box.w, box.h) == (90, 70, 10, 10)
        assert any("clamped" in r.message for r in caplog.records)

    def test_fully_outside_box_rejected(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["objects"][0]["box"] = [200, 200, 5, 5]
        with pytest.raises(SceneFormatError, match="objects\\[0\\]"):
            scene_from_json(doc)

    def test_side_below_float_resolution_named(self):
        # inside the 1 x 2 image, but 1.0 + 5e-324 == 1.0: the box has no height
        doc = {"image_width": 1.0, "image_height": 2.0,
               "objects": [{"id": 0, "type": "a", "box": [0.0, 1.0, 1.0, 5e-324]}]}
        with pytest.raises(SceneFormatError, match=r"objects\[0\]: .*float resolution.*y \+ h == y"):
            scene_from_json(doc)

    def test_bool_is_not_a_number(self):
        doc = dict(self.DOC, image_width=True)
        with pytest.raises(SceneFormatError):
            scene_from_json(doc)

    @pytest.mark.parametrize("field", ["image_width", "image_height", "box"])
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, field, literal):
        # json.loads accepts these literals; the schema must not
        doc = json.loads(json.dumps(self.DOC))
        if field == "box":
            doc["objects"][1]["box"][2] = "@"
        else:
            doc[field] = "@"
        doc = json.loads(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(SceneFormatError, match="finite"):
            scene_from_json(doc)

    def test_object_count_bounded(self):
        assert len(scene_from_json(crowded_scene_doc(256)).objects) == 256
        with pytest.raises(SceneFormatError, match="257 objects; at most 256"):
            scene_from_json(crowded_scene_doc(257))

    def test_round_trip(self):
        scene = scene_from_json(self.DOC)
        again = scene_from_json(scene_to_json(scene))
        assert again == scene

    def test_load_scene_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError, match="not valid JSON"):
            load_scene(str(path))


def test_clamp_box_reports_change():
    box, changed = clamp_box(-5, 0, 10, 10, 100, 100)
    assert changed and box.x == 0 and box.w == 5
    _, unchanged = clamp_box(1, 1, 5, 5, 100, 100)
    assert unchanged is False


@st.composite
def scene_docs(draw, min_objects=0):
    """Scene documents whose boxes lie inside the image, so parsing clamps nothing;
    some box numbers are floored to JSON integers."""
    width, height = (draw(st.floats(1.0, 4096.0)) for _ in range(2))
    n = draw(st.integers(min_objects, 6))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    objects = []
    for oid in ids:
        x = draw(st.floats(0.0, width, exclude_max=True))
        y = draw(st.floats(0.0, height, exclude_max=True))
        w = draw(st.floats(0.0, width - x, exclude_min=True))
        h = draw(st.floats(0.0, height - y, exclude_min=True))
        x, y, w, h = (math.floor(v) if draw(st.booleans()) else v for v in (x, y, w, h))
        # a positive float area
        assume(0 < w and 0 < h and x < x + w <= width and y < y + h <= height)
        name = " ".join(draw(st.lists(st.text("abcxyz", min_size=1, max_size=5),
                                      min_size=1, max_size=2)))
        objects.append({"id": oid, "type": name, "box": [x, y, w, h]})
    return {"image_width": width, "image_height": height, "objects": objects}


# generation time is the machine's, not the property's
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(scene_docs())
def test_json_round_trip_property(doc):
    scene = scene_from_json(doc)
    assert scene_to_json(scene) == doc
    assert {type(v) for o in scene.objects for v in vars(o.box).values()} <= {float}
    floats = json.loads(json.dumps(doc))
    for entry in floats["objects"]:
        entry["box"] = [float(v) for v in entry["box"]]
    assert scene_from_json(floats) == scene
    assert scene_from_json(json.loads(json.dumps(scene_to_json(scene)))) == scene


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(scene_docs(min_objects=1), st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_box_number_rejected_property(doc, data, value):
    entry = data.draw(st.sampled_from(doc["objects"]))
    entry["box"][data.draw(st.integers(0, 3))] = value
    with pytest.raises(SceneFormatError, match="finite"):
        scene_from_json(doc)


# the smallest integer that float() rounds up past the largest float
_FLOAT_RANGE_END = 2**1024 - 2**970

# the scalars json.load gives: ints of any size, bools, strings, None, and
# floats with infinities and NaN
json_scalars = st.one_of(
    st.integers(), st.integers(2**53, 2**70), st.integers(-10**400, 10**400),
    st.sampled_from([_FLOAT_RANGE_END - 1, _FLOAT_RANGE_END, -_FLOAT_RANGE_END]),
    st.floats(), st.booleans(), st.text(max_size=3), st.none())


@settings(max_examples=300)
@given(st.lists(json_scalars, max_size=6))
@example([1.5, math.nan]).via("a NaN")
@example([2, -math.inf]).via("an infinity")
@example([0.5, True]).via("a bool")
@example([_FLOAT_RANGE_END - 1, _FLOAT_RANGE_END]).via("the end of the float range")
@example([2**53 + 1, 0.1]).via("an int that rounds")
def test_finite_numbers_is_the_number_rule_over_a_list(values):
    numbers = _finite_numbers(values)
    assert (numbers is not None) == all(map(_is_finite_number, values))
    if numbers is not None:
        assert numbers.dtype == np.float64
        assert numbers.tobytes() == np.array([float(v) for v in values], dtype=np.float64).tobytes()


@pytest.mark.parametrize("values", [(1.0, 2.0), {"0": 1.0}, "12", 1.0, None])
def test_finite_numbers_takes_only_a_list(values):
    assert _finite_numbers(values) is None
