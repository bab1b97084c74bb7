"""The array synthesis and extraction paths against the scalar loops they replaced.

The reference functions below are the per-pair, per-rule loops the datasets
were first built with; the array paths must reproduce their scenes, samples
and sample order exactly, so datasets written for a seed never change.
"""

import json
import logging

import numpy as np
import pytest

from refexp import datagen
from refexp.datagen import (DEFAULT_PREDICATE_SYNONYMS, DEFAULT_TYPE_POOL, RIN_FAR_DISTANCE,
                            RIN_NEAR_DISTANCE, RPN_MARGIN_GAP, RinSample, RpnSample, SceneGenSpec,
                            extract_rin_dataset, extract_rpn_dataset, generate_scenes,
                            normalize_predicate, read_vg_annotations, synth_rin_dataset,
                            synth_rpn_dataset)
from refexp.networks import encode_pair, encode_relation
from refexp.rules import rule_holds, rule_margins, rule_table
from refexp.scene import CATEGORIES, BoundingBox, Scene, SceneObject


# --- scalar references -----------------------------------------------------------

def reference_random_scene(spec, rng):
    n = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    names = [str(t) for t in rng.choice(np.asarray(DEFAULT_TYPE_POOL), size=n, replace=False)]
    if rng.random() < spec.duplicate_type_probability:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        names[j] = names[i]
    objects = []
    for oid in range(n):
        w = rng.uniform(0.05, 0.35) * spec.image_width
        h = rng.uniform(0.05, 0.35) * spec.image_height
        x = rng.uniform(0.0, spec.image_width - w)
        y = rng.uniform(0.0, spec.image_height - h)
        objects.append(SceneObject(oid, names[oid], BoundingBox(x, y, w, h)))
    return Scene(spec.image_width, spec.image_height, tuple(objects))


def reference_archetype_pair_scene(spec, rng, archetype):
    W, H = spec.image_width, spec.image_height
    if archetype == 0:
        w = rng.uniform(0.04, 0.20) * W
        h = rng.uniform(0.04, 0.20) * H
        gap = rng.uniform(0.02, 0.50) * W
        x0 = rng.uniform(0.0, max(W - 2 * w - gap, 1.0))
        y = rng.uniform(0.0, H - h)
        boxes = (BoundingBox(x0, y, w, h), BoundingBox(x0 + w + gap, y, w, h))
    elif archetype == 1:
        w = rng.uniform(0.04, 0.20) * W
        h = rng.uniform(0.04, 0.20) * H
        gap = rng.uniform(0.02, 0.50) * H
        x = rng.uniform(0.0, W - w)
        y0 = rng.uniform(0.0, max(H - 2 * h - gap, 1.0))
        boxes = (BoundingBox(x, y0, w, h), BoundingBox(x, y0 + h + gap, w, h))
    else:
        outer_w = rng.uniform(0.22, 0.35) * W
        slack_l = rng.uniform(0.03, 0.08) * W
        slack_r = rng.uniform(0.03, 0.08) * W
        inner_w = outer_w - slack_l - slack_r
        outer_h = rng.uniform(0.22, 0.35) * H
        inner_h = rng.uniform(0.3, 0.7) * outer_h
        x0 = rng.uniform(0.0, W - outer_w)
        y0 = rng.uniform(0.0, H - outer_h)
        inner_y = y0 + rng.uniform(0.0, outer_h - inner_h)
        boxes = (BoundingBox(x0, y0, outer_w, outer_h),
                 BoundingBox(x0 + slack_l, inner_y, inner_w, inner_h))
    return Scene(W, H, (SceneObject(0, "object", boxes[0]), SceneObject(1, "object", boxes[1])))


def reference_clear_dominant(scene, target, reference):
    margins = rule_margins(target.box, reference.box, scene.image_width, scene.image_height)
    if not margins:
        return None
    ordered = sorted(margins.items(), key=lambda kv: (-kv[1], kv[0].index))
    runner_up = ordered[1][1] if len(ordered) > 1 else 0.0
    if ordered[0][1] - runner_up < RPN_MARGIN_GAP:
        return None
    return ordered[0][0]


def reference_synth_rpn(spec, n, budget=200_000):
    """Samples, or None when the budget runs out, and the number of scenes drawn."""
    quotas = dict(zip(CATEGORIES, datagen._share(n, len(CATEGORIES))))
    pools = {cat: [] for cat in CATEGORIES}
    rng = np.random.default_rng(spec.seed)
    drawn = 0
    for step in range(budget):
        if all(len(pools[cat]) >= quotas[cat] for cat in CATEGORIES):
            break
        if step % 2 == 0:
            scene = reference_random_scene(spec, rng)
        else:
            scene = reference_archetype_pair_scene(spec, rng, (step // 2) % 3)
        drawn += 1
        for target in scene.objects:
            for reference in scene.objects:
                if target.id == reference.id:
                    continue
                cat = reference_clear_dominant(scene, target, reference)
                if cat is None or len(pools[cat]) >= quotas[cat]:
                    continue
                pools[cat].append(RpnSample(encode_pair(scene, target.id, reference.id), cat))
    if not all(len(pools[cat]) >= quotas[cat] for cat in CATEGORIES):
        return None, drawn
    return [sample for cat in CATEGORIES for sample in pools[cat]], drawn


def reference_synth_rin(spec, n, budget=200_000):
    """Samples, or None when the budget runs out, and the number of scenes drawn."""
    quotas = {}
    for cat, share in zip(CATEGORIES, datagen._share(n, len(CATEGORIES))):
        quotas[(cat, True)] = share - share // 2
        quotas[(cat, False)] = share // 2
    pools = {key: [] for key in quotas}
    rng = np.random.default_rng(spec.seed)
    drawn = 0
    for _ in range(budget):
        if all(len(pools[key]) >= quotas[key] for key in quotas):
            break
        scene = reference_random_scene(spec, rng)
        drawn += 1
        for target in scene.objects:
            tx, ty = target.box.center()

            def distance(obj):
                ox, oy = obj.box.center()
                return float(np.hypot((tx - ox) / scene.image_width,
                                      (ty - oy) / scene.image_height))

            for cat in CATEGORIES:
                satisfiers = [o for o in scene.objects if o.id != target.id
                              and rule_holds(target.box, o.box, cat)]
                if not satisfiers:
                    continue
                nearest = min(satisfiers, key=lambda o: (distance(o), o.id))
                for obj in satisfiers:
                    label = obj.id == nearest.id
                    if label and distance(obj) > RIN_NEAR_DISTANCE:
                        continue
                    if not label and distance(obj) < RIN_FAR_DISTANCE:
                        continue
                    if len(pools[(cat, label)]) >= quotas[(cat, label)]:
                        continue
                    pools[(cat, label)].append(
                        RinSample(encode_relation(scene, target.id, obj.id, cat), label))
    if not all(len(pools[key]) >= quotas[key] for key in quotas):
        return None, drawn
    return [sample for cat in CATEGORIES for label in (True, False)
            for sample in pools[(cat, label)]], drawn


def reference_extract_rpn(path, per_class_cap=990, seed=0):
    pools = {cat: [] for cat in CATEGORIES}
    for image in read_vg_annotations(path):
        for rel in image["relationships"]:
            cat = DEFAULT_PREDICATE_SYNONYMS.get(normalize_predicate(rel["predicate"]))
            if cat is None:
                continue
            subject = datagen._clamped(rel["subject"], image["width"], image["height"])
            reference = datagen._clamped(rel["object"], image["width"], image["height"])
            if subject is None or reference is None:
                continue
            scene = Scene(image["width"], image["height"],
                          (SceneObject(0, "subject", subject), SceneObject(1, "object", reference)))
            pools[cat].append(RpnSample(encode_pair(scene, 0, 1), cat))
    rng = np.random.default_rng(seed)
    return [sample for cat in CATEGORIES for sample in datagen._capped(rng, pools[cat], per_class_cap)]


def reference_extract_rin(path, per_class_cap=2057, seed=0):
    informative = {cat: [] for cat in CATEGORIES}
    uninformative = {cat: [] for cat in CATEGORIES}
    for image in read_vg_annotations(path):
        width, height = image["width"], image["height"]
        boxes, index = [], {}

        def box_id(raw):
            box = datagen._clamped(raw, width, height)
            if box is None:
                return None
            key = (box.x, box.y, box.w, box.h)
            if key not in index:
                index[key] = len(boxes)
                boxes.append(box)
            return index[key]

        annotated = set()
        for rel in image["relationships"]:
            cat = DEFAULT_PREDICATE_SYNONYMS.get(normalize_predicate(rel["predicate"]))
            subject, reference = box_id(rel["subject"]), box_id(rel["object"])
            if cat is None or subject is None or reference is None or subject == reference:
                continue
            annotated.add((subject, reference, cat))
        if not boxes:
            continue
        scene = Scene(width, height,
                      tuple(SceneObject(i, "object", box) for i, box in enumerate(boxes)))
        for subject, reference, cat in sorted(annotated, key=lambda t: (t[0], t[1], t[2].index)):
            informative[cat].append(RinSample(encode_relation(scene, subject, reference, cat), True))
        for subject in range(len(boxes)):
            for reference in range(len(boxes)):
                if subject == reference:
                    continue
                for cat in CATEGORIES:
                    if (subject, reference, cat) in annotated:
                        continue
                    if rule_holds(boxes[subject], boxes[reference], cat):
                        uninformative[cat].append(
                            RinSample(encode_relation(scene, subject, reference, cat), False))
    rng = np.random.default_rng(seed)
    samples = []
    for pools in (informative, uninformative):
        for cat in CATEGORIES:
            samples.extend(datagen._capped(rng, pools[cat], per_class_cap))
    return samples


def assert_same_samples(actual, expected):
    assert len(actual) == len(expected)
    assert [s.label for s in actual] == [s.label for s in expected]
    np.testing.assert_array_equal(np.array([s.features for s in actual]),
                                  np.array([s.features for s in expected]))


def count_scene_draws(monkeypatch):
    """Wrap the scene box draws through the module; returns the tally of box arrays."""
    drawn = []

    def cluttered(*args, original=datagen._cluttered_boxes):
        boxes, types = original(*args)
        assert boxes.shape == (len(types), 4)
        drawn.append(boxes)
        return boxes, types

    def archetype(*args, original=datagen._archetype_boxes):
        boxes = original(*args)
        assert boxes.shape == (2, 4)
        drawn.append(boxes)
        return boxes
    monkeypatch.setattr(datagen, "_cluttered_boxes", cluttered)
    monkeypatch.setattr(datagen, "_archetype_boxes", archetype)
    return drawn


SPECS = [SceneGenSpec(seed=0), SceneGenSpec(seed=7),
         SceneGenSpec(seed=3, min_objects=2, max_objects=9, duplicate_type_probability=1.0,
                      image_width=301.5, image_height=977.0)]


# --- scene draws -----------------------------------------------------------------

@pytest.mark.parametrize("objects", [(2, 2), (3, 7), (8, 12)])
@pytest.mark.parametrize("duplicates", [0.0, 1.0])
@pytest.mark.parametrize("size", [(640.0, 480.0), (123.25, 1999.0)])
def test_generate_scenes_equals_per_object_uniform_draws(objects, duplicates, size):
    for seed in range(6):
        spec = SceneGenSpec(min_objects=objects[0], max_objects=objects[1],
                            duplicate_type_probability=duplicates,
                            image_width=size[0], image_height=size[1], seed=seed)
        rng = np.random.default_rng(seed)
        expected = [reference_random_scene(spec, rng) for _ in range(12)]
        scenes = generate_scenes(spec, 12)
        assert scenes == expected
        assert all(type(v) is float for scene in scenes for o in scene.objects
                   for v in (o.box.x, o.box.y, o.box.w, o.box.h))


@pytest.mark.parametrize("size", [(640.0, 480.0), (123.25, 1999.0), (3.0, 2.0)])
def test_archetype_pair_scene_equals_scalar_uniform_draws(size):
    spec = SceneGenSpec(image_width=size[0], image_height=size[1])
    rng, expected_rng = np.random.default_rng(9), np.random.default_rng(9)
    for step in range(60):
        scene = datagen._archetype_pair_scene(spec, rng, step % 3)
        assert scene == reference_archetype_pair_scene(spec, expected_rng, step % 3)
        assert all(type(v) is float for o in scene.objects
                   for v in (o.box.x, o.box.y, o.box.w, o.box.h))
    assert rng.random() == expected_rng.random()  # both consumed the same stream


# --- synthesis -------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [7, 61])
def test_synth_rpn_equals_scalar_loop(spec, n):
    expected, _ = reference_synth_rpn(spec, n)
    assert_same_samples(synth_rpn_dataset(spec, n), expected)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [7, 61])
def test_synth_rin_equals_scalar_loop(spec, n):
    expected, _ = reference_synth_rin(spec, n)
    assert_same_samples(synth_rin_dataset(spec, n), expected)


def test_rpn_budget_edge_and_scene_draws(monkeypatch):
    spec = SceneGenSpec(seed=4)
    expected, needed = reference_synth_rpn(spec, 23)
    assert needed > datagen._BLOCK_STEPS  # the edge falls inside a later block
    drawn = count_scene_draws(monkeypatch)
    monkeypatch.setattr(datagen, "_SCENE_BUDGET", needed)
    assert_same_samples(synth_rpn_dataset(spec, 23), expected)
    assert needed <= len(drawn) < needed + datagen._BLOCK_STEPS
    monkeypatch.setattr(datagen, "_SCENE_BUDGET", needed - 1)
    assert reference_synth_rpn(spec, 23, budget=needed - 1)[0] is None
    with pytest.raises(RuntimeError, match="budget"):
        synth_rpn_dataset(spec, 23)


def test_rin_budget_edge_and_scene_draws(monkeypatch):
    spec = SceneGenSpec(seed=4)
    expected, needed = reference_synth_rin(spec, 250)
    assert needed > datagen._BLOCK_STEPS  # the edge falls inside a later block
    drawn = count_scene_draws(monkeypatch)
    monkeypatch.setattr(datagen, "_SCENE_BUDGET", needed)
    assert_same_samples(synth_rin_dataset(spec, 250), expected)
    assert needed <= len(drawn) < needed + datagen._BLOCK_STEPS
    monkeypatch.setattr(datagen, "_SCENE_BUDGET", needed - 1)
    assert reference_synth_rin(spec, 250, budget=needed - 1)[0] is None
    with pytest.raises(RuntimeError, match="budget"):
        synth_rin_dataset(spec, 250)


@pytest.mark.parametrize("spec", SPECS + [
    SceneGenSpec(seed=5, min_objects=2, max_objects=12, image_width=3.0, image_height=2.0)])
@pytest.mark.parametrize("synth, reference", [(synth_rpn_dataset, reference_synth_rpn),
                                              (synth_rin_dataset, reference_synth_rin)])
def test_block_size_does_not_change_samples(monkeypatch, spec, synth, reference):
    """Blocks of one scene, of a few mixed sizes (NaN padding in rin) and of more
    scenes than the dataset needs give the scalar loop's samples."""
    expected, _ = reference(spec, 61)
    for steps in (1, 7, 128, 1000):
        monkeypatch.setattr(datagen, "_BLOCK_STEPS", steps)
        assert_same_samples(synth(spec, 61), expected)


@pytest.mark.parametrize("kind, synth", [("rpn", synth_rpn_dataset), ("rin", synth_rin_dataset)])
def test_synthesis_logs_its_work_at_debug(monkeypatch, caplog, kind, synth):
    """One DEBUG line per dataset: samples, scenes drawn, rule_table calls and the
    ordered pairs of distinct boxes those calls scored."""
    drawn, calls = count_scene_draws(monkeypatch), []
    monkeypatch.setattr(datagen, "rule_table", lambda *args: calls.append(args) or rule_table(*args))
    monkeypatch.setattr(datagen, "_BLOCK_STEPS", 7)
    with caplog.at_level(logging.DEBUG, logger="refexp.datagen"):
        samples = synth(SceneGenSpec(seed=2), 40)
    pairs = sum(len(boxes) * (len(boxes) - 1) for boxes in drawn)
    assert [r.getMessage() for r in caplog.records] == [
        f"{kind} synthesis: {len(samples)} samples from {len(drawn)} scenes, "
        f"{len(calls)} rule_table calls, {pairs} pairs scored"]
    assert len(calls) == -(-len(drawn) // 7) > 1


# --- annotation extraction -------------------------------------------------------

def annotation_file(tmp_path):
    """Two images whose relationships share, repeat and mirror boxes; one box lies
    outside its image and one appears only in an unmapped relationship."""
    a = {"x": 10, "y": 10, "w": 20, "h": 20}
    b = {"x": 50, "y": 40, "w": 20, "h": 30}
    c = {"x": 15, "y": 70, "w": 60, "h": 20}
    wide = {"x": 5, "y": 5, "w": 90, "h": 90}
    doc = [
        {"image_id": 1, "width": 100, "height": 100, "relationships": [
            {"predicate": "left of", "subject": a, "object": b},
            {"predicate": "left of", "subject": a, "object": b},
            {"predicate": "right of", "subject": b, "object": a},
            {"predicate": "behind", "subject": a, "object": c},
            {"predicate": "on", "subject": a, "object": wide},
            {"predicate": "holding", "subject": c, "object": b},
            {"predicate": "holding", "subject": a, "object": {"x": 80, "y": 5, "w": 10, "h": 10}},
            {"predicate": "left of", "subject": a, "object": dict(a)},
            {"predicate": "under", "subject": wide, "object": {"x": 90, "y": 90, "w": 40, "h": 40}},
        ]},
        {"image_id": 2, "width": 64, "height": 48, "relationships": [
            {"predicate": "in front of", "subject": {"x": 4, "y": 30, "w": 10, "h": 10},
             "object": {"x": 4, "y": 2, "w": 10, "h": 10}},
            {"predicate": "in front of", "subject": {"x": 4, "y": 30, "w": 10, "h": 10},
             "object": {"x": 40, "y": 2, "w": 10, "h": 10}},
            {"predicate": "behind", "subject": {"x": 70, "y": 2, "w": 10, "h": 10},
             "object": {"x": 40, "y": 2, "w": 10, "h": 10}},
        ]},
    ]
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("cap", [990, 1])
def test_extract_rpn_equals_scalar_loop(tmp_path, cap):
    path = annotation_file(tmp_path)
    samples = extract_rpn_dataset(path, per_class_cap=cap, seed=5)
    assert {s.label for s in samples} >= {CATEGORIES[1], CATEGORIES[4]}
    assert_same_samples(samples, reference_extract_rpn(path, per_class_cap=cap, seed=5))


@pytest.mark.parametrize("cap", [2057, 2])
def test_extract_rin_equals_scalar_loop(tmp_path, cap):
    path = annotation_file(tmp_path)
    samples = extract_rin_dataset(path, per_class_cap=cap, seed=5)
    assert any(not s.label for s in samples)
    assert_same_samples(samples, reference_extract_rin(path, per_class_cap=cap, seed=5))
