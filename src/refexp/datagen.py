"""Training-data construction: annotation extraction and synthetic generation.

Two sources feed the scorers: relationship annotations in the common visual
genome JSON layout, and seeded synthetic scenes labeled by the box rules.
Datasets are balanced per category with caps applied by seeded sampling, and
every emitted feature vector re-derives bit-exactly from its source boxes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import islice

import numpy as np

# perfbench/tracing.py patches encode_pair, rule_holds and rule_margins on this module
from .networks import (_ONE_HOT, PAIR_FEATURE_DIM, RIN_FEATURE_DIM, _unit_boxes,  # noqa: F401
                       encode_pair)
from .rules import rule_holds, rule_margins, rule_table  # noqa: F401
from .scene import (CATEGORIES, BoundingBox, RelationCategory, Scene, SceneFormatError,
                    SceneObject, _decode_error, _finite_numbers, _is_finite_number, _read_json,
                    clamp_box, scene_from_json, scene_to_json)

logger = logging.getLogger(__name__)


class DatasetFormatError(ValueError):
    """An annotation or dataset file is malformed."""


@dataclass(frozen=True, eq=False)
class RpnSample:
    features: np.ndarray  # 8 pair features
    label: RelationCategory


@dataclass(frozen=True, eq=False)
class RinSample:
    features: np.ndarray  # pair features plus one-hot category
    label: bool


DEFAULT_TYPE_POOL = ("book", "cup", "mouse", "bottle", "plate", "bowl",
                     "keyboard", "phone", "laptop", "vase", "ball", "remote")


@dataclass(frozen=True)
class SceneGenSpec:
    """Knobs for the seeded synthetic scene generator."""

    min_objects: int = 3
    max_objects: int = 7
    duplicate_type_probability: float = 0.5
    image_width: float = 640.0
    image_height: float = 480.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_objects < 2 or self.max_objects < self.min_objects:
            raise ValueError("need min_objects >= 2 and max_objects >= min_objects")
        if self.max_objects > len(DEFAULT_TYPE_POOL):
            raise ValueError(f"max_objects must not exceed the {len(DEFAULT_TYPE_POOL)} types "
                             "of the type pool")
        if not (0.0 <= self.duplicate_type_probability <= 1.0):
            raise ValueError("duplicate_type_probability must lie in [0, 1]")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")


def _cluttered_boxes(spec: SceneGenSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One cluttered scene's (n, 4) pixel boxes (x, y, w, h) and type-pool indices."""
    n = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    types = rng.choice(len(DEFAULT_TYPE_POOL), size=n, replace=False)
    if rng.random() < spec.duplicate_type_probability:
        # the ambiguity driver: force at least one repeated type
        i, j = rng.choice(n, size=2, replace=False)
        types[j] = types[i]
    W, H = spec.image_width, spec.image_height
    flat = []
    # the rng.uniform(low, high) draws low + (high - low) * u, from one read of doubles
    for uw, uh, ux, uy in rng.random((n, 4)).tolist():
        w = (0.05 + (0.35 - 0.05) * uw) * W
        h = (0.05 + (0.35 - 0.05) * uh) * H
        flat += ((W - w) * ux, (H - h) * uy, w, h)
    return np.array(flat).reshape(n, 4), types


def _random_scene(spec: SceneGenSpec, rng: np.random.Generator) -> Scene:
    boxes, types = _cluttered_boxes(spec, rng)
    return Scene(spec.image_width, spec.image_height, tuple(
        SceneObject(oid, DEFAULT_TYPE_POOL[t], BoundingBox(*box))
        for oid, (t, box) in enumerate(zip(types.tolist(), boxes.tolist()))))


def generate_scenes(spec: SceneGenSpec, count: int) -> list[Scene]:
    """Seeded batch of synthetic scenes; identical spec and count reproduce bits."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(spec.seed)
    return [_random_scene(spec, rng) for _ in range(count)]


def _share(total: int, buckets: int) -> list[int]:
    base, rem = divmod(total, buckets)
    return [base + 1 if i < rem else base for i in range(buckets)]


_SCENE_BUDGET = 200_000
_BLOCK_STEPS = 128  # scenes drawn per rule-table call in synthesis


def _blocks(n: int):
    """(start, stop) scene steps of each rule-table call of an n-sample synthesis: one
    scene per sample first (each synthesizer needs about one), at most eight blocks,
    then an eighth of a block, so few scenes are drawn past the last one needed."""
    start = 0
    while start < _SCENE_BUDGET:
        steps = min(8 * _BLOCK_STEPS, n) if start == 0 else max(1, _BLOCK_STEPS // 8)
        stop = min(start + steps, _SCENE_BUDGET)
        yield start, stop
        start = stop


# emission filters: only clear cases enter the datasets, so the mapping from
# features to label is single-valued and the learnability bars are honest
RPN_MARGIN_GAP = 0.08
RIN_NEAR_DISTANCE = 0.30
RIN_FAR_DISTANCE = 0.40


def _archetype_boxes(spec: SceneGenSpec, rng: np.random.Generator, archetype: int) -> np.ndarray:
    """The (2, 4) pixel boxes of a two-object scene exercising one relation axis.

    0: side-by-side boxes (left/right), 1: stacked boxes (in-front/behind),
    2: x-nested boxes with nested y spans (on-top/at-bottom), each at a random
    image position. Keeps the thresholded region well covered at every
    position and adjacency scale. Archetype 2's x slacks clear RPN_MARGIN_GAP,
    and no y rule fires on nested y spans, so each such scene gives one clear
    on-top pair (inner on outer) and one clear at-bottom pair (outer on inner).
    """
    W, H = spec.image_width, spec.image_height
    u = rng.random(8 if archetype == 2 else 5).tolist()  # as in _cluttered_boxes
    if archetype == 0:
        w = (0.04 + (0.20 - 0.04) * u[0]) * W
        h = (0.04 + (0.20 - 0.04) * u[1]) * H
        gap = (0.02 + (0.50 - 0.02) * u[2]) * W
        x0 = (W - 2 * w - gap) * u[3]
        y = (H - h) * u[4]
        flat = (x0, y, w, h, x0 + w + gap, y, w, h)
    elif archetype == 1:
        w = (0.04 + (0.20 - 0.04) * u[0]) * W
        h = (0.04 + (0.20 - 0.04) * u[1]) * H
        gap = (0.02 + (0.50 - 0.02) * u[2]) * H
        x = (W - w) * u[3]
        y0 = (H - 2 * h - gap) * u[4]
        flat = (x, y0, w, h, x, y0 + h + gap, w, h)
    else:
        # the x slacks clear RPN_MARGIN_GAP with headroom; the inner box keeps at least 0.04 W
        s0, s1 = RPN_MARGIN_GAP + 0.01, RPN_MARGIN_GAP + 0.05
        w0, w1 = 2 * s1 + 0.04, 2 * s1 + 0.19
        outer_w = (w0 + (w1 - w0) * u[0]) * W
        slack_l = (s0 + (s1 - s0) * u[1]) * W
        slack_r = (s0 + (s1 - s0) * u[2]) * W
        inner_w = outer_w - slack_l - slack_r
        outer_h = (0.22 + (0.35 - 0.22) * u[3]) * H
        inner_h = (0.3 + (0.7 - 0.3) * u[4]) * outer_h
        x0 = (W - outer_w) * u[5]
        y0 = (H - outer_h) * u[6]
        inner_y = y0 + (outer_h - inner_h) * u[7]
        flat = (x0, y0, outer_w, outer_h, x0 + slack_l, inner_y, inner_w, inner_h)
    return np.array(flat).reshape(2, 4)


def _archetype_pair_scene(spec: SceneGenSpec, rng: np.random.Generator,
                          archetype: int) -> Scene:
    first, second = _archetype_boxes(spec, rng, archetype).tolist()
    return Scene(spec.image_width, spec.image_height,
                 (SceneObject(0, "object", BoundingBox(*first)),
                  SceneObject(1, "object", BoundingBox(*second))))


def _synthesize(kind: str, spec: SceneGenSpec, n: int, quotas: list[int], draw, label) -> list:
    """The feature rows of an n-sample synthesis, one pool per quota. Each block of
    scenes ``draw(rng, step)`` gives is padded with NaN boxes into one (scenes, m, 4)
    array, and one ``rule_table`` call scores its ordered pairs of distinct boxes.
    ``label(boxes, unit boxes, pairs, margins)`` gives each candidate's pool slot and a
    function from candidate indices to feature rows. Pools fill in candidate order."""
    if n <= 0:
        raise ValueError("n must be positive")
    pools: list[list[np.ndarray]] = [[] for _ in quotas]
    rng = np.random.default_rng(spec.seed)
    scored = 0
    for calls, (start, stop) in enumerate(_blocks(n), 1):
        drawn = [draw(rng, step) for step in range(start, stop)]
        sizes = np.array([len(b) for b in drawn])
        real = np.arange(sizes.max()) < sizes[:, None]
        boxes = np.full(real.shape + (4,), np.nan)
        boxes[real] = np.concatenate(drawn)
        # (scene, target, reference) indices of the ordered pairs of distinct real boxes
        pairs = scenes, targets, references = np.nonzero(
            real[:, :, None] & real[:, None] & ~np.eye(real.shape[1], dtype=bool))
        scored += len(scenes)
        margins = rule_table(boxes[scenes, targets], boxes[scenes, references],
                             spec.image_width, spec.image_height)
        unit = _unit_boxes(boxes, spec.image_width, spec.image_height)
        slots, rows = label(boxes, unit, pairs, margins)
        picked = [np.flatnonzero(slots == k)[:quotas[k] - len(p)] for k, p in enumerate(pools)]
        taken = iter(rows(np.concatenate(picked)))  # one call builds every row a pool takes
        for pool, index in zip(pools, picked):
            pool.extend(islice(taken, len(index)))
        if all(len(pool) == quota for pool, quota in zip(pools, quotas)):
            logger.debug("%s synthesis: %d samples from %d scenes, %d rule_table calls, "
                         "%d pairs scored", kind, n, stop, calls, scored)
            return pools
    raise RuntimeError("scene budget exhausted before the dataset was balanced")


def synth_rpn_dataset(spec: SceneGenSpec, n: int) -> list[RpnSample]:
    """Rule-labeled pair samples, balanced across the six categories.

    Cluttered scenes alternate with two-box archetype scenes. Each ordered pair
    with a clearly dominant firing rule contributes that category until its
    share of n is filled; near-tie pairs are not emitted.
    """
    def draw(rng: np.random.Generator, step: int) -> np.ndarray:
        return (_cluttered_boxes(spec, rng)[0] if step % 2 == 0
                else _archetype_boxes(spec, rng, (step // 2) % 3))

    def label(boxes: np.ndarray, unit: np.ndarray, pairs: tuple, margins: np.ndarray):
        # the dominant rule is the largest margin, ties to the lowest category;
        # it is clear when it beats the runner-up (0.0 if none) by the gap
        ranked = np.where(np.isnan(margins), -np.inf, margins)
        runner_up, top = np.sort(ranked, axis=1)[:, -2:].T
        clear = np.flatnonzero(~(top - np.maximum(runner_up, 0.0) < RPN_MARGIN_GAP))
        scenes, targets, references = (axis[clear] for axis in pairs)
        return ranked[clear].argmax(axis=1), lambda i: np.hstack([unit[scenes[i], targets[i]],
                                                                  unit[scenes[i], references[i]]])

    pools = _synthesize("rpn", spec, n, _share(n, len(CATEGORIES)), draw, label)
    return [RpnSample(row, cat) for cat, pool in zip(CATEGORIES, pools) for row in pool]


def synth_rin_dataset(spec: SceneGenSpec, n: int) -> list[RinSample]:
    """Nearest-reference informativeness samples, balanced per category and label.

    For each target of a cluttered scene and each category, the rule-satisfying
    reference closest to the target (normalized center distance) is informative;
    other satisfiers are not. Only clear cases are emitted: informative ones
    within RIN_NEAR_DISTANCE, uninformative ones beyond RIN_FAR_DISTANCE. The
    band between keeps the two labels apart in feature space.
    """
    W, H = spec.image_width, spec.image_height

    def label(boxes: np.ndarray, unit: np.ndarray, pairs: tuple, margins: np.ndarray):
        holds = np.zeros((len(boxes), boxes.shape[1], boxes.shape[1], len(CATEGORIES)), dtype=bool)
        holds[pairs] = ~np.isnan(margins)
        cx, cy = np.moveaxis(boxes[..., :2] + boxes[..., 2:] / 2.0, -1, 0)
        distance = np.hypot((cx[:, :, None] - cx[:, None]) / W, (cy[:, :, None] - cy[:, None]) / H)
        # nearest satisfier per (scene, target, category), ties to the lowest id
        nearest = np.where(holds, distance[..., None], np.inf).argmin(axis=2)
        informative = nearest[:, :, None] == np.arange(boxes.shape[1])[:, None]
        clear = np.where(informative, ~(distance > RIN_NEAR_DISTANCE)[..., None],
                         ~(distance < RIN_FAR_DISTANCE)[..., None])
        # candidates in (scene, target, category, reference) order
        scenes, targets, cats, references = np.nonzero((holds & clear).transpose(0, 1, 3, 2))
        return (2 * cats + ~informative[scenes, targets, references, cats], lambda i: np.hstack(
            [unit[scenes[i], targets[i]], unit[scenes[i], references[i]], _ONE_HOT[cats[i]]]))

    # one pool per (category, label), informative first
    quotas = [q for share in _share(n, len(CATEGORIES)) for q in (share - share // 2, share // 2)]
    pools = _synthesize("rin", spec, n, quotas,
                        lambda rng, step: _cluttered_boxes(spec, rng)[0], label)
    return [RinSample(row, slot % 2 == 0) for slot, pool in enumerate(pools) for row in pool]


def mirrored_duplicate_scenes(count: int, seed: int = 0) -> list[Scene]:
    """Ambiguous 640 x 480 evaluation scenes built around a mirrored duplicate pair.

    Each scene is a single row of four boxes with equal sizes and a shared y,
    so only the left/right rules can fire. Two objects share a type (ids 0 and
    2) and each sits just left of its own landmark of a second type (ids 1 and
    3), so every landmark relation of one twin is mirrored by the other.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(count):
        duplicate_type, landmark_type = (
            str(t) for t in rng.choice(np.asarray(DEFAULT_TYPE_POOL), size=2, replace=False))
        # box sizes and gaps sized so every in-row relation has a wide margin
        w = rng.uniform(50.0, 80.0)
        h = rng.uniform(50.0, 80.0)
        y = rng.uniform(60.0, 480.0 - 60.0 - h)
        near_gap_left = rng.uniform(22.0, 38.0)
        near_gap_right = rng.uniform(22.0, 38.0)
        far_gap = rng.uniform(140.0, 190.0)
        x0 = rng.uniform(20.0, 40.0)
        xs = [x0,
              x0 + w + near_gap_left,
              x0 + 2 * w + near_gap_left + far_gap,
              x0 + 3 * w + near_gap_left + far_gap + near_gap_right]
        types = (duplicate_type, landmark_type, duplicate_type, landmark_type)
        scenes.append(Scene(640.0, 480.0,
                            tuple(SceneObject(i, types[i], BoundingBox(xs[i], y, w, h))
                                  for i in range(4))))
    return scenes


# --- visual-genome style annotation files --------------------------------------

DEFAULT_PREDICATE_SYNONYMS: dict[str, RelationCategory] = {
    "to the right of": RelationCategory.RIGHT,
    "right of": RelationCategory.RIGHT,
    "on the right of": RelationCategory.RIGHT,
    "on the right side of": RelationCategory.RIGHT,
    "to the left of": RelationCategory.LEFT,
    "left of": RelationCategory.LEFT,
    "on the left of": RelationCategory.LEFT,
    "on the left side of": RelationCategory.LEFT,
    "on top of": RelationCategory.ON_TOP,
    "on the top of": RelationCategory.ON_TOP,
    "atop": RelationCategory.ON_TOP,
    "above": RelationCategory.ON_TOP,
    "on": RelationCategory.ON_TOP,
    "at the bottom of": RelationCategory.AT_BOTTOM,
    "below": RelationCategory.AT_BOTTOM,
    "beneath": RelationCategory.AT_BOTTOM,
    "under": RelationCategory.AT_BOTTOM,
    "underneath": RelationCategory.AT_BOTTOM,
    "in front of": RelationCategory.IN_FRONT,
    "front of": RelationCategory.IN_FRONT,
    "behind": RelationCategory.BEHIND,
    "in back of": RelationCategory.BEHIND,
    "at the back of": RelationCategory.BEHIND,
}


def normalize_predicate(predicate: str) -> str:
    return " ".join(str(predicate).split()).lower()


def load_synonym_map(path: str) -> dict[str, RelationCategory]:
    """JSON object mapping predicate phrases to category names."""
    doc = _read_json(path, DatasetFormatError, "synonym map")
    if not isinstance(doc, dict):
        raise DatasetFormatError("synonym map must be a JSON object")
    by_value = {cat.value: cat for cat in CATEGORIES}
    mapping = {}
    for predicate, name in doc.items():
        if not isinstance(name, str) or name not in by_value:
            raise DatasetFormatError(f"synonym map value {name!r} is not a relation category")
        mapping[normalize_predicate(predicate)] = by_value[name]
    return mapping


def _require(condition: bool, where: str, problem: str) -> None:
    if not condition:
        raise DatasetFormatError(f"{where}: {problem}")


def _endpoint_box(entry: object, where: str) -> tuple[float, float, float, float]:
    _require(isinstance(entry, dict), where, "must be a JSON object")
    values = []
    for key in ("x", "y", "w", "h"):
        v = entry.get(key)
        _require(_is_finite_number(v), f"{where}.{key}", f"must be a finite number, got {v!r}")
        values.append(float(v))
    return tuple(values)


def read_vg_annotations(path: str) -> list[dict]:
    """Parse and structurally validate an annotation file; extras are tolerated."""
    doc = _read_json(path, DatasetFormatError, "annotation file")
    _require(isinstance(doc, list), "file", "top level must be a JSON array of images")
    images = []
    for i, image in enumerate(doc):
        where = f"images[{i}]"
        _require(isinstance(image, dict), where, "must be a JSON object")
        for key in ("image_id", "width", "height", "relationships"):
            _require(key in image, f"{where}.{key}", "missing")
        width, height = image["width"], image["height"]
        for name, v in (("width", width), ("height", height)):
            _require(_is_finite_number(v) and v > 0,
                     f"{where}.{name}", f"must be a positive finite number, got {v!r}")
        _require(isinstance(image["relationships"], list), f"{where}.relationships",
                 "must be a list")
        relationships = []
        for j, rel in enumerate(image["relationships"]):
            rwhere = f"{where}.relationships[{j}]"
            _require(isinstance(rel, dict), rwhere, "must be a JSON object")
            for key in ("predicate", "subject", "object"):
                _require(key in rel, f"{rwhere}.{key}", "missing")
            _require(isinstance(rel["predicate"], str), f"{rwhere}.predicate", "must be a string")
            relationships.append({
                "predicate": rel["predicate"],
                "subject": _endpoint_box(rel["subject"], f"{rwhere}.subject"),
                "object": _endpoint_box(rel["object"], f"{rwhere}.object"),
            })
        images.append({"image_id": image["image_id"], "width": float(width),
                       "height": float(height), "relationships": relationships})
    return images


def _clamped(raw: tuple[float, float, float, float], width: float,
             height: float) -> BoundingBox | None:
    try:
        box, _ = clamp_box(*raw, width, height)
        return box
    except SceneFormatError:
        return None


def _capped(rng: np.random.Generator, samples: list, cap: int) -> list:
    if len(samples) <= cap:
        return list(samples)
    picked = sorted(rng.permutation(len(samples))[:cap])
    return [samples[k] for k in picked]


def _annotated_images(path: str, synonyms: dict[str, RelationCategory]):
    """Per image: its size, its clamped (k, 4) pixel boxes in order of first
    mention (subject before object), and one (category, subject index, reference
    index) per relationship, None for an unmapped predicate or a box outside
    the image. Relationships sharing a box share its index."""
    for image in read_vg_annotations(path):
        width, height = image["width"], image["height"]
        index: dict[tuple[float, float, float, float], int] = {}

        def box_id(raw: tuple[float, float, float, float]) -> int | None:
            box = _clamped(raw, width, height)
            if box is None:
                return None
            return index.setdefault((box.x, box.y, box.w, box.h), len(index))

        relations = [(synonyms.get(normalize_predicate(rel["predicate"])),
                      box_id(rel["subject"]), box_id(rel["object"]))
                     for rel in image["relationships"]]
        yield width, height, np.array(list(index), dtype=float).reshape(-1, 4), relations


def extract_rpn_dataset(path: str, synonym_map: dict[str, RelationCategory] | None = None,
                        per_class_cap: int = 990, seed: int = 0) -> list[RpnSample]:
    """Presence samples from annotated relationships, capped per category.

    The annotated subject is the target, the annotated object the reference.
    Unmapped predicates are skipped and counted, and so is a relationship with
    a box outside the image or with equal clamped boxes, between which no rule
    holds; an empty file yields an empty dataset with a warning.
    """
    if per_class_cap <= 0:
        raise ValueError("per_class_cap must be positive")
    synonyms = DEFAULT_PREDICATE_SYNONYMS if synonym_map is None else synonym_map
    pools: dict[RelationCategory, list[RpnSample]] = {cat: [] for cat in CATEGORIES}
    skipped = dropped = 0
    for width, height, boxes, relations in _annotated_images(path, synonyms):
        unit = _unit_boxes(boxes, width, height)
        for cat, subject, reference in relations:
            if cat is None:
                skipped += 1
            elif subject is None or reference is None or subject == reference:
                dropped += 1
            else:
                pools[cat].append(RpnSample(np.concatenate((unit[subject], unit[reference])), cat))
    if skipped:
        logger.info("skipped %d relationships with unmapped predicates", skipped)
    if dropped:
        logger.info("dropped %d relationships with a box outside the image or equal boxes", dropped)
    rng = np.random.default_rng(seed)
    samples = [sample for cat in CATEGORIES for sample in _capped(rng, pools[cat], per_class_cap)]
    if not samples:
        logger.warning("no usable relationship annotations in %s", path)
    return samples


def extract_rin_dataset(path: str, synonym_map: dict[str, RelationCategory] | None = None,
                        per_class_cap: int = 2057, seed: int = 0) -> list[RinSample]:
    """Informativeness samples mined from annotations.

    Annotated pairs are informative. Pairs within the same image whose rule
    fires for a category but that were never annotated with it are
    uninformative; the boxes of every relationship count, mapped or not. Both
    sides are capped per category.
    """
    if per_class_cap <= 0:
        raise ValueError("per_class_cap must be positive")
    synonyms = DEFAULT_PREDICATE_SYNONYMS if synonym_map is None else synonym_map
    # one pool per category of informative samples, then one per category of uninformative ones
    pools: list[list[RinSample]] = [[] for _ in range(2 * len(CATEGORIES))]
    for width, height, boxes, relations in _annotated_images(path, synonyms):
        unit = _unit_boxes(boxes, width, height)
        annotated = {(subject, reference, cat.index) for cat, subject, reference in relations
                     if None not in (cat, subject, reference) and subject != reference}
        holds = np.nonzero(~np.isnan(rule_table(boxes[:, None], boxes[None, :], width, height)))
        unannotated = set(zip(*(axis.tolist() for axis in holds))) - annotated
        for first, label, triples in ((0, True, annotated), (len(CATEGORIES), False, unannotated)):
            for subject, reference, c in sorted(triples):
                pools[first + c].append(RinSample(
                    np.concatenate((unit[subject], unit[reference], _ONE_HOT[c])), label))
    rng = np.random.default_rng(seed)
    samples = [sample for pool in pools for sample in _capped(rng, pool, per_class_cap)]
    if not samples:
        logger.warning("no usable relationship annotations in %s", path)
    return samples


# --- JSONL persistence ----------------------------------------------------------

def _write_jsonl(path: str, docs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)


def write_rpn_samples(path: str, samples: list[RpnSample]) -> None:
    _write_jsonl(path, ({"features": [float(v) for v in sample.features],
                         "label": sample.label.index} for sample in samples))


def write_rin_samples(path: str, samples: list[RinSample]) -> None:
    _write_jsonl(path, ({"features": [float(v) for v in sample.features],
                         "label": bool(sample.label)} for sample in samples))


def write_scenes(path: str, scenes: list[Scene]) -> None:
    _write_jsonl(path, map(scene_to_json, scenes))


def _read_jsonl(path: str, what: str):
    """("<what> <path> line N", document) per non-blank line; a decode error names the same."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode reads lines
    for lineno, raw in enumerate(lines, start=1):
        where = f"{what} {path} line {lineno}"
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            doc = json.loads(line)
        except (RecursionError, ValueError) as exc:
            raise _decode_error(exc, DatasetFormatError, where) from None
        yield where, doc


def _read_samples(path: str, what: str, dim: int, expected: str, valid_label):
    for where, doc in _read_jsonl(path, what):
        _require(isinstance(doc, dict), where, "must be a JSON object")
        features = _finite_numbers(doc.get("features"))
        _require(features is not None and len(features) == dim,
                 f"{where}.features", f"must be a list of {dim} finite numbers")
        label = doc.get("label")
        _require(valid_label(label), f"{where}.label", f"must be {expected}, got {label!r}")
        yield features, label


def read_rpn_samples(path: str) -> list[RpnSample]:
    return [RpnSample(features, CATEGORIES[label]) for features, label in _read_samples(
        path, "rpn dataset", PAIR_FEATURE_DIM, "a category index",
        lambda v: not isinstance(v, bool) and isinstance(v, int) and 0 <= v < len(CATEGORIES))]


def read_rin_samples(path: str) -> list[RinSample]:
    return [RinSample(features, label) for features, label in _read_samples(
        path, "rin dataset", RIN_FEATURE_DIM, "true or false", lambda v: isinstance(v, bool))]


def read_scenes(path: str) -> list[Scene]:
    scenes = []
    for where, doc in _read_jsonl(path, "scene corpus"):
        try:
            scenes.append(scene_from_json(doc))
        except SceneFormatError as exc:
            raise DatasetFormatError(f"{where}: {exc}") from None
    return scenes


def rpn_training_pairs(samples: list[RpnSample]) -> list[tuple[np.ndarray, int]]:
    return [(s.features, s.label.index) for s in samples]


def rin_training_pairs(samples: list[RinSample]) -> list[tuple[np.ndarray, int]]:
    return [(s.features, int(s.label)) for s in samples]
