"""Scene model: bounding boxes, typed objects, relation categories, phrases.

All types here are immutable value objects. Scenes are read from a strict
JSON schema; boxes that spill over the image edge are clamped at ingestion
and a warning is logged.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)


class SceneFormatError(ValueError):
    """A scene JSON document violates the schema."""


class UnknownObjectError(LookupError):
    """An object id is not present in the scene."""


class RelationCategory(Enum):
    """The six spatial relation categories, in canonical order."""

    RIGHT = "right"
    LEFT = "left"
    ON_TOP = "on_top"
    AT_BOTTOM = "at_bottom"
    IN_FRONT = "in_front"
    BEHIND = "behind"

    # Members are singletons compared by identity, so the C-level identity hash
    # serves dict and set lookups; Enum's own hashes the name in Python.
    __hash__ = object.__hash__

    @property
    def index(self) -> int:
        return _CATEGORY_INDEX[self]


CATEGORIES: tuple[RelationCategory, ...] = tuple(RelationCategory)
_CATEGORY_INDEX = {cat: i for i, cat in enumerate(CATEGORIES)}

# Words joining the target noun to the reference noun. "behind" takes no "of".
PHRASE_FRAGMENTS: dict[RelationCategory, str] = {
    RelationCategory.RIGHT: "to the right of",
    RelationCategory.LEFT: "to the left of",
    RelationCategory.ON_TOP: "on top of",
    RelationCategory.AT_BOTTOM: "at the bottom of",
    RelationCategory.IN_FRONT: "in front of",
    RelationCategory.BEHIND: "behind",
}
# "The <target type> <fragment> the <reference type>"; parse_phrase reads the same template.
PHRASE_TEMPLATE = "The {} {} the {}"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates; (x, y) is the top-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"box corner must be non-negative, got x={self.x}, y={self.y}")

    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


def canonical_type_name(name: str) -> str:
    """Lower-case, whitespace-collapsed object type name."""
    canon = " ".join(str(name).split()).lower()
    if not canon:
        raise ValueError("object type name must be non-empty")
    return canon


@dataclass(frozen=True)
class SceneObject:
    id: int
    type_name: str
    box: BoundingBox

    def __post_init__(self) -> None:
        object.__setattr__(self, "type_name", canonical_type_name(self.type_name))


@dataclass(frozen=True)
class Scene:
    image_width: float
    image_height: float
    objects: tuple[SceneObject, ...]

    def __post_init__(self) -> None:
        if not (self.image_width > 0 and self.image_height > 0):
            raise ValueError("image dimensions must be positive")
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("object ids must be unique within a scene")

    @cached_property
    def _by_id(self) -> dict[int, SceneObject]:
        return {o.id: o for o in self.objects}

    def object_by_id(self, object_id: int) -> SceneObject:
        try:
            return self._by_id[object_id]
        except KeyError:
            raise UnknownObjectError(f"no object with id {object_id} in scene") from None

    def object_ids(self) -> list[int]:
        return sorted(self._by_id)

    @cached_property
    def type_codes(self) -> tuple[tuple[int, ...], np.ndarray, tuple[int, ...]]:
        """The sorted ids, their types as read-only codes 0, 1, ... in order of first
        appearance, and the object count of each code; derived once per scene."""
        ids, index = tuple(sorted(self._by_id)), {}
        codes = [index.setdefault(self._by_id[i].type_name, len(index)) for i in ids]
        counts, codes = tuple(map(codes.count, range(len(index)))), np.array(codes, dtype=int)
        codes.flags.writeable = False
        return ids, codes, counts


@dataclass(frozen=True)
class SpatialRelation:
    """One scored candidate: target stands in category-relation to reference."""

    target_id: int
    reference_id: int
    category: RelationCategory
    probability: float
    confidence: float

    def __post_init__(self) -> None:
        if self.target_id == self.reference_id:
            raise ValueError("a relation needs two distinct objects")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability out of [0,1]: {self.probability}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


@dataclass(frozen=True)
class ReferringExpression:
    target_id: int
    reference_id: int
    category: RelationCategory
    phrase: str

    def to_json(self) -> dict:
        return {
            "target_id": self.target_id,
            "reference_id": self.reference_id,
            "relation": self.category.value,
            "phrase": self.phrase,
        }


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the selection pipeline and the baseline."""

    presence_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.presence_threshold < 1.0):
            raise ValueError("presence_threshold must lie strictly between 0 and 1")


def render_phrase(target: SceneObject, reference: SceneObject, category: RelationCategory) -> str:
    """Deterministic surface template for one relation."""
    return PHRASE_TEMPLATE.format(target.type_name, PHRASE_FRAGMENTS[category], reference.type_name)


# --- strict scene JSON schema ------------------------------------------------

# ordered key sets: a document's keys() compare equal to one when it has exactly those keys
_SCENE_KEYS = dict.fromkeys(("image_width", "image_height", "objects"))
# Scoring holds n(n-1)*6 rin rows of 64 hidden floats (512 B) each: about
# 200 MB at this bound, about 12 GB at 2,000 objects.
_MAX_OBJECTS = 256
_OBJECT_KEYS = dict.fromkeys(("id", "type", "box"))
_BOX_TYPES = [float] * 4  # the types of a box the fast path takes


def _is_finite_number(v: object) -> bool:
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _finite_numbers(values: object) -> np.ndarray | None:
    """A list of exact ints and floats that ``_is_finite_number`` takes, as float64; else None."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        return None
    try:
        numbers = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return numbers if np.isfinite(numbers).all() else None


def _decode_error(exc: Exception, error: type[ValueError], what: str) -> ValueError:
    """``exc``, a ``RecursionError`` or ``ValueError`` of decoding ``what``, as ``error``."""
    if isinstance(exc, UnicodeDecodeError):
        return error(f"{what} is not UTF-8 text")
    if isinstance(exc, RecursionError):
        return error(f"{what} is too deeply nested")
    return error(f"{what} is not valid JSON: {exc}")  # or an integer past Python's digit limit


def _read_json(path: str, error: type[ValueError], what: str) -> object:
    """The JSON document in ``path``; a decode error is raised as ``error`` naming ``what``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise _decode_error(exc, error, f"{what} {path}") from None


def _reject_keys(doc: dict, keys: dict, where: str) -> None:
    """Name the first unknown key of ``doc``, else the first of ``keys`` it lacks."""
    for key in doc:
        if key not in keys:
            raise SceneFormatError(f"unknown field '{key}' in {where}")
    for key in keys:
        if key not in doc:
            raise SceneFormatError(f"missing field '{key}' in {where}")


def _require_number(value, where: str) -> float:
    if not _is_finite_number(value):
        raise SceneFormatError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def clamp_box(x: float, y: float, w: float, h: float,
              image_width: float, image_height: float) -> tuple[BoundingBox, bool]:
    """Clamp a raw box into the image. Returns (box, was_clamped).

    A box with no positive-area intersection with the image is rejected, and so
    is one with a side that vanishes when added to its corner.
    """
    if w <= 0 or h <= 0:
        raise SceneFormatError(f"box sides must be positive, got w={w}, h={h}")
    if x + w == x or y + h == y:
        raise SceneFormatError(f"box ({x}, {y}, {w}, {h}) has a side below float resolution "
                               f"at its corner: {'x + w == x' if x + w == x else 'y + h == y'}")
    left = max(x, 0.0)
    top = max(y, 0.0)
    right = min(x + w, float(image_width))
    bottom = min(y + h, float(image_height))
    if right <= left or bottom <= top:
        raise SceneFormatError(f"box ({x}, {y}, {w}, {h}) lies outside the image")
    if left == x and top == y and right == x + w and bottom == y + h:
        # already inside; avoid re-deriving w and h, which loses a bit
        return BoundingBox(x, y, w, h), False
    return BoundingBox(left, top, right - left, bottom - top), True


def scene_from_json(doc: object) -> Scene:
    """Parse one scene document; unknown fields are rejected by name."""
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    if doc.keys() != _SCENE_KEYS.keys():
        _reject_keys(doc, _SCENE_KEYS, "scene")
    width = _require_number(doc["image_width"], "image_width")
    height = _require_number(doc["image_height"], "image_height")
    if width <= 0 or height <= 0:
        raise SceneFormatError("image dimensions must be positive")
    if not isinstance(doc["objects"], list):
        raise SceneFormatError("objects must be a list")
    if len(doc["objects"]) > _MAX_OBJECTS:
        raise SceneFormatError(f"scene has {len(doc['objects'])} objects; "
                               f"at most {_MAX_OBJECTS} are accepted")

    objects = []
    for pos, entry in enumerate(doc["objects"]):
        if not isinstance(entry, dict):
            raise SceneFormatError(f"objects[{pos}] must be a JSON object")
        if entry.keys() != _OBJECT_KEYS.keys():
            _reject_keys(entry, _OBJECT_KEYS, f"objects[{pos}]")
        oid = entry["id"]
        if isinstance(oid, bool) or not isinstance(oid, int):
            raise SceneFormatError(f"objects[{pos}].id must be an integer")
        if not isinstance(entry["type"], str):
            raise SceneFormatError(f"objects[{pos}].type must be a string")
        raw = entry["box"]
        if not isinstance(raw, list) or len(raw) != 4:
            raise SceneFormatError(f"objects[{pos}].box must be [x, y, w, h]")
        # four finite floats pass as they are; anything else is checked one by one
        coords = raw if list(map(type, raw)) == _BOX_TYPES and math.isfinite(sum(raw)) else [
            _require_number(v, f"objects[{pos}].box[{k}]") for k, v in enumerate(raw)]
        try:
            box, was_clamped = clamp_box(*coords, width, height)
            obj = SceneObject(oid, entry["type"], box)
        except (SceneFormatError, ValueError) as exc:
            raise SceneFormatError(f"objects[{pos}]: {exc}") from None
        if was_clamped:
            logger.warning("object %s box %s clamped to image %gx%g", oid, coords, width, height)
        objects.append(obj)

    try:
        return Scene(width, height, tuple(objects))
    except ValueError as exc:
        raise SceneFormatError(str(exc)) from None


def scene_to_json(scene: Scene) -> dict:
    return {
        "image_width": scene.image_width,
        "image_height": scene.image_height,
        "objects": [
            {"id": o.id, "type": o.type_name, "box": [o.box.x, o.box.y, o.box.w, o.box.h]}
            for o in scene.objects
        ],
    }


def load_scene(path: str) -> Scene:
    return scene_from_json(_read_json(path, SceneFormatError, "scene"))
