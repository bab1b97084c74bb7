"""Baseline generator: ranked landmarks, fixed relation priority, no learning.

Every object of another type than the target is a landmark; the target's own
type-mates are its distractors. All of a target's landmarks are ranked in one
pass, by normalized area over center distance and over the count of the
landmark's own type-mates. Relations come from the presence net thresholded
at the configured value, and a relation is kept only when no distractor
repeats it against a landmark of the same type. Failure to find one is a
value, not an error.
"""

from __future__ import annotations

import math

from .mlp import MlpModel
# encode_pair is not called here; perfbench/tracing.py patches refexp.krreg.encode_pair
from .networks import (ScoredScene, distinct_relations, encode_pair,  # noqa: F401
                       presence_scores, validate_rpn)
from .scene import PipelineConfig, ReferringExpression, RelationCategory, Scene, render_phrase

DISTANCE_FLOOR = 1e-6
# The order in which a landmark's present relations are tried.
RELATION_PRIORITY = (RelationCategory.BEHIND, RelationCategory.IN_FRONT, RelationCategory.ON_TOP,
                     RelationCategory.AT_BOTTOM, RelationCategory.LEFT, RelationCategory.RIGHT)


def _ranked_landmarks(scene: Scene, target_id: int) -> list[tuple[int, float]]:
    """(landmark id, rank) for every object of another type, best first.

    Both divisors are floored (distance at 1e-6, type-mate count at 1) so the
    rank is always finite; equal ranks fall to the lower id.
    """
    target = scene.object_by_id(target_id)
    ids, types, type_counts = scene.type_codes
    w, h = scene.image_width, scene.image_height
    tx, ty = target.box.center()
    ranked = []
    for landmark, code in zip(map(scene.object_by_id, ids), types.tolist()):
        if landmark.type_name == target.type_name:
            continue
        area = (landmark.box.w / w) * (landmark.box.h / h)
        lx, ly = landmark.box.center()
        distance = math.hypot((tx - lx) / w, (ty - ly) / h)
        count = type_counts[code] - 1
        ranked.append((landmark.id, area / (max(distance, DISTANCE_FLOOR) * max(count, 1))))
    ranked.sort(key=lambda entry: (-entry[1], entry[0]))
    return ranked


def krreg_describe(rpn: MlpModel, scene: Scene, target_id: int,
                   cfg: PipelineConfig = PipelineConfig(), *,
                   scored: ScoredScene | None = None) -> ReferringExpression | None:
    """First distinctive relation of the best-ranked landmark, or None.

    Presence is read from ``scored``, the scene's ``score_scene`` result, when given.
    """
    validate_rpn(rpn)
    target = scene.object_by_id(target_id)
    ids = scene.object_ids() if scored is None else scored.ids
    present = (presence_scores(rpn, scene) > cfg.presence_threshold if scored is None
               else scored.present(cfg.presence_threshold))
    t = ids.index(target_id) if scored is None else scored.row(target_id)
    # distractors are the target's type-mates; a landmark's type holds its same-type landmarks
    distinct = dict(zip(ids, distinct_relations(scene, ids, t, present[t], lambda: present).tolist()))

    for landmark, _ in _ranked_landmarks(scene, target_id):
        for cat in RELATION_PRIORITY:
            if landmark in distinct and distinct[landmark][cat.index]:
                return ReferringExpression(target_id, landmark, cat,
                                           render_phrase(target, scene.object_by_id(landmark), cat))
    return None
