"""Baseline generator: ranked landmarks, fixed relation priority, no learning.

Landmarks are every object that is not the target and not one of its same-type
distractors. Each landmark is ranked by normalized area over distance and own
distractor count; relations come from the presence net thresholded at the
configured value, and a relation is kept only when no distractor repeats it
against an equally-typed landmark. Failure to find one is a value, not an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mlp import MlpModel
# encode_pair is not called here; perfbench/tracing.py patches refexp.krreg.encode_pair
from .networks import ScoredScene, encode_pair, presence_scores, validate_rpn  # noqa: F401
from .scene import PipelineConfig, ReferringExpression, Scene, render_phrase

DISTANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class LandmarkRank:
    landmark_id: int
    rank: float
    distance: float
    distractor_count: int


def distractors(scene: Scene, target_id: int) -> set[int]:
    """Ids of the other objects sharing the target's type."""
    target = scene.object_by_id(target_id)
    return {o.id for o in scene.objects if o.id != target_id and o.type_name == target.type_name}


def landmarks(scene: Scene, target_id: int) -> set[int]:
    """Ids of every object that is neither the target nor one of its distractors."""
    scene.object_by_id(target_id)
    same_type = distractors(scene, target_id)
    return {o.id for o in scene.objects if o.id != target_id and o.id not in same_type}


def rank(scene: Scene, target_id: int, landmark_id: int) -> LandmarkRank:
    """Normalized landmark area over center distance and distractor count.

    Both divisors are floored (distance at 1e-6, count at 1) so the rank is
    always finite.
    """
    if landmark_id not in landmarks(scene, target_id):
        raise ValueError(f"object {landmark_id} is not a landmark for target {target_id}")
    target = scene.object_by_id(target_id)
    landmark = scene.object_by_id(landmark_id)
    w, h = scene.image_width, scene.image_height
    area = (landmark.box.w / w) * (landmark.box.h / h)
    tx, ty = target.box.center()
    lx, ly = landmark.box.center()
    distance = math.hypot((tx - lx) / w, (ty - ly) / h)
    count = len(distractors(scene, landmark_id))
    value = area / (max(distance, DISTANCE_FLOOR) * max(count, 1))
    return LandmarkRank(landmark_id, value, distance, count)


def krreg_describe(rpn: MlpModel, scene: Scene, target_id: int,
                   cfg: PipelineConfig = PipelineConfig(), *,
                   scored: ScoredScene | None = None) -> ReferringExpression | None:
    """First distinctive relation of the best-ranked landmark, or None.

    Presence is read from ``scored``, the scene's ``score_scene`` result, when given.
    """
    validate_rpn(rpn)
    target = scene.object_by_id(target_id)
    if len(scene.objects) < 2:
        raise ValueError("scene must contain at least 2 objects")

    probabilities = presence_scores(rpn, scene) if scored is None else scored.probabilities
    present = probabilities > cfg.presence_threshold
    index = {oid: k for k, oid in enumerate(scene.object_ids())}

    distractor_rows = [index[d] for d in distractors(scene, target_id)]
    landmark_ids = landmarks(scene, target_id)
    type_of = {o.id: o.type_name for o in scene.objects}
    ranked = sorted((rank(scene, target_id, l) for l in landmark_ids),
                    key=lambda r: (-r.rank, r.landmark_id))

    for entry in ranked:
        landmark = entry.landmark_id
        same_type = [index[o] for o in landmark_ids if type_of[o] == type_of[landmark]]
        repeats = present[distractor_rows][:, same_type]
        for cat in cfg.relation_priority:
            if not present[index[target_id], index[landmark], cat.index]:
                continue
            if not repeats[:, :, cat.index].any():
                reference = scene.object_by_id(landmark)
                return ReferringExpression(target_id, landmark, cat,
                                           render_phrase(target, reference, cat))
    return None
