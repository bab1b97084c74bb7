"""Relation selection: threshold, per-category maxima, resemblance pruning, pick.

The stages run in a fixed order. A relation survives when no equally-typed
object pair offers the same category among the confident competitors; the
most informative survivor becomes the expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import MlpModel
from .networks import ScoredScene, distinct_relations, score_scene
from .scene import PipelineConfig, ReferringExpression, Scene, SpatialRelation, render_phrase


class EmptyCandidatesError(Exception):
    """No unambiguous relation is left for the target object."""


@dataclass(frozen=True, eq=False)
class RelationSets:
    """One target's selection stages over ``scored`` at ``threshold``; ``target`` is
    the target's row. ``above_threshold`` is NaN wherever no relation is above the
    threshold and ``best`` masks its per-(target, category) maxima; both are built
    on first read, once per scene and threshold. ``above_threshold.where(mask)``
    lists relations."""

    scored: ScoredScene
    threshold: float
    target: int

    @property
    def above_threshold(self) -> ScoredScene:
        return self._stages()[0]

    @property
    def best(self) -> np.ndarray:
        return self._stages()[1]

    def _stages(self) -> tuple:
        scored, threshold = self.scored, self.threshold
        return scored.memo(("stages", threshold), lambda: _scene_stages(scored, threshold))


def _preference(rel: SpatialRelation) -> tuple:
    # Highest confidence wins; ties fall to the lowest reference id, then to
    # the canonical category order.
    return (rel.confidence, -rel.reference_id, -rel.category.index)


def _scene_stages(scored: ScoredScene, threshold: float) -> tuple:
    """The stages that depend only on the scene and the threshold: the relations
    above it and the mask of per-(target, category) maxima among them."""
    above = scored.probabilities > threshold  # NaN compares False
    confidences = np.where(above, scored.confidences_at(above), np.nan)
    # per (target, category) the most confident relation; of tied references, the lowest id
    confidence = np.where(above, confidences, -np.inf)
    best = above & (confidence == confidence.max(axis=1, keepdims=True, initial=-np.inf))
    best &= best.cumsum(axis=1) == 1
    best.flags.writeable = False  # shared by the scene's targets, like the arrays it masks
    return ScoredScene(scored.ids, np.where(above, scored.probabilities, np.nan), confidences), best


def build_candidate_sets(scored: ScoredScene, target_id: int,
                         cfg: PipelineConfig = PipelineConfig()) -> RelationSets:
    """Threshold the scored scene and reduce it to per-category maxima.

    The probability test is strictly greater-than, so a relation sitting exactly
    at the threshold is excluded. The target-independent stages are computed
    when first read, once per threshold, and shared across the scene's targets.
    """
    return RelationSets(scored, cfg.presence_threshold, scored.row(target_id))


def eliminate_ambiguous(sets: RelationSets, scene: Scene) -> tuple[SpatialRelation, ...]:
    """Drop every target relation that a competitor (another object's per-category
    maximum) mirrors type-for-type. One pass, so removals never cascade; only the
    survivors are built as relations, and the competitors only for a target with
    a type-mate."""
    scored, t = sets.scored, sets.target
    own = scored.probabilities[t] > sets.threshold  # NaN compares False
    return scored.where(distinct_relations(scene, scored.ids, t, own, lambda: sets.best), t)


def select_relation(candidates) -> SpatialRelation:
    """Most confident candidate; deterministic tie-breaks; error when empty."""
    candidates = tuple(candidates)
    if not candidates:
        raise EmptyCandidatesError("every candidate relation was pruned or below threshold")
    return max(candidates, key=_preference)


def describe(rpn: MlpModel, rin: MlpModel, scene: Scene, target_id: int,
             cfg: PipelineConfig = PipelineConfig(), *,
             scored: ScoredScene | None = None) -> ReferringExpression:
    """Full pipeline: score the scene, prune ambiguity, render the phrase.

    Pass the scene's ``score_scene`` result as ``scored`` to share one scoring.
    """
    scene.object_by_id(target_id)
    scored = score_scene(rpn, rin, scene) if scored is None else scored
    sets = build_candidate_sets(scored, target_id, cfg)
    pruned = eliminate_ambiguous(sets, scene)
    chosen = select_relation(pruned)
    target = scene.object_by_id(chosen.target_id)
    reference = scene.object_by_id(chosen.reference_id)
    return ReferringExpression(chosen.target_id, chosen.reference_id, chosen.category,
                               render_phrase(target, reference, chosen.category))


def describe_oracle(rpn: MlpModel, rin: MlpModel, scene: Scene, target_id: int,
                    cfg: PipelineConfig = PipelineConfig(), *,
                    scored: ScoredScene | None = None) -> ReferringExpression:
    """Brute-force re-derivation of describe, kept deliberately naive.

    Shares only the scene scoring (``scored``, read through its relations above
    the threshold) with the main path; the selection logic is re-implemented
    with plain loops as a cross-check. A held relation naming an id the scene
    lacks raises ``UnknownObjectError``.
    """
    kind = scene.object_by_id(target_id).type_name
    scored = score_scene(rpn, rin, scene) if scored is None else scored
    threshold = cfg.presence_threshold
    held: dict[tuple, SpatialRelation] = {}
    for rel in scored.above(threshold):
        if rel.probability > threshold:
            held[(rel.target_id, rel.reference_id, rel.category)] = rel

    # one pass each: the type of every id held, then per (object, category) the most
    # confident relation; of tied references, the lowest id
    held_ids = {oid for key in held for oid in key[:2]}
    type_of = {oid: scene.object_by_id(oid).type_name for oid in held_ids}
    best: dict[tuple, SpatialRelation] = {}
    for (i, j, cat), rel in held.items():
        winner = best.get((i, cat))
        if (winner is None or rel.confidence > winner.confidence
                or (rel.confidence == winner.confidence and j < winner.reference_id)):
            best[(i, cat)] = rel

    # a relation is mirrored when a type-mate's best in its category has a reference of its type
    mates = [u for u, name in type_of.items() if name == kind and u != target_id]
    survivors = []
    for (i, j, cat), rel in held.items():
        if i == target_id and not any(
                (u, cat) in best and type_of[best[(u, cat)].reference_id] == type_of[j]
                for u in mates):
            survivors.append(rel)

    if not survivors:
        raise EmptyCandidatesError("every candidate relation was pruned or below threshold")
    chosen = survivors[0]
    for rel in survivors[1:]:
        if rel.confidence > chosen.confidence:
            chosen = rel
        elif rel.confidence == chosen.confidence:
            if rel.reference_id < chosen.reference_id:
                chosen = rel
            elif rel.reference_id == chosen.reference_id and rel.category.index < chosen.category.index:
                chosen = rel
    target = scene.object_by_id(chosen.target_id)
    reference = scene.object_by_id(chosen.reference_id)
    return ReferringExpression(chosen.target_id, chosen.reference_id, chosen.category,
                               render_phrase(target, reference, chosen.category))
