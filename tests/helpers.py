"""Shared builders for the test suite."""

import numpy as np

from refexp.datagen import SceneGenSpec, generate_scenes, mirrored_duplicate_scenes
from refexp.networks import ScoredScene, encode_pair, encode_relation, score_scene
from refexp.pipeline import EmptyCandidatesError
from refexp.scene import (CATEGORIES, BoundingBox, ReferringExpression, Scene, SceneObject,
                          render_phrase)


def split_pairs(pairs, seed=0, fraction=0.1):
    """Deterministic holdout split, test slice first."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    n_test = int(round(len(pairs) * fraction))
    test = [pairs[i] for i in order[:n_test]]
    rest = [pairs[i] for i in order[n_test:]]
    return rest, test


def make_scene(entries, width=100.0, height=100.0):
    """entries: iterable of (id, type_name, (x, y, w, h))."""
    objects = tuple(SceneObject(oid, name, BoundingBox(*box)) for oid, name, box in entries)
    return Scene(width, height, objects)


def crowded_scene_doc(n):
    """A scene JSON document of n small boxes on a 16-column grid in a 100 x 80 image."""
    return {"image_width": 100, "image_height": 80,
            "objects": [{"id": i, "type": f"type{i % 5}", "box": [i % 16 * 6, i // 16 * 4, 5, 3]}
                        for i in range(n)]}


def two_books_and_mouse():
    # Target book 2 sits right of the mouse, twin book 0 on the far left.
    return make_scene([
        (0, "book", (84, 300, 70, 44)),
        (1, "mouse", (284, 300, 56, 36)),
        (2, "book", (380, 295, 70, 44)),
    ], width=640, height=480)


def mixed_corpus():
    """Generated scenes of 2-10 objects, often with duplicate types, then
    mirrored-duplicate rows."""
    return (generate_scenes(SceneGenSpec(min_objects=2, max_objects=10, seed=31), 40)
            + mirrored_duplicate_scenes(20, seed=31))


def full_batch_scored(rpn, rin, scene):
    """The scene scored with every (pair, category) row in one rin batch: the
    reference that score_scene's two rin batches stay within 2 ulp of."""
    ids = scene.object_ids()
    pairs = [(a, b) for a in ids for b in ids if a != b]
    mask = ~np.eye(len(ids), dtype=bool)  # the same pairs, in the same order
    probabilities = np.full((len(ids), len(ids), len(CATEGORIES)), np.nan)
    confidences = np.full_like(probabilities, np.nan)
    probabilities[mask] = rpn.forward_batch(np.stack([encode_pair(scene, a, b) for a, b in pairs]))
    confidences[mask] = rin.forward_batch(np.stack([
        encode_relation(scene, a, b, cat) for a, b in pairs for cat in CATEGORIES])).reshape(-1, 6)
    return ScoredScene(ids, probabilities, confidences)


def scored_from_relations(relations):
    """A ScoredScene holding exactly the given relations, NaN elsewhere, over the
    ids they name; a later duplicate replaces an earlier one."""
    relations = list(relations)
    ids = sorted({r.target_id for r in relations} | {r.reference_id for r in relations})
    index = {oid: k for k, oid in enumerate(ids)}
    scores = np.full((2, len(ids), len(ids), len(CATEGORIES)), np.nan)
    for r in relations:
        scores[:, index[r.target_id], index[r.reference_id], r.category.index] = \
            r.probability, r.confidence
    return ScoredScene(ids, *scores)


def held_relations(scored):
    """Every relation a ScoredScene holds, in (target, reference, category) order."""
    return scored.where(~np.isnan(scored.probabilities))


def set_fields(sets):
    """A RelationSets' four stages as relation tuples, read from its masks through
    ``above_threshold.where``: the relations above the threshold, the target's own,
    the per-(target, category) maxima, and the maxima of the other targets."""
    held = sets.above_threshold
    row = np.zeros_like(sets.best)
    row[sets.target] = True
    return (held_relations(held), held.where(row & ~np.isnan(held.probabilities)),
            held.where(sets.best), held.where(sets.best & ~row))


def frozen_describe_oracle(rpn, rin, scene, target_id, threshold=0.5, *, scored=None):
    """The twin as it was before its one-pass rewrite, kept as its reference: the
    per-(object, category) maxima found by probing every (object, category,
    reference) triple, and every competitor's types looked up one by one."""
    scene.object_by_id(target_id)
    scored = score_scene(rpn, rin, scene) if scored is None else scored
    held = {}
    for rel in scored.above(threshold):
        if rel.probability > threshold:
            held[(rel.target_id, rel.reference_id, rel.category)] = rel

    ids = scene.object_ids()
    best = {}
    for i in ids:
        for cat in sorted({c for (_, _, c) in held}, key=lambda c: c.index):
            winner = None
            for j in ids:
                rel = held.get((i, j, cat))
                if rel is None:
                    continue
                if winner is None:
                    winner = rel
                elif rel.confidence > winner.confidence:
                    winner = rel
                elif rel.confidence == winner.confidence and rel.reference_id < winner.reference_id:
                    winner = rel
            if winner is not None:
                best[(i, cat)] = winner

    def type_name(oid):
        return scene.object_by_id(oid).type_name

    survivors = []
    for (i, j, cat), rel in held.items():
        if i != target_id:
            continue
        mirrored = False
        for (u, ucat), comp in best.items():
            if u == target_id:
                continue
            if (ucat is cat and type_name(u) == type_name(i)
                    and type_name(comp.reference_id) == type_name(j)):
                mirrored = True
                break
        if not mirrored:
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
