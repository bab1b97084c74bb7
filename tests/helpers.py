"""Shared builders for the test suite."""

import numpy as np

from refexp.datagen import SceneGenSpec, generate_scenes, mirrored_duplicate_scenes
from refexp.networks import ScoredScene, encode_pair, encode_relation
from refexp.scene import CATEGORIES, BoundingBox, Scene, SceneObject


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
