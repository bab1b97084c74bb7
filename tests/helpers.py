"""Shared builders for the test suite."""

import numpy as np

from refexp.datagen import SceneGenSpec, generate_scenes, mirrored_duplicate_scenes
from refexp.scene import BoundingBox, Scene, SceneObject


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
