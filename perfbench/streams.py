"""Seeded inputs for the three workloads.

Every function here is a pure function of its arguments: the same seed gives
the same scene documents, target ids, corpora and dataset seeds.
"""

from __future__ import annotations

import numpy as np

import refexp.datagen as datagen
from refexp.datagen import DEFAULT_TYPE_POOL, SceneGenSpec

IMAGE_WIDTH = 640.0
IMAGE_HEIGHT = 480.0

# serve: one block holds one large scene of every size in LARGE_SIZES, each
# with SMALL_PER_LARGE small scenes, shuffled together. The 40:1 ratio gives
# both size classes about half of the busy time at the parent commit, so a
# change to either class moves throughput.
SMALL_SIZES = (3, 8)
LARGE_SIZES = tuple(range(24, 41))
SMALL_PER_LARGE = 40

# corpus: the list of one pass is generate_scenes(300) + mirrored(200), split
# into CORPUS_CHUNKS chunks of equal make-up (15 + 10 scenes).
CORPUS_GENERATED = 300
CORPUS_MIRRORED = 200
CORPUS_CHUNKS = 20

# train: the criterion-3 dataset sizes, synthesised in TRAIN_CHUNKS chunks.
TRAIN_RPN = 6000
TRAIN_RIN = 8000
TRAIN_CHUNKS = 40
TRAIN_EVAL_SCENES = 200

_RPN, _RIN, _EVAL = 1, 2, 3


def derive_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part; distinct tuples do not collide in practice."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def scene_doc(rng: np.random.Generator, n: int) -> dict:
    """Scene JSON document with n objects.

    Boxes are sampled the way ``generate_scenes`` samples them; types are
    drawn with replacement from the 12-type default pool, so duplicates grow
    with n the way detector output does.
    """
    types = rng.choice(np.asarray(DEFAULT_TYPE_POOL), size=n, replace=True)
    objects = []
    for oid in range(n):
        w = rng.uniform(0.05, 0.35) * IMAGE_WIDTH
        h = rng.uniform(0.05, 0.35) * IMAGE_HEIGHT
        x = rng.uniform(0.0, IMAGE_WIDTH - w)
        y = rng.uniform(0.0, IMAGE_HEIGHT - h)
        objects.append({"id": oid, "type": str(types[oid]),
                        "box": [float(x), float(y), float(w), float(h)]})
    return {"image_width": IMAGE_WIDTH, "image_height": IMAGE_HEIGHT, "objects": objects}


def serve_block(seed: int, block: int) -> list[tuple[dict, int, str]]:
    """Requests of one serve block as (scene document, target id, size class)."""
    rng = np.random.default_rng(derive_seed(seed, block))
    sizes = [("large", int(n)) for n in rng.permutation(LARGE_SIZES)]
    sizes += [("small", int(rng.integers(SMALL_SIZES[0], SMALL_SIZES[1] + 1)))
              for _ in range(SMALL_PER_LARGE * len(LARGE_SIZES))]
    requests = []
    for k in rng.permutation(len(sizes)):
        size_class, n = sizes[k]
        requests.append((scene_doc(rng, n), int(rng.integers(n)), size_class))
    return requests


def corpus_chunks(seed: int, corpus_pass: int = 0, generated: int = CORPUS_GENERATED,
                  mirrored: int = CORPUS_MIRRORED, chunks: int = CORPUS_CHUNKS) -> list[list]:
    """One corpus pass split into chunks; pass 0 uses the workload seed itself."""
    s = seed if corpus_pass == 0 else derive_seed(seed, corpus_pass)
    gen = datagen.generate_scenes(SceneGenSpec(seed=s), generated)
    mir = datagen.mirrored_duplicate_scenes(mirrored, seed=s)
    g, m = generated // chunks, mirrored // chunks
    return [gen[k * g:(k + 1) * g] + mir[k * m:(k + 1) * m] for k in range(chunks)]


def rpn_chunk_spec(seed: int, chunk: int) -> SceneGenSpec:
    return SceneGenSpec(seed=derive_seed(seed, _RPN, chunk))


def rin_chunk_spec(seed: int, chunk: int) -> SceneGenSpec:
    return SceneGenSpec(seed=derive_seed(seed, _RIN, chunk))


def eval_spec(seed: int) -> SceneGenSpec:
    return SceneGenSpec(seed=derive_seed(seed, _EVAL))


def holdout(pairs: list, seed: int, fraction: float = 0.1) -> tuple[list, list]:
    """(rest, test) with the test slice first in a seeded permutation."""
    order = np.random.default_rng(seed).permutation(len(pairs))
    n_test = int(round(len(pairs) * fraction))
    return [pairs[i] for i in order[n_test:]], [pairs[i] for i in order[:n_test]]
