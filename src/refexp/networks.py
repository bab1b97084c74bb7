"""Feature encoding and the two learned scorers.

The presence net maps an object pair to a distribution over the six
categories; the informativeness net maps a pair plus a one-hot category to a
confidence that the relation helps a listener. Inputs are box geometry
normalized by the image size, so models transfer across image dimensions.
"""

from __future__ import annotations

import logging

import numpy as np

from .mlp import LayerSpec, MlpModel
from .scene import CATEGORIES, RelationCategory, Scene, SpatialRelation

PAIR_FEATURE_DIM = 8
# Pair features plus the six-way one-hot. The sources print "12" for this
# dimension while also pinning the 8-real pair prefix and the 6-way one-hot
# suffix; the composition wins and the stated hidden sizes are kept.
RIN_FEATURE_DIM = PAIR_FEATURE_DIM + len(CATEGORIES)

RPN_DIMS = (PAIR_FEATURE_DIM, 32, 16, len(CATEGORIES))
RIN_DIMS = (RIN_FEATURE_DIM, 64, 16, 8, 1)

logger = logging.getLogger(__name__)


class NetworkShapeError(ValueError):
    """A model does not have the architecture an operation requires."""


def rpn_layer_specs() -> list[LayerSpec]:
    return [
        LayerSpec(RPN_DIMS[0], RPN_DIMS[1], "relu"),
        LayerSpec(RPN_DIMS[1], RPN_DIMS[2], "relu"),
        LayerSpec(RPN_DIMS[2], RPN_DIMS[3], "softmax"),
    ]


def rin_layer_specs() -> list[LayerSpec]:
    return [
        LayerSpec(RIN_DIMS[0], RIN_DIMS[1], "relu"),
        LayerSpec(RIN_DIMS[1], RIN_DIMS[2], "relu"),
        LayerSpec(RIN_DIMS[2], RIN_DIMS[3], "relu"),
        LayerSpec(RIN_DIMS[3], RIN_DIMS[4], "sigmoid"),
    ]


def _check_shape(model: MlpModel, dims: tuple[int, ...], activations: tuple[str, ...], name: str) -> None:
    if model.layer_dims != dims or tuple(model.activations) != activations:
        raise NetworkShapeError(
            f"{name} model must have layers {'/'.join(map(str, dims))} with activations "
            f"{', '.join(activations)}; got {'/'.join(map(str, model.layer_dims))} with "
            f"{', '.join(model.activations)}")


def validate_rpn(model: MlpModel) -> None:
    _check_shape(model, RPN_DIMS, ("relu", "relu", "softmax"), "presence")


def validate_rin(model: MlpModel) -> None:
    _check_shape(model, RIN_DIMS, ("relu", "relu", "relu", "sigmoid"), "informativeness")


def encode_pair(scene: Scene, target_id: int, reference_id: int) -> np.ndarray:
    """Normalized (x, y, w, h) of target then reference, clamped into [0, 1]."""
    if target_id == reference_id:
        raise ValueError("target and reference must be distinct objects")
    target = scene.object_by_id(target_id)
    reference = scene.object_by_id(reference_id)
    w, h = scene.image_width, scene.image_height
    raw = np.array([
        target.box.x / w, target.box.y / h, target.box.w / w, target.box.h / h,
        reference.box.x / w, reference.box.y / h, reference.box.w / w, reference.box.h / h,
    ])
    return np.clip(raw, 0.0, 1.0)


def encode_relation(scene: Scene, target_id: int, reference_id: int,
                    category: RelationCategory) -> np.ndarray:
    """Pair features followed by the one-hot category vector."""
    features = np.zeros(RIN_FEATURE_DIM)
    features[:PAIR_FEATURE_DIM] = encode_pair(scene, target_id, reference_id)
    features[PAIR_FEATURE_DIM + category.index] = 1.0
    return features


class ScoredScene:
    """Both nets' outputs for every ordered object pair of one scene.

    ``probabilities[i, j, c]`` and ``confidences[i, j, c]`` score target ``ids[i]``
    against reference ``ids[j]`` in ``CATEGORIES[c]``; ids are sorted and NaN marks
    an unscored entry, such as the diagonal. ``len`` counts the scored entries;
    ``where`` and ``above`` list relations in (target, reference, category) order.
    ``pending`` is the mask of confidences not scored yet and the function that
    scores them, in mask order; reading any of them (``confidences``, a ``where``
    or ``confidences_at`` mask) scores them all. Both arrays are read-only,
    because the selection stages computed from them are memoized here, per
    presence threshold, by ``build_candidate_sets``.
    """

    def __init__(self, ids, probabilities: np.ndarray, confidences: np.ndarray,
                 pending: tuple | None = None) -> None:
        self.ids = tuple(ids)
        self.probabilities = probabilities
        self._confidences = confidences
        self._pending = pending
        probabilities.flags.writeable = confidences.flags.writeable = False
        self._selections: dict[float, tuple] = {}

    def confidences_at(self, mask: np.ndarray | None = None) -> np.ndarray:
        """The confidences array. The pending entries are scored first if the
        (n, n, 6) ``mask`` touches one of them, or if no mask is given."""
        if self._pending is not None:
            unscored, score = self._pending
            if mask is None or (unscored & mask).any():
                self._confidences.flags.writeable = True
                self._confidences[unscored] = score()
                self._confidences.flags.writeable = False
                self._pending = None
        return self._confidences

    @property
    def confidences(self) -> np.ndarray:
        return self.confidences_at()

    def where(self, mask: np.ndarray) -> tuple[SpatialRelation, ...]:
        """The relations at the true entries of an (n, n, 6) mask, in index order."""
        ids = self.ids
        return tuple(SpatialRelation(ids[a], ids[b], CATEGORIES[k], p, q) for a, b, k, p, q in zip(
            *(axis.tolist() for axis in np.nonzero(mask)),
            self.probabilities[mask].tolist(), self.confidences_at(mask)[mask].tolist()))

    def above(self, threshold: float) -> tuple[SpatialRelation, ...]:
        """The relations with probability strictly above ``threshold``."""
        return self.where(self.probabilities > threshold)  # NaN compares False

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.probabilities)))


def distinct_relations(scene: Scene, ids, t: int, own: np.ndarray, others: np.ndarray) -> np.ndarray:
    """The entries of row ``t``'s (n, 6) mask ``own`` that no type-mate of ``ids[t]``
    repeats in the (n, n, 6) mask ``others`` against an object of the reference's
    type: the type-signature test of both the pipeline and the baseline."""
    codes: dict[str, int] = {}
    types = np.array([codes.setdefault(scene.object_by_id(oid).type_name, len(codes)) for oid in ids])
    mates = types == types[t]
    mates[t] = False
    repeated = np.zeros((len(codes), len(CATEGORIES)), dtype=bool)
    np.logical_or.at(repeated, types, others[mates].any(axis=0))
    return own & ~repeated[types]


def _scene_pairs(scene: Scene) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Sorted ids, the (n, n) mask of ordered pairs (a, b), a != b, and their
    features in mask order; each row is exactly what ``encode_pair`` returns."""
    ids = scene.object_ids()
    if len(ids) < 2:
        raise ValueError("scene must contain at least 2 objects")
    w, h = scene.image_width, scene.image_height
    boxes = np.array([[o.box.x, o.box.y, o.box.w, o.box.h] for o in map(scene.object_by_id, ids)],
                     dtype=float)
    boxes = np.clip(boxes / np.array([w, h, w, h]), 0.0, 1.0)
    pairs = ~np.eye(len(ids), dtype=bool)
    targets, references = np.nonzero(pairs)
    return ids, pairs, np.hstack([boxes[targets], boxes[references]])


def presence_scores(rpn: MlpModel, scene: Scene) -> np.ndarray:
    """The presence net alone, laid out as ``ScoredScene.probabilities``."""
    validate_rpn(rpn)
    ids, pairs, features = _scene_pairs(scene)
    probabilities = np.full((len(ids), len(ids), len(CATEGORIES)), np.nan)
    probabilities[pairs] = rpn.forward_batch(features)
    return probabilities


def score_scene(rpn: MlpModel, rin: MlpModel, scene: Scene) -> ScoredScene:
    """Every ordered pair crossed with every category, scored by both nets.

    One encode over the scene's boxes, one rpn batch, and one rin batch over each
    pair's argmax category. The other categories are one more rin batch, run when
    one is first read; no threshold of 0.5 or more reads one. Both batches are
    fixed by the scene, so no confidence depends on the order of reads. Indexed
    by sorted id, so independent of the storage order of the scene's objects.
    """
    validate_rpn(rpn)
    validate_rin(rin)
    ids, pairs, pair_features = _scene_pairs(scene)
    shape = (len(ids), len(ids), len(CATEGORIES))
    one_hot = np.eye(len(CATEGORIES))
    presence = rpn.forward_batch(pair_features)
    top = presence.argmax(axis=1)
    eager = one_hot[top].astype(bool)
    logger.debug("scoring %d objects: %d rin rows in the first batch", len(ids), len(top))
    first = np.where(eager, rin.forward_batch(np.hstack([pair_features, one_hot[top]])), np.nan)

    def score_rest() -> np.ndarray:
        rows, categories = np.nonzero(~eager)
        logger.debug("scoring the other categories: %d rin rows", len(rows))
        return rin.forward_batch(np.hstack([pair_features[rows], one_hot[categories]]))[:, 0]

    probabilities, confidences = np.full(shape, np.nan), np.full(shape, np.nan)
    unscored = np.zeros(shape, dtype=bool)
    probabilities[pairs], confidences[pairs], unscored[pairs] = presence, first, ~eager
    return ScoredScene(ids, probabilities, confidences, (unscored, score_rest))
