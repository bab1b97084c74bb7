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
from .scene import CATEGORIES, RelationCategory, Scene, SpatialRelation, UnknownObjectError

PAIR_FEATURE_DIM = 8
# Pair features plus the six-way one-hot. The sources print "12" for this
# dimension while also pinning the 8-real pair prefix and the 6-way one-hot
# suffix; the composition wins and the stated hidden sizes are kept.
RIN_FEATURE_DIM = PAIR_FEATURE_DIM + len(CATEGORIES)

RPN_DIMS = (PAIR_FEATURE_DIM, 32, 16, len(CATEGORIES))
RIN_DIMS = (RIN_FEATURE_DIM, 64, 16, 8, 1)
# (layer widths, activations) of each net: its layer specs and its shape check
_RPN_SHAPE = (RPN_DIMS, ("relu", "relu", "softmax"))
_RIN_SHAPE = (RIN_DIMS, ("relu", "relu", "relu", "sigmoid"))
_ONE_HOT = np.eye(len(CATEGORIES), dtype=bool)  # row c: the one-hot of CATEGORIES[c]
_ONE_HOT.flags.writeable = False

logger = logging.getLogger(__name__)


class NetworkShapeError(ValueError):
    """A model does not have the architecture an operation requires."""


def _layer_specs(dims: tuple[int, ...], activations: tuple[str, ...]) -> list[LayerSpec]:
    return [LayerSpec(n_in, n_out, act) for n_in, n_out, act in zip(dims, dims[1:], activations)]


def rpn_layer_specs() -> list[LayerSpec]:
    return _layer_specs(*_RPN_SHAPE)


def rin_layer_specs() -> list[LayerSpec]:
    return _layer_specs(*_RIN_SHAPE)


def _check_shape(model: MlpModel, dims: tuple[int, ...], activations: tuple[str, ...], name: str) -> None:
    if model.layer_dims != dims or tuple(model.activations) != activations:
        raise NetworkShapeError(
            f"{name} model must have layers {'/'.join(map(str, dims))} with activations "
            f"{', '.join(activations)}; got {'/'.join(map(str, model.layer_dims))} with "
            f"{', '.join(model.activations)}")


def validate_rpn(model: MlpModel) -> None:
    _check_shape(model, *_RPN_SHAPE, "presence")


def validate_rin(model: MlpModel) -> None:
    _check_shape(model, *_RIN_SHAPE, "informativeness")


def _unit_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """(..., 4) pixel boxes over the image side, clamped into [0, 1]: both nets' box features."""
    return np.minimum(np.maximum(boxes / np.array([width, height, width, height]), 0.0), 1.0)


def encode_pair(scene: Scene, target_id: int, reference_id: int) -> np.ndarray:
    """Normalized (x, y, w, h) of target then reference, clamped into [0, 1]."""
    if target_id == reference_id:
        raise ValueError("target and reference must be distinct objects")
    t, r = (scene.object_by_id(oid).box for oid in (target_id, reference_id))
    boxes = np.array([[t.x, t.y, t.w, t.h], [r.x, r.y, r.w, r.h]])
    return _unit_boxes(boxes, scene.image_width, scene.image_height).reshape(-1)


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
    mask or a ``confidences_at`` mask) scores them all. Both arrays are read-only, because
    what all the scene's targets read is derived once per threshold in ``memo``.
    """

    def __init__(self, ids, probabilities: np.ndarray, confidences: np.ndarray,
                 pending: tuple | None = None) -> None:
        self.ids = tuple(ids)
        self.probabilities = probabilities
        self._confidences = confidences
        self._pending = pending
        probabilities.flags.writeable = confidences.flags.writeable = False
        self._memo: dict[tuple, object] = {}

    def memo(self, key: tuple, build):
        """``build()`` on the first call with ``key``, the same object on every later one."""
        return self._memo[key] if key in self._memo else self._memo.setdefault(key, build())

    def confidences_at(self, mask: np.ndarray | None = None, row: int | None = None) -> np.ndarray:
        """The confidences array. The pending entries are scored first if the
        (n, n, 6) ``mask`` (with ``row``, row ``row``'s (n, 6) mask) touches one
        of them, or if no mask is given."""
        if self._pending is not None:
            unscored, score = self._pending
            if mask is None or (unscored[... if row is None else row] & mask).any():
                self._confidences.flags.writeable = True
                self._confidences[unscored] = score()
                self._confidences.flags.writeable = False
                self._pending = None
        return self._confidences

    @property
    def confidences(self) -> np.ndarray:
        return self.confidences_at()

    def where(self, mask: np.ndarray, row: int | None = None) -> tuple[SpatialRelation, ...]:
        """The relations at the true entries of an (n, n, 6) mask, in index order; with
        ``row``, of target ``ids[row]``'s (n, 6) mask. Pending confidences are scored
        only if the mask touches one."""
        ids, index = self.ids, [axis.tolist() for axis in np.nonzero(mask)]
        if row is None:
            probabilities, confidences = self.probabilities, self.confidences_at(mask)
        else:
            probabilities, confidences = self.probabilities[row], self.confidences_at(mask, row)[row]
            index.insert(0, [row] * len(index[0]))
        return tuple(SpatialRelation(ids[a], ids[b], CATEGORIES[k], p, q) for a, b, k, p, q in zip(
            *index, probabilities[mask].tolist(), confidences[mask].tolist()))

    def present(self, threshold: float) -> np.ndarray:
        """The read-only (n, n, 6) mask of probabilities strictly above ``threshold``."""
        if ("present", threshold) not in self._memo:
            self._memo["present", threshold] = mask = self.probabilities > threshold  # NaN is False
            mask.flags.writeable = False
        return self._memo["present", threshold]

    def above(self, threshold: float) -> tuple[SpatialRelation, ...]:
        """The relations with probability strictly above ``threshold``, built once."""
        return self.memo(("above", threshold), lambda: self.where(self.present(threshold)))

    def row(self, object_id: int) -> int:
        """The row of ``object_id``; ``UnknownObjectError`` when it is not scored."""
        if object_id not in self.ids:
            raise UnknownObjectError(f"no object with id {object_id} in the scored scene")
        return self.ids.index(object_id)

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.probabilities)))


def distinct_relations(scene: Scene, ids, t: int, own: np.ndarray, others) -> np.ndarray:
    """The entries of row ``t``'s (n, 6) mask ``own`` that no type-mate of ``ids[t]``
    repeats in the (n, n, 6) mask ``others()`` against an object of the reference's
    type: the type-signature test of both the pipeline and the baseline. ``others``
    is called only when ``ids[t]`` has a type-mate."""
    scene_ids, types, _ = scene.type_codes
    if tuple(ids) != scene_ids:  # not this scene's own scoring: look each id up
        types = types[[scene_ids.index(scene.object_by_id(oid).id) for oid in ids]]
    mates = types == types[t]
    mates[t] = False
    if not mates.any():
        return own
    return own & ~((types == types[:, None]) @ others()[mates].any(axis=0))


def _scene_pairs(scene: Scene) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Sorted ids, the (n, n) mask of ordered pairs (a, b), a != b, and their
    features in mask order; each row is exactly what ``encode_pair`` returns."""
    ids = scene.object_ids()
    if len(ids) < 2:
        raise ValueError("scene must contain at least 2 objects")
    boxes = _unit_boxes(np.array([[o.box.x, o.box.y, o.box.w, o.box.h]
                                  for o in map(scene.object_by_id, ids)], dtype=float),
                        scene.image_width, scene.image_height)
    pairs = ~np.eye(len(ids), dtype=bool)
    return ids, pairs, boxes[np.array(np.nonzero(pairs)).T].reshape(-1, 2 * boxes.shape[1])


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
    presence = rpn.forward_batch(pair_features)
    eager = _ONE_HOT[presence.argmax(axis=1)]
    logger.debug("scoring %d objects: %d rin rows in the first batch", len(ids), len(eager))
    # a rin row is the pair's features, then its category's one-hot
    features = np.concatenate((pair_features, eager), axis=1, dtype=float)
    first = np.where(eager, rin.forward_batch(features), np.nan)

    def score_rest() -> np.ndarray:
        rows, categories = np.nonzero(~eager)
        logger.debug("scoring the other categories: %d rin rows", len(rows))
        rest = np.concatenate((pair_features[rows], _ONE_HOT[categories]), axis=1, dtype=float)
        return rin.forward_batch(rest)[:, 0]

    probabilities, confidences = np.full(shape, np.nan), np.full(shape, np.nan)
    unscored = np.zeros(shape, dtype=bool)
    probabilities[pairs], confidences[pairs], unscored[pairs] = presence, first, ~eager
    return ScoredScene(ids, probabilities, confidences, (unscored, score_rest))
