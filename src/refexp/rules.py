"""Symbolic box rules for the six relation categories, one row of ``_RULES`` each.

A rule holds when both signed offsets of the target's edges from the reference's
along its axis are positive, so its inequalities are strict. On-top / at-bottom
test containment along the x axis, not the y axis; that is deliberate and kept.
"""

from __future__ import annotations

import numpy as np

from .scene import CATEGORIES, BoundingBox, RelationCategory

# (axis, near-edge sign, far-edge sign) per category in canonical order; axis 0 is x, 1 is y
_RULES = dict(zip(CATEGORIES, [(0, 1.0, 1.0), (0, -1.0, -1.0), (0, 1.0, -1.0), (0, -1.0, 1.0),
                               (1, 1.0, 1.0), (1, -1.0, -1.0)]))
# For finite doubles a - b > 0 exactly when a > b, and a sign change is exact, so every
# function below tests the same inequalities and yields the same slack bits.


def _edge_offsets(t_start, t_size, r_start, r_size):
    # offsets of the target's near and far edges from the reference's along one axis
    return t_start - r_start, (t_start + t_size) - (r_start + r_size)


def rule_holds(target: BoundingBox, reference: BoundingBox, category: RelationCategory) -> bool:
    """True when the target box stands in the given relation to the reference box."""
    axis, near, far = _RULES[category]
    d_near, d_far = (_edge_offsets(target.y, target.h, reference.y, reference.h) if axis
                     else _edge_offsets(target.x, target.w, reference.x, reference.w))
    return near * d_near > 0 and far * d_far > 0


def rule_relations(target: BoundingBox, reference: BoundingBox) -> set[RelationCategory]:
    """All categories whose rule fires for the ordered pair."""
    return set(rule_margins(target, reference, 1.0, 1.0))


def rule_margins(target: BoundingBox, reference: BoundingBox, image_width: float,
                 image_height: float) -> dict[RelationCategory, float]:
    """Normalized slack of every firing rule, keyed by category: the smaller signed
    offset over the image side of the rule's axis, so x and y margins compare."""
    d = (_edge_offsets(target.x, target.w, reference.x, reference.w)
         + _edge_offsets(target.y, target.h, reference.y, reference.h))
    slacks = ((cat, axis, min(near * d[2 * axis], far * d[2 * axis + 1]))
              for cat, (axis, near, far) in _RULES.items())
    sides = (image_width, image_height)
    return {cat: slack / sides[axis] for cat, axis, slack in slacks if slack > 0}


def rule_table(targets, references, image_width: float, image_height: float) -> np.ndarray:
    """Every rule's normalized margin for broadcast (..., 4) pixel (x, y, w, h) boxes:
    (..., 6) in canonical category order, NaN where the rule does not hold, each
    entry equal to ``rule_margins`` bit for bit."""
    t, r = np.asarray(targets, dtype=float), np.asarray(references, dtype=float)
    d = (_edge_offsets(t[..., 0], t[..., 2], r[..., 0], r[..., 2])
         + _edge_offsets(t[..., 1], t[..., 3], r[..., 1], r[..., 3]))
    signed = {1.0: d, -1.0: [-offset for offset in d]}
    table = np.empty(np.broadcast_shapes(t.shape, r.shape)[:-1] + (len(_RULES),))
    for c, (axis, near, far) in enumerate(_RULES.values()):
        np.minimum(signed[near][2 * axis], signed[far][2 * axis + 1], out=table[..., c])
    fails = ~(table > 0)  # taken before the division, which can round a tiny slack to 0
    table /= [(image_width, image_height)[a] for a, _, _ in _RULES.values()]
    np.putmask(table, fails, np.nan)
    return table


def dominant_category(target: BoundingBox, reference: BoundingBox,
                      image_width: float, image_height: float) -> RelationCategory | None:
    """Single most characteristic firing rule for the pair, or None when no rule fires.

    A pair can satisfy at most one x-axis rule and one y-axis rule; the one
    with the larger normalized margin wins, ties going to canonical order.
    """
    margins = rule_margins(target, reference, image_width, image_height)
    return max(margins, key=lambda cat: (margins[cat], -cat.index), default=None)
