"""Symbolic box rules for the six relation categories.

All six inequalities are strict on both sides. Note that the on-top /
at-bottom pair tests containment along the x axis, not the y axis; the
definition is deliberate and kept as-is.
"""

from __future__ import annotations

import numpy as np

from .scene import CATEGORIES, BoundingBox, RelationCategory


def rule_holds(target: BoundingBox, reference: BoundingBox, category: RelationCategory) -> bool:
    """True when the target box stands in the given relation to the reference box."""
    xt, yt, wt, ht = target.x, target.y, target.w, target.h
    xr, yr, wr, hr = reference.x, reference.y, reference.w, reference.h
    if category is RelationCategory.RIGHT:
        return xt > xr and xt + wt > xr + wr
    if category is RelationCategory.LEFT:
        return xt < xr and xt + wt < xr + wr
    if category is RelationCategory.ON_TOP:
        return xt > xr and xt + wt < xr + wr
    if category is RelationCategory.AT_BOTTOM:
        return xt < xr and xt + wt > xr + wr
    if category is RelationCategory.IN_FRONT:
        return yt > yr and yt + ht > yr + hr
    if category is RelationCategory.BEHIND:
        return yt < yr and yt + ht < yr + hr
    raise ValueError(f"unknown relation category: {category!r}")


def rule_relations(target: BoundingBox, reference: BoundingBox) -> set[RelationCategory]:
    """All categories whose rule fires for the ordered pair."""
    return {cat for cat in CATEGORIES if rule_holds(target, reference, cat)}


def _margin(target: BoundingBox, reference: BoundingBox, category: RelationCategory,
            image_width: float, image_height: float) -> float:
    # Smallest slack among the two strict inequalities, normalized so the
    # x and y axes are comparable across image aspect ratios.
    xt, yt, wt, ht = target.x, target.y, target.w, target.h
    xr, yr, wr, hr = reference.x, reference.y, reference.w, reference.h
    if category is RelationCategory.RIGHT:
        return min(xt - xr, (xt + wt) - (xr + wr)) / image_width
    if category is RelationCategory.LEFT:
        return min(xr - xt, (xr + wr) - (xt + wt)) / image_width
    if category is RelationCategory.ON_TOP:
        return min(xt - xr, (xr + wr) - (xt + wt)) / image_width
    if category is RelationCategory.AT_BOTTOM:
        return min(xr - xt, (xt + wt) - (xr + wr)) / image_width
    if category is RelationCategory.IN_FRONT:
        return min(yt - yr, (yt + ht) - (yr + hr)) / image_height
    return min(yr - yt, (yr + hr) - (yt + ht)) / image_height


def rule_margins(target: BoundingBox, reference: BoundingBox, image_width: float,
                 image_height: float) -> dict[RelationCategory, float]:
    """Normalized slack of every firing rule, keyed by category."""
    return {cat: _margin(target, reference, cat, image_width, image_height)
            for cat in CATEGORIES if rule_holds(target, reference, cat)}


def rule_table(targets, references, image_width: float, image_height: float) -> np.ndarray:
    """Every rule's normalized margin for broadcast (..., 4) pixel (x, y, w, h) boxes.

    Returns (..., 6) in canonical category order, NaN where the rule does not
    hold; each entry equals ``rule_margins`` bit for bit.
    """
    t, r = np.asarray(targets, dtype=float), np.asarray(references, dtype=float)
    xt, yt, wt, ht = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    xr, yr, wr, hr = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    # negating a difference is exact, so -dx0 equals xr - xt bit for bit
    dx0, dx1 = xt - xr, (xt + wt) - (xr + wr)
    dy0, dy1 = yt - yr, (yt + ht) - (yr + hr)
    slack = np.stack([np.minimum(dx0, dx1), np.minimum(-dx0, -dx1), np.minimum(dx0, -dx1),
                      np.minimum(-dx0, dx1), np.minimum(dy0, dy1), np.minimum(-dy0, -dy1)], axis=-1)
    # both strict inequalities hold exactly when their smaller slack is positive
    scale = np.array([image_width] * 4 + [image_height] * 2, dtype=float)
    return np.where(slack > 0, slack / scale, np.nan)


def dominant_category(target: BoundingBox, reference: BoundingBox,
                      image_width: float, image_height: float) -> RelationCategory | None:
    """Single most characteristic firing rule for the pair, or None when no rule fires.

    A pair can satisfy at most one x-axis rule and one y-axis rule; the one
    with the larger normalized margin wins, ties going to canonical order.
    """
    margins = rule_margins(target, reference, image_width, image_height)
    best: RelationCategory | None = None
    best_margin = 0.0
    for cat in CATEGORIES:
        margin = margins.get(cat)
        if margin is not None and (best is None or margin > best_margin):
            best = cat
            best_margin = margin
    return best
