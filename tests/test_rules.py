"""Rule-table behavior, including the x-axis containment quirk kept verbatim."""

import numpy as np
from hypothesis import example, given, strategies as st

from refexp.rules import (CATEGORIES, dominant_category, rule_holds, rule_margins, rule_relations,
                          rule_table)
from refexp.scene import BoundingBox, RelationCategory

R = RelationCategory


def box(x, y, w, h):
    return BoundingBox(x, y, w, h)


def test_right_holds():
    assert rule_holds(box(10, 0, 5, 5), box(0, 0, 5, 5), R.RIGHT)


def test_equal_boxes_hold_nothing():
    a = box(3, 3, 5, 5)
    for cat in CATEGORIES:
        assert not rule_holds(a, box(3, 3, 5, 5), cat)


def test_on_top_is_x_containment():
    # narrow box whose x-extent sits strictly inside a wider one
    assert rule_holds(box(2, 0, 4, 5), box(0, 0, 10, 5), R.ON_TOP)


def test_at_bottom_is_x_cover():
    assert rule_holds(box(0, 0, 10, 5), box(2, 0, 4, 5), R.AT_BOTTOM)


def test_in_front_is_downward():
    assert rule_holds(box(0, 10, 5, 5), box(0, 0, 5, 5), R.IN_FRONT)


def test_relations_diagonal_pair():
    assert rule_relations(box(10, 10, 5, 5), box(0, 0, 5, 5)) == {R.RIGHT, R.IN_FRONT}


def test_relations_mirror():
    assert rule_relations(box(0, 0, 5, 5), box(10, 10, 5, 5)) == {R.LEFT, R.BEHIND}


def test_relations_identical_boxes_empty():
    assert rule_relations(box(1, 1, 2, 2), box(1, 1, 2, 2)) == set()


coords = st.floats(min_value=0, max_value=1000, allow_nan=False, allow_infinity=False)
sides = st.floats(min_value=0.001, max_value=500, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, coords, coords, sides, sides)

MIRROR = {R.RIGHT: R.LEFT, R.LEFT: R.RIGHT, R.ON_TOP: R.AT_BOTTOM,
          R.AT_BOTTOM: R.ON_TOP, R.IN_FRONT: R.BEHIND, R.BEHIND: R.IN_FRONT}


@given(boxes, boxes)
def test_antisymmetry(a, b):
    for cat, opposite in MIRROR.items():
        if rule_holds(a, b, cat):
            assert rule_holds(b, a, opposite)


@given(boxes, boxes)
def test_mutual_exclusion(a, b):
    rels = rule_relations(a, b)
    assert len(rels & {R.RIGHT, R.LEFT, R.ON_TOP, R.AT_BOTTOM}) <= 1
    assert len(rels & {R.IN_FRONT, R.BEHIND}) <= 1


@given(boxes)
def test_self_relations_empty(a):
    assert rule_relations(a, a) == set()


def test_margins_only_for_firing_rules():
    margins = rule_margins(box(10, 10, 5, 5), box(0, 0, 5, 5), 100, 100)
    assert set(margins) == {R.RIGHT, R.IN_FRONT}
    assert all(m > 0 for m in margins.values())


def test_dominant_prefers_larger_margin():
    # far right, barely lower: the x displacement dwarfs the y one
    got = dominant_category(box(90, 2, 5, 5), box(0, 0, 5, 5), 100, 100)
    assert got is R.RIGHT


def test_dominant_none_when_nothing_fires():
    assert dominant_category(box(1, 1, 2, 2), box(1, 1, 2, 2), 100, 100) is None


# --- every rule function against an independent transcription -------------------


def _independent_holds(target, reference, category):
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


def _independent_margin(target, reference, category, image_width, image_height):
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


def independent_margins(target, reference, image_width, image_height) -> dict:
    """The six rules as plain if-chains, coded apart from the table in refexp.rules."""
    return {cat: _independent_margin(target, reference, cat, image_width, image_height)
            for cat in CATEGORIES if _independent_holds(target, reference, cat)}


def independent_dominant(target, reference, image_width, image_height):
    margins = independent_margins(target, reference, image_width, image_height)
    best, best_margin = None, 0.0
    for cat in CATEGORIES:
        margin = margins.get(cat)
        if margin is not None and (best is None or margin > best_margin):
            best, best_margin = cat, margin
    return best


def bits(margins: dict) -> dict:
    return {cat: np.float64(m).tobytes() for cat, m in margins.items()}


grid = st.integers(min_value=0, max_value=12).map(float)
grid_sides = st.integers(min_value=1, max_value=6).map(float)
# small integer grids make equal edges, shared corners and identical boxes common
mixed_boxes = st.one_of(st.builds(BoundingBox, grid, grid, grid_sides, grid_sides), boxes)
image_sizes = st.sampled_from([(640.0, 480.0), (1.0, 1.0), (37.0, 53.0), (12, 7)])


@given(mixed_boxes, mixed_boxes, image_sizes)
@example(box(10, 10, 5, 5), box(0, 0, 5, 5), (1.0, 1.0))  # right and in front tie
@example(box(0, 0, 5, 5), box(10, 10, 5, 5), (1.0, 1.0))  # left and behind tie
def test_scalar_rules_equal_independent_bit_for_bit(a, b, size):
    expected = independent_margins(a, b, *size)
    assert bits(rule_margins(a, b, *size)) == bits(expected)
    assert list(rule_margins(a, b, *size)) == list(expected)  # canonical order
    assert rule_relations(a, b) == set(expected)
    assert [rule_holds(a, b, cat) for cat in CATEGORIES] == [cat in expected for cat in CATEGORIES]
    assert dominant_category(a, b, *size) is independent_dominant(a, b, *size)


@given(st.lists(mixed_boxes, min_size=1, max_size=7), image_sizes)
@example([box(5e-324, 0, 1, 1), box(0, 0, 0.5, 1)], (640.0, 480.0))  # the slack divides to 0.0
def test_rule_table_equals_scalar_rules_bit_for_bit(box_list, size):
    box_list = box_list + box_list[:1]  # every list holds an identical pair
    width, height = size
    pixels = np.array([(b.x, b.y, b.w, b.h) for b in box_list])
    table = rule_table(pixels[:, None], pixels[None, :], width, height)
    expected = np.array([[[independent_margins(a, b, width, height).get(cat, np.nan)
                           for cat in CATEGORIES] for b in box_list] for a in box_list])
    holds = np.array([[[rule_holds(a, b, cat) for cat in CATEGORIES] for b in box_list]
                      for a in box_list])
    assert table.shape == (len(box_list), len(box_list), len(CATEGORIES))
    assert table.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(~np.isnan(table), holds)


@given(mixed_boxes, mixed_boxes)
def test_rule_table_single_pair_and_flat_batch(a, b):
    pair = np.array([[a.x, a.y, a.w, a.h], [b.x, b.y, b.w, b.h]])
    single = rule_table(pair[0], pair[1], 640.0, 480.0)
    batch = rule_table(pair, pair[::-1], 640.0, 480.0)
    assert single.shape == (len(CATEGORIES),)
    np.testing.assert_array_equal(batch[0], single)
    expected = [independent_margins(b, a, 640.0, 480.0).get(cat, np.nan) for cat in CATEGORIES]
    assert batch[1].tobytes() == np.array(expected).tobytes()
