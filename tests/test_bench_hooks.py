"""The benchmark's tracer patches refexp names where callers look them up, and its
``install`` fails on a name that is gone. These tests run with the module suite, so
removing a hooked name, even one nothing in ``src/`` calls, fails here first, and so
does removing what an observer reads from a hooked call's result, such as
``len(ScoredScene)``."""

from pathlib import Path

import numpy as np

import refexp.datagen as datagen
import refexp.evaluation as evaluation
import refexp.pipeline as pipeline
from refexp.datagen import SceneGenSpec, mirrored_duplicate_scenes
from refexp.scene import PipelineConfig, RelationCategory, SpatialRelation

from helpers import held_relations, make_scene, scored_from_relations, two_books_and_mouse

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_namespace():
    """perfbench/tracing.py's globals, executed from its source so no bytecode
    cache is written next to it."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def tracer_patches():
    return tracing_namespace()["_PATCHES"]


def test_every_patched_name_resolves():
    patches = tracer_patches()
    missing = [f"{getattr(owner, '__name__', owner)}.{attribute}"
               for owner, attribute, *_ in patches if not callable(getattr(owner, attribute, None))]
    assert patches and missing == []


def test_observers_read_real_results(rpn_model, rin_model):
    """Each observer runs on what the hooked call really returns, through the
    installed tracer, and records the figure that result holds."""
    tracing = tracing_namespace()
    observed = {observe.__name__ for *_, observe in tracing["_PATCHES"] if observe is not None}
    assert observed == {"_scored", "_above", "_kept", "_forward_rows", "_krreg", "_drawn"}

    scene, silent_scene = two_books_and_mouse(), mirrored_duplicate_scenes(1, seed=7)[0]
    spec = SceneGenSpec(min_objects=3, max_objects=5, seed=2)
    with tracing["Tracer"]() as tracer:
        scored = pipeline.score_scene(rpn_model, rin_model, scene)  # _scored, _forward_rows
        sets = pipeline.build_candidate_sets(scored, 2)  # _above
        kept = pipeline.eliminate_ambiguous(sets, scene)  # _kept
        answers = [evaluation.krreg_describe(rpn_model, s, 0)  # _krreg, _forward_rows
                   for s in (scene, silent_scene)]
        drawn = datagen.generate_scenes(spec, 2) + [  # _drawn, on both drawing hooks
            datagen._archetype_pair_scene(spec, np.random.default_rng(0), 0)]
    values = tracer.values

    assert values["networks.relations_built"] == len(scored) == 3 * 2 * 6
    assert list(tracer.scored_scenes.values()) == [scene]
    assert values["pipeline.candidates_above"] == len(held_relations(sets.above_threshold)) > 0
    assert values["pipeline.candidates_kept"] == len(kept) > 0
    # rpn and rin's first batch for the scored scene, then rpn on each krreg scene
    assert values["mlp.forward_rows"] == 3 * 2 + 3 * 2 + 3 * 2 + 4 * 3
    assert answers[0] is not None and answers[1] is None
    assert values["krreg.silent"] == 1
    assert values["datagen.pairs_drawn"] == sum(len(s.objects) * (len(s.objects) - 1) for s in drawn)
    assert tracer.calls["datagen.scene_drawn"] == 3


def test_selection_observers_read_mask_stages(rpn_model, rin_model):
    """``candidates_above`` counts the above-threshold entries at a threshold below
    0.5 as well, and ``candidates_kept`` reads 0 for a target whose every relation is
    mirrored by its twin."""
    tracing = tracing_namespace()
    scene = two_books_and_mouse()
    scored = pipeline.score_scene(rpn_model, rin_model, scene)
    twins = make_scene([(0, "book", (0, 40, 10, 10)), (1, "book", (40, 40, 10, 10)),
                        (2, "mouse", (20, 40, 8, 8))])
    right = RelationCategory.RIGHT
    mirrored = scored_from_relations([SpatialRelation(1, 2, right, 0.9, 0.8),
                                      SpatialRelation(0, 2, right, 0.9, 0.7)])
    with tracing["Tracer"]() as tracer:
        low = pipeline.build_candidate_sets(scored, 2, PipelineConfig(presence_threshold=0.3))
        twin_sets = pipeline.build_candidate_sets(mirrored, 1)
        kept = pipeline.eliminate_ambiguous(twin_sets, twins)
    values = tracer.values

    above = len(held_relations(low.above_threshold))
    assert above > 0
    assert values["pipeline.candidates_above"] == above + 2
    assert kept == () and tracer.calls["pipeline.eliminate"] == 1
    assert "pipeline.candidates_kept" in values and values["pipeline.candidates_kept"] == 0
