"""Acceptance gate: ten behavioral criteria, one printed PASS/FAIL line each.

Each test prints its verdict through the capture bypass so the line shows up
in a plain `pytest -v` run, then asserts. Trained-model criteria share the
session fixtures from conftest.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from refexp.datagen import SceneGenSpec, generate_scenes, mirrored_duplicate_scenes
from refexp.evaluation import compare_corpus, pipeline_oracle_check
from refexp.krreg import krreg_describe
from refexp.mlp import gradient_check, init_model, load_model, save_model
from refexp.networks import rin_layer_specs, rpn_layer_specs, score_scene
from refexp.pipeline import EmptyCandidatesError, build_candidate_sets, describe, select_relation
from refexp.rules import rule_relations
from refexp.scene import (BoundingBox, PipelineConfig, RelationCategory, SpatialRelation)

from helpers import held_relations, scored_from_relations

R = RelationCategory


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def independent_relations(a: BoundingBox, b: BoundingBox) -> set:
    """Plain transcription of the six inequality pairs, coded separately."""
    out = set()
    if a.x > b.x and a.x + a.w > b.x + b.w:
        out.add(R.RIGHT)
    if a.x < b.x and a.x + a.w < b.x + b.w:
        out.add(R.LEFT)
    if a.x > b.x and a.x + a.w < b.x + b.w:
        out.add(R.ON_TOP)
    if a.x < b.x and a.x + a.w > b.x + b.w:
        out.add(R.AT_BOTTOM)
    if a.y > b.y and a.y + a.h > b.y + b.h:
        out.add(R.IN_FRONT)
    if a.y < b.y and a.y + a.h < b.y + b.h:
        out.add(R.BEHIND)
    return out


MIRROR = {R.RIGHT: R.LEFT, R.LEFT: R.RIGHT, R.ON_TOP: R.AT_BOTTOM,
          R.AT_BOTTOM: R.ON_TOP, R.IN_FRONT: R.BEHIND, R.BEHIND: R.IN_FRONT}

X_GROUP = {R.RIGHT, R.LEFT, R.ON_TOP, R.AT_BOTTOM}
Y_GROUP = {R.IN_FRONT, R.BEHIND}


def test_criterion_01_rule_table_fidelity(capsys):
    rng = np.random.default_rng(1)
    n = 100_000
    coords = rng.uniform(0, 900, size=(n, 4))
    sizes = rng.uniform(1, 300, size=(n, 4))
    started = time.perf_counter()
    mismatches = 0
    for k in range(n):
        a = BoundingBox(coords[k, 0], coords[k, 1], sizes[k, 0], sizes[k, 1])
        b = BoundingBox(coords[k, 2], coords[k, 3], sizes[k, 2], sizes[k, 3])
        forward = rule_relations(a, b)
        if forward != independent_relations(a, b):
            mismatches += 1
        backward = rule_relations(b, a)
        assert {MIRROR[c] for c in forward} == backward
        assert len(forward & X_GROUP) <= 1 and len(forward & Y_GROUP) <= 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    report(capsys, 1, ok,
           f"{mismatches} mismatches over {n} pairs, properties hold, {elapsed:.2f}s")


def test_criterion_02_gradient_correctness(capsys):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rpn = init_model(rpn_layer_specs(), seed)
        worst = max(worst, gradient_check(rpn, rng.uniform(0, 1, 8), int(rng.integers(6))))
        rin = init_model(rin_layer_specs(), seed)
        worst = max(worst, gradient_check(rin, rng.uniform(0, 1, 14), int(rng.integers(2))))
    report(capsys, 2, worst < 1e-4,
           f"max relative error {worst:.2e} over 20 seeded trials, both shapes")


def test_criterion_03_synthetic_learnability(capsys, rpn_setup, rin_setup):
    seconds = rpn_setup.seconds + rin_setup.seconds
    ok = (rpn_setup.test_accuracy >= 0.95 and rin_setup.test_accuracy >= 0.85
          and seconds < 120.0)
    report(capsys, 3, ok,
           f"held-out accuracy rpn {rpn_setup.test_accuracy:.4f} (>=0.95), "
           f"rin {rin_setup.test_accuracy:.4f} (>=0.85), total {seconds:.0f}s (<120s)")


def test_criterion_03_annotated_datasets_if_supplied(capsys):
    rpn_path = os.environ.get("REFEXP_VG_RPN")
    rin_path = os.environ.get("REFEXP_VG_RIN")
    if not (rpn_path and rin_path):
        pytest.skip("set REFEXP_VG_RPN and REFEXP_VG_RIN to annotation files to enable")
    from refexp.datagen import (extract_rin_dataset, extract_rpn_dataset,
                                rin_training_pairs, rpn_training_pairs)
    from refexp.mlp import TrainConfig, accuracy, train
    from helpers import split_pairs
    cfg = TrainConfig(seed=0, max_epochs=600, patience=30)
    rest, test = split_pairs(rpn_training_pairs(extract_rpn_dataset(rpn_path)))
    rpn, _ = train(rest, rpn_layer_specs(), cfg, dropout_rate=0.0)
    rpn_acc = accuracy(rpn, test)
    rest, test = split_pairs(rin_training_pairs(extract_rin_dataset(rin_path)))
    rin, _ = train(rest, rin_layer_specs(), cfg)
    rin_acc = accuracy(rin, test)
    ok = rpn_acc >= 0.85 and rin_acc >= 0.70
    report(capsys, 3, ok,
           f"annotated datasets: rpn {rpn_acc:.4f} (>=0.85), rin {rin_acc:.4f} (>=0.70)")


def test_criterion_04_pipeline_oracle_equivalence(capsys, rpn_model, rin_model):
    scenes = generate_scenes(SceneGenSpec(min_objects=2, max_objects=8, seed=4), 1000)
    matches, total = pipeline_oracle_check(rpn_model, rin_model, scenes)
    report(capsys, 4, matches == total,
           f"describe matched its brute-force twin on {matches}/{total} cases")


def test_criterion_05_threshold_semantics(capsys, rpn_model, rin_model):
    boundary = scored_from_relations([SpatialRelation(0, 1, R.RIGHT, 0.5, 0.9)])
    at_default = build_candidate_sets(boundary, 0)
    exact_excluded = held_relations(at_default.above_threshold) == ()

    scene = generate_scenes(SceneGenSpec(seed=42), 1)[0]
    scored = score_scene(rpn_model, rin_model, scene)
    previous = None
    monotone = True
    for t in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        cfg = PipelineConfig(presence_threshold=t)
        current = set(held_relations(build_candidate_sets(scored, 0, cfg).above_threshold))
        if previous is not None and not current <= previous:
            monotone = False
        previous = current
    report(capsys, 5, exact_excluded and monotone,
           "p=0.5 excluded at T=0.5; sweep 0.1..0.9 only ever shrinks the candidate set")


def test_criterion_06_selection_prefers_confidence(capsys):
    far = SpatialRelation(2, 0, R.RIGHT, 0.9649, 0.4940)
    near = SpatialRelation(2, 1, R.RIGHT, 0.8735, 0.9860)
    chosen = select_relation([far, near])
    report(capsys, 6, chosen is near,
           f"picked p={chosen.probability} c={chosen.confidence}, the higher-confidence candidate")


def test_criterion_07_baseline_silence_rescued(capsys, rpn_model, rin_model):
    scenes = mirrored_duplicate_scenes(50, seed=7)
    failures = 0
    rescued = 0
    for scene in scenes:
        if krreg_describe(rpn_model, scene, 0) is not None:
            continue
        failures += 1
        try:
            describe(rpn_model, rin_model, scene, 0)
            rescued += 1
        except EmptyCandidatesError:
            pass
    ok = failures >= 1 and rescued >= 0.8 * failures
    report(capsys, 7, ok,
           f"baseline silent on {failures}/50 scenes; ours answered {rescued} of those")


def test_criterion_08_ambiguity_rates(capsys, rpn_model, rin_model):
    corpus = mirrored_duplicate_scenes(200, seed=8)
    rep = compare_corpus(rpn_model, rin_model, corpus)
    ours_rate = rep.ours.unambiguous_rate_over_expressions()
    ours_case_rate = rep.ours.unambiguous_rate_over_cases()
    krreg_case_rate = rep.krreg.unambiguous_rate_over_cases()
    ok = ours_rate >= 0.90 and ours_case_rate > krreg_case_rate
    report(capsys, 8, ok,
           f"ours {ours_rate:.4f} of expressions unambiguous (>=0.90); "
           f"per case ours {ours_case_rate:.4f} > baseline {krreg_case_rate:.4f}")


def test_criterion_09_run_determinism(capsys, tmp_path):
    from refexp.cli import main

    def one_run(workdir):
        os.makedirs(workdir, exist_ok=True)
        rpn_data = os.path.join(workdir, "rpn.jsonl")
        rin_data = os.path.join(workdir, "rin.jsonl")
        corpus = os.path.join(workdir, "corpus.jsonl")
        rpn_w = os.path.join(workdir, "rpn_weights.json")
        rin_w = os.path.join(workdir, "rin_weights.json")
        rep = os.path.join(workdir, "report.json")
        assert main(["gen-data", "rpn", "--out", rpn_data, "-n", "240"]) == 0
        assert main(["gen-data", "rin", "--out", rin_data, "-n", "240"]) == 0
        assert main(["train", "rpn", rpn_data, "--out", rpn_w, "--epochs", "25"]) == 0
        assert main(["train", "rin", rin_data, "--out", rin_w, "--epochs", "25"]) == 0
        assert main(["gen-scenes", "--out", corpus, "--count", "6",
                     "--style", "mirrored", "--seed", "8"]) == 0
        assert main(["compare", corpus, "--rpn", rpn_w, "--rin", rin_w,
                     "--out", rep]) == 0
        return [Path(p).read_bytes() for p in (rpn_w, rin_w, rep)]

    first = one_run(str(tmp_path / "a"))
    second = one_run(str(tmp_path / "b"))
    identical = all(x == y for x, y in zip(first, second))
    report(capsys, 9, identical,
           "two seeded train+compare runs wrote byte-identical weights and reports")


def test_criterion_10_serialization_round_trip(capsys, tmp_path):
    worst_mismatches = 0
    for name, specs in (("rpn", rpn_layer_specs()), ("rin", rin_layer_specs())):
        model = init_model(specs, 10)
        path = tmp_path / f"{name}.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        inputs = np.random.default_rng(11).uniform(0, 1, size=(100, specs[0].input_dim))
        worst_mismatches += sum(
            0 if np.array_equal(model.forward(x), loaded.forward(x)) else 1
            for x in inputs)
    report(capsys, 10, worst_mismatches == 0,
           "forward outputs bit-exact after save/load on 100 random inputs per shape")
