"""The benchmark's own tests: seeded inputs, metric names, tracing, failure paths.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import streams
import tracing
import workloads
from refexp.scene import scene_to_json

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# per-layer metrics that must be non-zero on each workload
NAMED = {
    "serve": ["scene.parse_ms", "networks.encode_ms", "networks.encode_calls",
              "mlp.forward_ms.rpn", "mlp.forward_ms.rin", "mlp.forward_rows",
              "networks.score_self_ms", "networks.relations_built",
              "networks.score_calls_per_scene", "pipeline.threshold_ms",
              "pipeline.eliminate_ms", "pipeline.select_ms", "pipeline.candidates_above",
              "pipeline.candidates_kept", "cli.import_ms", "mlp.load_model_ms"],
    "corpus": ["networks.encode_ms", "networks.encode_calls", "mlp.forward_ms.rpn",
               "mlp.forward_ms.rin", "networks.score_self_ms", "networks.relations_built",
               "networks.score_calls_per_scene", "pipeline.twin_ms", "krreg.describe_ms",
               "krreg.silent_share", "krreg.unambiguous_rate", "evaluation.oracle_ms",
               "evaluation.oracle_calls", "rules.rule_holds_calls",
               "datagen.generate_scenes_ms", "mlp.load_model_ms"],
    "train": ["rules.rule_holds_calls", "rules.rule_margins_calls", "datagen.synth_s.rpn",
              "datagen.synth_s.rin", "datagen.scenes_drawn.rpn", "datagen.scenes_drawn.rin",
              "datagen.emit_ratio.rpn", "mlp.train_s.rpn", "mlp.train_s.rin",
              "mlp.epochs.rpn", "mlp.epochs.rin", "mlp.train_rows_per_s"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# --- seeded inputs ------------------------------------------------------------

def test_serve_block_is_deterministic_and_stratified():
    block = streams.serve_block(5, 0)
    assert block == streams.serve_block(5, 0)
    assert block != streams.serve_block(6, 0)
    assert block != streams.serve_block(5, 1)
    large = sorted(len(doc["objects"]) for doc, _, c in block if c == "large")
    small = [len(doc["objects"]) for doc, _, c in block if c == "small"]
    assert large == list(streams.LARGE_SIZES)
    assert len(small) == streams.SMALL_PER_LARGE * len(streams.LARGE_SIZES)
    assert min(small) >= streams.SMALL_SIZES[0] and max(small) <= streams.SMALL_SIZES[1]
    assert all(0 <= target < len(doc["objects"]) for doc, target, _ in block)


def test_corpus_pass_is_deterministic():
    def as_json(chunks):
        return [[scene_to_json(s) for s in chunk] for chunk in chunks]
    first = as_json(streams.corpus_chunks(3))
    assert first == as_json(streams.corpus_chunks(3))
    assert first != as_json(streams.corpus_chunks(4))
    assert first != as_json(streams.corpus_chunks(3, corpus_pass=1))
    assert len(first) == streams.CORPUS_CHUNKS
    assert sum(len(c) for c in first) == streams.CORPUS_GENERATED + streams.CORPUS_MIRRORED


def test_train_seeds_are_deterministic_and_distinct():
    specs = [streams.rpn_chunk_spec(2, k) for k in range(4)]
    specs += [streams.rin_chunk_spec(2, k) for k in range(4)] + [streams.eval_spec(2)]
    assert specs == [streams.rpn_chunk_spec(2, k) for k in range(4)] + \
        [streams.rin_chunk_spec(2, k) for k in range(4)] + [streams.eval_spec(2)]
    assert len({s.seed for s in specs}) == len(specs)
    assert streams.holdout(list(range(50)), 7) == streams.holdout(list(range(50)), 7)


# --- metric names ---------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    out = workloads.Outcome(attempted=1, cases=1, intervals=[(1, 1.0, 1.0)])
    setup = {"setup_s": [1.0]}
    assert list(workloads.end_to_end(out, setup, 1.0)) == END_TO_END
    assert list(workloads.per_layer(tracing.Tracer(), out, setup, 0.0)) == PER_LAYER


def test_serve_run_prints_every_end_to_end_metric():
    done = bench("--workload", "serve", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


# --- tracing --------------------------------------------------------------------

def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        wrapped_child()

    wrapped_child = tracer.span("child", child)
    tracer.span("parent", parent)()
    by_name = {s[tracing.NAME]: s for s in tracer.spans}
    assert by_name["child"][tracing.PARENT] == 0
    assert tracer.total("parent") >= tracer.total("child") >= 0.02
    assert 0.01 <= tracer.self_total("parent") < 0.02


def test_tracer_restores_every_patched_name():
    import refexp.pipeline as pipeline
    original = pipeline.score_scene
    with tracing.Tracer():
        assert pipeline.score_scene is not original
    assert pipeline.score_scene is original


def test_traced_serve_run_emits_every_per_layer_metric():
    done = bench("--workload", "serve", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == PER_LAYER
    assert [n for n in NAMED["serve"] if not metrics[n]["value"] > 0] == []
    assert metrics["networks.score_calls_per_scene"]["value"] == 1.0


def test_traced_corpus_emits_its_per_layer_metrics():
    state = workloads.prepare_corpus(3)
    setup = {name: [value] for name, value in workloads.setup_corpus(state).items()}
    state["first_pass"] = streams.corpus_chunks(3, 0, generated=20, mirrored=10, chunks=2)
    tracer = tracing.Tracer()
    out = workloads.run_corpus(state, 3, 0.01, tracer)
    assert out.mismatches == [] and out.failed == 0
    metrics = workloads.per_layer(tracer, out, setup, 0.0)
    assert [n for n in NAMED["corpus"] if not metrics[n] > 0] == []
    assert metrics["networks.score_calls_per_scene"] > 1.0


def test_traced_train_emits_its_per_layer_metrics():
    tracer = tracing.Tracer()
    out = workloads.run_train({}, 3, 0.01, tracer, n_rpn=300, n_rin=400, chunks=1,
                              eval_scenes=5)
    metrics = workloads.per_layer(tracer, out, {"setup_s": [1.0]}, 0.0)
    assert [n for n in NAMED["train"] if not metrics[n] > 0] == []
    assert 0 < metrics["datagen.emit_ratio.rpn"] < 1


# --- failure paths --------------------------------------------------------------

def test_mismatch_fails_the_run(monkeypatch, capsys):
    def fake_run(state, seed, seconds, tracer=None, between=None):
        return workloads.Outcome(attempted=1, cases=1, intervals=[(1, 1.0, 1.0)],
                                 mismatches=["describe and describe_oracle disagree"])
    monkeypatch.setitem(workloads.WORKLOADS, "serve",
                        (lambda seed: {}, lambda state: {"setup_s": 1.0}, fake_run))
    code = run.main(["--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == run.CHECK_FAILED
    assert result["correct"] is False and result["metrics"] == {}


def test_failed_operation_fails_the_run(monkeypatch, capsys):
    def fake_run(state, seed, seconds, tracer=None, between=None):
        return workloads.Outcome(attempted=2, failed=1, cases=2, intervals=[(1, 1.0, 1.0)])
    monkeypatch.setitem(workloads.WORKLOADS, "serve",
                        (lambda seed: {}, lambda state: {"setup_s": 1.0}, fake_run))
    code = run.main(["--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == run.CHECK_FAILED
    assert result == {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}


def test_uncaught_exception_still_ends_with_a_result_line(monkeypatch, capsys):
    def fake_run(state, seed, seconds, tracer=None, between=None):
        raise RuntimeError("broken workload")
    monkeypatch.setitem(workloads.WORKLOADS, "serve",
                        (lambda seed: {}, lambda state: {"setup_s": 1.0}, fake_run))
    code = run.main(["--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == run.CHECK_FAILED
    assert result["correct"] is False and result["failed"] >= 1


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


def test_raising_describe_ends_serve_as_failed(monkeypatch):
    import refexp.pipeline as pipeline
    state = {"models": workloads._load_models(*workloads.verify_weights())}
    monkeypatch.setattr(pipeline, "describe", _raise)
    out = workloads.run_serve(state, 1, 10.0)
    assert out.failed == 1 and out.attempted == 1


def test_raising_chunk_ends_corpus_instead_of_looping(monkeypatch):
    import refexp.evaluation as evaluation
    state = {"models": workloads._load_models(*workloads.verify_weights()),
             "first_pass": streams.corpus_chunks(3, 0, generated=4, mirrored=2, chunks=2)}
    monkeypatch.setattr(evaluation, "compare_corpus", _raise)
    out = workloads.run_corpus(state, 3, 10.0)
    assert out.failed > 0 and out.intervals == []


def test_raising_training_ends_train_as_failed(monkeypatch):
    import refexp.mlp as mlp
    monkeypatch.setattr(mlp, "train", _raise)
    out = workloads.run_train({}, 3, 0.01, n_rpn=30, n_rin=40, chunks=1, eval_scenes=2)
    assert out.failed == 1 and "injected" in out.errors[0]


def test_train_throughput_covers_both_trainings():
    out = workloads.run_train({}, 3, 0.01, n_rpn=300, n_rin=400, chunks=1, eval_scenes=5)
    assert out.failed == 0 and out.mismatches == []
    layer = out.details["layer"]
    assert len(out.intervals) == 3
    assert out.intervals[1][1] == layer["mlp.train_s.rpn"]
    assert out.intervals[2][1] == layer["mlp.train_s.rin"]


def test_serve_check_catches_a_wrong_phrase(monkeypatch):
    import refexp.pipeline as pipeline
    state = {"models": workloads._load_models(*workloads.verify_weights())}
    real = pipeline.describe_oracle

    def wrong(*args, **kwargs):
        expression = real(*args, **kwargs)
        return type(expression)(expression.target_id, expression.reference_id,
                                expression.category, expression.phrase + "!")

    monkeypatch.setattr(pipeline, "describe_oracle", wrong)
    out = workloads.run_serve(state, 1, 0.01)
    assert out.mismatches


def test_altered_weights_are_refused(tmp_path, monkeypatch):
    for name in ("rpn.json", "rin.json", "SHA256SUMS"):
        shutil.copy(workloads.WEIGHTS / name, tmp_path / name)
    with open(tmp_path / "rin.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    monkeypatch.setattr(workloads, "WEIGHTS", tmp_path)
    with pytest.raises(workloads.SetupError):
        workloads.verify_weights()


def test_refuses_to_run_without_refexp_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
