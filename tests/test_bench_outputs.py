"""describe's outputs on the benchmark's own inputs, pinned so that a changed phrase
fails here rather than only when the benchmark runs.

The inputs are seed 1 of ``perfbench/streams.py`` scored by the frozen
``perfbench/weights``; the digests are built as ``perfbench/workloads.py`` builds
them. The figures were taken with NumPy 2.4.6 on scipy-openblas 0.3.31; another
BLAS may round a score differently and so move a digest.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

import refexp.evaluation as evaluation
import refexp.pipeline as pipeline
from refexp.mlp import load_model
from refexp.scene import scene_from_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def streams():
    """perfbench/streams.py's globals, executed from its source so no bytecode
    cache is written next to it."""
    source = PERFBENCH / "streams.py"
    namespace = {"__name__": "perfbench_streams"}
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"), namespace)
    return namespace


@pytest.fixture(scope="module")
def bench_models():
    return tuple(load_model(str(PERFBENCH / "weights" / name)) for name in ("rpn.json", "rin.json"))


def test_serve_block_0(streams, bench_models):
    """Seed 1, block 0: every request's phrase, how many are expressed and how
    many the judge calls unambiguous."""
    rpn, rin = bench_models
    digest, requests, expressed, unambiguous = hashlib.sha256(), 0, 0, 0
    for doc, target, _ in streams["serve_block"](1, 0):
        scene = scene_from_json(doc)
        try:
            expression = pipeline.describe(rpn, rin, scene, target)
        except pipeline.EmptyCandidatesError:
            expression = None
        digest.update(f"{target}\t{None if expression is None else expression.phrase}\n".encode())
        requests += 1
        if expression is not None:
            expressed += 1
            unambiguous += evaluation.ambiguity_oracle(scene, expression) == evaluation.UNAMBIGUOUS
    assert (requests, expressed, unambiguous) == (697, 696, 476)
    assert digest.hexdigest() == "0b7954ce2a4ca3eb11693ea83c90ae07af374207e7bbe7b6e3f8821dcd8b0d51"


def test_corpus_pass_0(streams, bench_models):
    """Seed 1, corpus pass 0: both methods' phrase for every case and each
    method's (unambiguous, ambiguous, no expression) counts."""
    rpn, rin = bench_models
    digest, cases = hashlib.sha256(), 0
    counts = {"ours": Counter(), "krreg": Counter()}
    for k, chunk in enumerate(streams["corpus_chunks"](1)):
        report = evaluation.compare_corpus(rpn, rin, chunk)
        for r in report.records:
            digest.update(f"{k}\t{r.scene_index}\t{r.target_id}\t"
                          f"{r.ours_phrase}\t{r.krreg_phrase}\n".encode())
        cases += report.case_count
        for method, total in counts.items():
            total.update(getattr(report, method).to_json())
    assert cases == 2319
    assert counts == {"ours": {"unambiguous": 1989, "ambiguous": 328, "no_expression": 2},
                      "krreg": {"unambiguous": 1489, "ambiguous": 370, "no_expression": 460}}
    assert digest.hexdigest() == "a1c9add139f0b82db49d07c42747ba81b8137e8ae5059192f0b73f6d76ab87d9"
