"""The serve, corpus and train workloads, their set-up and their checks.

Each workload runs in one process with one client in a closed loop: an
operation starts when the previous one has returned. Timed regions hold only
calls into refexp; correctness checks run after them, untraced. refexp
functions are looked up through their modules at call time, so the tracer's
patches take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import refexp.datagen as datagen
import refexp.evaluation as evaluation
import refexp.mlp as mlp
import refexp.networks as networks
import refexp.pipeline as pipeline
import refexp.rules as rules
import refexp.scene as scene
from refexp.evaluation import UNAMBIGUOUS
from refexp.mlp import TrainConfig
from refexp.pipeline import EmptyCandidatesError
from refexp.scene import CATEGORIES, BoundingBox

import streams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WEIGHTS = HERE / "weights"
# set-up is sampled before, during (between timed intervals, at most every
# SETUP_EVERY_S) and after the measured run and reported as the median, so one
# slow moment of a shared host does not decide it
SETUP_BEFORE, SETUP_AFTER = 3, 2
SETUP_EVERY_S = 2.0
# a corpus set-up sample is the median of CORPUS_SETUP_REPEATS in-process
# set-ups, each scaled to NOMINAL_GAUGE_S (see setup_corpus)
CORPUS_SETUP_REPEATS = 5
NOMINAL_GAUGE_S = 0.010
GAUGE_EVERY = 100  # serve requests between two reference-kernel timings
TRAIN_RECIPE = {"max_epochs": 600, "patience": 30}
# train throughput counts one op per synthesised sample and one per this many
# row-epochs of training. On a 2-core Xeon VM, with the engine as it was when
# the benchmark was written, one op takes about the same time in every phase
# (synthesis about 450 samples/s; training about 200k rpn and 115k rin
# row-epochs/s), so a slowdown of a phase moves throughput by that phase's
# share of the time, and a seed that trains more epochs is not slower.
TRAIN_ROW_EPOCHS_PER_OP = {"rpn": 450, "rin": 260}
COLD_START_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The benchmark cannot start: missing or altered inputs."""


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    attempted: int = 0
    failed: int = 0
    cases: int = 0
    unambiguous: int = 0
    expressed: int = 0
    intervals: list[tuple[int, float, float]] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def failure(self, count: int = 1) -> None:
        """Count failed operations; keep the first tracebacks for the report."""
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(traceback.format_exc())

    def add_interval(self, ops: int, seconds: float, ref_units: float) -> None:
        """Record ops completed in a timed interval, its seconds and its
        length in reference-kernel runs."""
        self.intervals.append((ops, seconds, ref_units))

    def throughput(self, per_ref: bool) -> float:
        """Ops over all timed intervals, per reference-kernel run or per second."""
        if not self.intervals:
            return 0.0
        ops, seconds, units = (sum(column) for column in zip(*self.intervals))
        return ops / (units if per_ref else seconds)

    def count_report(self, methods) -> None:
        self.cases += methods.cases
        self.unambiguous += methods.unambiguous
        self.expressed += methods.expressions


def gauge_s() -> float:
    """Seconds a fixed reference kernel takes right now.

    The kernel (dict updates and small matrix products, no refexp code) is
    the gauge of machine speed behind `throughput_per_ref`.
    """
    start = perf_counter()
    table: dict[int, float] = {}
    for i in range(60_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    a, w = np.ones((50, 14)), np.ones((64, 14))
    for _ in range(300):
        np.maximum(a @ w.T, 0.0)
    return perf_counter() - start


class RefTimer:
    """Converts timed intervals into runs of the reference kernel.

    The kernel is timed before and after every interval; an interval of t
    seconds counts t / g runs, g being the mean of the two kernel times. The
    shared host's speed can drift by tens of percent within seconds; the ratio
    cancels that drift where wall time alone cannot.
    """

    def __init__(self) -> None:
        self.units = 0.0
        self._last = gauge_s()

    def add(self, seconds: float) -> None:
        now = gauge_s()
        self.units += seconds / ((self._last + now) / 2.0)
        self._last = now


def _traced(tracer):
    return tracer if tracer is not None else contextlib.nullcontext()


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile in ms."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))
    return 1000.0 * ordered[rank]


# --- set-up ---------------------------------------------------------------------

def verify_weights() -> tuple[Path, Path]:
    """Check both weight files against SHA256SUMS before any timing starts."""
    sums = {}
    for line in (WEIGHTS / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    for name in ("rpn.json", "rin.json"):
        path = WEIGHTS / name
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if sums.get(name) != actual:
            raise SetupError(f"{path} does not match its SHA-256 in SHA256SUMS")
    return WEIGHTS / "rpn.json", WEIGHTS / "rin.json"


COLD_START = r"""
import json, sys, time
t0 = time.perf_counter()
import refexp.cli
t1 = time.perf_counter()
timings = {"import_s": t1 - t0}
if len(sys.argv) > 1:
    from refexp.mlp import load_model
    from refexp.networks import validate_rin, validate_rpn
    from refexp.scene import scene_from_json
    validate_rpn(load_model(sys.argv[1]))
    validate_rin(load_model(sys.argv[2]))
    t2 = time.perf_counter()
    scene_from_json(json.loads(sys.argv[3]))
    timings.update(load_s=t2 - t1, parse_s=time.perf_counter() - t2)
print(json.dumps(timings))
"""


def cold_start(args: list[str]) -> tuple[float, dict]:
    """Wall time of a fresh interpreter running COLD_START, and its own timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", COLD_START, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise SetupError(f"cold start failed: {done.stderr.strip()}")
    return wall, json.loads(done.stdout.strip().splitlines()[-1])


def _load_models(rpn_path: Path, rin_path: Path):
    rpn = mlp.load_model(str(rpn_path))
    networks.validate_rpn(rpn)
    rin = mlp.load_model(str(rin_path))
    networks.validate_rin(rin)
    return rpn, rin


def prepare_serve(seed: int) -> dict:
    paths = verify_weights()
    return {"models": _load_models(*paths), "paths": paths,
            "doc": json.dumps(streams.serve_block(seed, 0)[0][0])}


def setup_serve(state: dict) -> dict[str, float]:
    """Cold start: a fresh interpreter imports refexp.cli, loads both weight
    files and parses one scene."""
    rpn_path, rin_path = state["paths"]
    wall, inner = cold_start([str(rpn_path), str(rin_path), state["doc"]])
    return {"setup_s": wall, "cli.import_ms": 1000.0 * inner["import_s"],
            "mlp.load_model_ms": 1000.0 * inner["load_s"]}


def prepare_corpus(seed: int) -> dict:
    paths = verify_weights()
    return {"models": _load_models(*paths), "paths": paths, "seed": seed,
            "first_pass": streams.corpus_chunks(seed)}


def setup_corpus(state: dict) -> dict[str, float]:
    """Model loading plus generation of the first corpus pass, in process.

    Each repeat's `setup_s` is in seconds at nominal machine speed: wall
    seconds times NOMINAL_GAUGE_S over the reference kernel's time taken just
    before and after it. The set-up takes about 30 to 60 ms, and the shared
    host switches between those speeds for seconds at a time; the ratio
    cancels that, as it does for `throughput_per_ref`. `setup_wall_s` is the
    unscaled time. NOMINAL_GAUGE_S is about the kernel's time on a 2-core Xeon
    VM in its fast phase, where the two read alike. The sample is the median
    of each figure over the repeats.
    """
    repeats = []
    last_gauge = gauge_s()
    for _ in range(CORPUS_SETUP_REPEATS):
        start = perf_counter()
        _load_models(*state["paths"])
        loaded = perf_counter()
        streams.corpus_chunks(state["seed"])
        done = perf_counter()
        gauge = gauge_s()
        repeats.append({"setup_s": (done - start) * NOMINAL_GAUGE_S / ((last_gauge + gauge) / 2.0),
                        "setup_wall_s": done - start,
                        "mlp.load_model_ms": 1000.0 * (loaded - start),
                        "datagen.generate_scenes_ms": 1000.0 * (done - loaded)})
        last_gauge = gauge
    return {name: statistics.median(r[name] for r in repeats) for name in repeats[0]}


def prepare_train(seed: int) -> dict:
    return {}


def setup_train(state: dict) -> dict[str, float]:
    """Cold start: a fresh interpreter imports refexp.cli, as `refexp gen-data`
    and `refexp train` do before any work."""
    wall, inner = cold_start([])
    return {"setup_s": wall, "cli.import_ms": 1000.0 * inner["import_s"]}


# --- serve ----------------------------------------------------------------------

def _nothing() -> None:
    pass


class SetupSampler:
    """Set-up samples of one run, taken between the timed intervals too."""

    def __init__(self, sample, state: dict) -> None:
        self._sample, self._state = sample, state
        self.samples: list[dict[str, float]] = []
        self._last = perf_counter()

    def take(self) -> None:
        self.samples.append(self._sample(self._state))
        self._last = perf_counter()

    def between(self) -> None:
        """Called by a workload between timed intervals."""
        if perf_counter() - self._last >= SETUP_EVERY_S:
            self.take()

    def by_name(self) -> dict[str, list[float]]:
        return {name: [s[name] for s in self.samples] for name in self.samples[0]}


def run_serve(state: dict, seed: int, seconds: float, tracer=None, between=_nothing) -> Outcome:
    """Blocks of single-request scenes until `seconds` of request time are measured.

    Each block is checked right after it is timed, so memory stays at one block.
    A request that raises anything but EmptyCandidatesError ends the run,
    which then fails.
    """
    rpn, rin = state["models"]
    out = Outcome()
    latency: dict[str, list[float]] = {"small": [], "large": []}
    digest = hashlib.sha256()
    measured = 0.0
    block = 0
    while block == 0 or measured < seconds:
        requests = streams.serve_block(seed, block)
        served = []
        busy = interval = 0.0
        timer = RefTimer()
        with _traced(tracer):
            for i, (doc, target, size_class) in enumerate(requests, start=1):
                if tracer is not None:
                    tracer.request = out.attempted
                out.attempted += 1
                start = perf_counter()
                try:
                    parsed = scene.scene_from_json(doc)
                    expression = pipeline.describe(rpn, rin, parsed, target)
                except EmptyCandidatesError:
                    expression = None
                except Exception:
                    out.failure()
                    return out
                elapsed = perf_counter() - start
                busy += elapsed
                interval += elapsed
                latency[size_class].append(elapsed)
                if i % GAUGE_EVERY == 0 or i == len(requests):
                    timer.add(interval)
                    interval = 0.0
                served.append((parsed, target, expression))
        out.add_interval(len(requests), busy, timer.units)
        measured += busy
        _check_served(out, rpn, rin, served, digest if block == 0 else None)
        between()
        block += 1

    out.cases = out.attempted
    small, large = latency["small"], latency["large"]
    out.details.update({
        "blocks": block,
        "requests": {"small": len(small), "large": len(large)},
        "p50_ms.small": _percentile(small, 50), "p99_ms.small": _percentile(small, 99),
        "p50_ms.large": _percentile(large, 50), "p95_ms.large": _percentile(large, 95),
        "phrases_sha256.block0": digest.hexdigest(),
    })
    return out


def _check_served(out: Outcome, rpn, rin, served, digest) -> None:
    """describe must agree with describe_oracle; grade each phrase for a hearer."""
    for parsed, target, expression in served:
        try:
            twin = pipeline.describe_oracle(rpn, rin, parsed, target).phrase
        except EmptyCandidatesError:
            twin = None
        phrase = None if expression is None else expression.phrase
        if twin != phrase:
            out.mismatches.append(f"target {target}: describe gave {phrase!r}, "
                                  f"describe_oracle gave {twin!r}")
        if digest is not None:
            digest.update(f"{target}\t{phrase}\n".encode())
        if expression is not None:
            out.expressed += 1
            if evaluation.ambiguity_oracle(parsed, expression) == UNAMBIGUOUS:
                out.unambiguous += 1


# --- corpus ---------------------------------------------------------------------

def run_corpus(state: dict, seed: int, seconds: float, tracer=None,
               between=_nothing) -> Outcome:
    """compare_corpus then pipeline_oracle_check on each chunk of the corpus.

    The first pass always runs whole; chunks of further passes, from fresh
    seeds, run until `seconds` of chunk time are measured. A chunk that raises
    ends the run, which then fails.
    """
    rpn, rin = state["models"]
    out = Outcome()
    compare_s_total = twin_s_total = 0.0
    krreg_cases = krreg_unambiguous = 0
    digest = hashlib.sha256()
    measured = 0.0
    corpus_pass, chunks = 0, state["first_pass"]
    while True:
        for k, chunk in enumerate(chunks):
            if corpus_pass > 0 and measured >= seconds:
                break
            cases = sum(len(s.objects) for s in chunk)
            out.attempted += cases
            if tracer is not None:
                tracer.request = f"{corpus_pass}.{k}"
            timer = RefTimer()
            with _traced(tracer):
                try:
                    start = perf_counter()
                    report = evaluation.compare_corpus(rpn, rin, chunk)
                    compare_s = perf_counter() - start
                    timer.add(compare_s)
                    start = perf_counter()
                    matches, total = evaluation.pipeline_oracle_check(rpn, rin, chunk)
                    twin_s = perf_counter() - start
                    timer.add(twin_s)
                except Exception:
                    out.failure(cases)
                    return out
            measured += compare_s + twin_s
            out.add_interval(cases, compare_s + twin_s, timer.units)
            compare_s_total += compare_s
            twin_s_total += twin_s
            if matches != total:
                out.mismatches.append(f"pass {corpus_pass} chunk {k}: describe matched "
                                      f"describe_oracle on {matches}/{total} cases")
            out.count_report(report.ours)
            krreg_cases += report.krreg.cases
            krreg_unambiguous += report.krreg.unambiguous
            if corpus_pass == 0:
                for r in report.records:
                    digest.update(f"{k}\t{r.scene_index}\t{r.target_id}\t"
                                  f"{r.ours_phrase}\t{r.krreg_phrase}\n".encode())
            between()
        if measured >= seconds:
            break
        corpus_pass += 1
        chunks = streams.corpus_chunks(seed, corpus_pass)

    timed_cases = sum(ops for ops, _, _ in out.intervals)
    out.details.update({
        "passes_started": corpus_pass + 1,
        "chunks": len(out.intervals),
        "cases_per_s": timed_cases / compare_s_total if compare_s_total else 0.0,
        "twin_cases_per_s": timed_cases / twin_s_total if twin_s_total else 0.0,
        "krreg_unambiguous_rate": krreg_unambiguous / max(krreg_cases, 1),
        "phrases_sha256.pass0": digest.hexdigest(),
    })
    return out


# --- train ----------------------------------------------------------------------

def _check_rpn(samples, n: int, where: str) -> list[str]:
    """Size, balance, and every label re-derived from its features by the box rules."""
    problems = []
    counts = Counter(s.label for s in samples)
    if len(samples) != n or max(counts.values()) - min(counts.values()) > 1 \
            or len(counts) != len(CATEGORIES):
        problems.append(f"{where}: rpn dataset of {len(samples)} is not {n} balanced samples")
    for s in samples:
        f = s.features
        cat = rules.dominant_category(BoundingBox(*f[:4]), BoundingBox(*f[4:8]), 1.0, 1.0)
        if cat is not s.label:
            problems.append(f"{where}: rpn label {s.label.value} but the rules give {cat}")
            break
    return problems


def _check_rin(samples, n: int, where: str) -> list[str]:
    """Size, balance, one-hot category, and the category's rule holds for the pair."""
    problems = []
    counts = Counter((int(s.features[8:].argmax()), s.label) for s in samples)
    if len(samples) != n or max(counts.values()) - min(counts.values()) > 1 \
            or len(counts) != 2 * len(CATEGORIES):
        problems.append(f"{where}: rin dataset of {len(samples)} is not {n} balanced samples")
    for s in samples:
        f = s.features
        onehot = f[8:]
        cat = CATEGORIES[int(onehot.argmax())]
        if sorted(onehot.tolist()) != [0.0] * (len(CATEGORIES) - 1) + [1.0] or \
                not rules.rule_holds(BoundingBox(*f[:4]), BoundingBox(*f[4:8]), cat):
            problems.append(f"{where}: rin sample for {cat.value} whose rule does not hold")
            break
    return problems


def _dataset_digest(digest, samples) -> None:
    for s in samples:
        digest.update(s.features.tobytes())
        digest.update(str(s.label).encode())


def run_train(state: dict, seed: int, seconds: float, tracer=None, between=_nothing,
              n_rpn: int = streams.TRAIN_RPN, n_rin: int = streams.TRAIN_RIN,
              chunks: int = streams.TRAIN_CHUNKS,
              eval_scenes: int = streams.TRAIN_EVAL_SCENES) -> Outcome:
    """Criterion-3 recipe: synthesise both datasets in chunks, hold out 10%,
    train rpn (dropout 0) and rin (default dropout), then describe every target
    of a seeded evaluation corpus with the fresh models.

    Throughput covers every synthesis chunk and both trainings; a training
    counts its rows times its epochs, weighted by TRAIN_ROW_EPOCHS_PER_OP. If
    fewer than `seconds` of synthesis and training were measured, further
    chunks from fresh seeds are synthesised for the throughput only. Any
    exception ends the run, which then fails.
    """
    out = Outcome()
    try:
        _train(out, seed, seconds, tracer, between, n_rpn, n_rin, chunks, eval_scenes)
    except Exception:
        out.failure()
    return out


def _train(out: Outcome, seed, seconds, tracer, between, n_rpn, n_rin, chunks,
           eval_scenes) -> None:
    per_chunk = (n_rpn // chunks, n_rin // chunks)
    rpn_samples, rin_samples = [], []
    data_digest = hashlib.sha256()
    synth_s = timed = 0.0
    drawn = {"rpn": 0, "rin": 0}
    pairs_drawn_rpn = 0

    def synthesise(k: int, keep: bool) -> None:
        nonlocal synth_s, timed, pairs_drawn_rpn
        out.attempted += 2
        if tracer is not None:
            tracer.request = f"synth.{k}"
            before = (tracer.calls["datagen.scene_drawn"], tracer.values["datagen.pairs_drawn"])
        timer = RefTimer()
        with _traced(tracer):
            start = perf_counter()
            a = datagen.synth_rpn_dataset(streams.rpn_chunk_spec(seed, k), per_chunk[0])
            rpn_s = perf_counter() - start
            timer.add(rpn_s)
            if tracer is not None:
                after = (tracer.calls["datagen.scene_drawn"], tracer.values["datagen.pairs_drawn"])
            start = perf_counter()
            b = datagen.synth_rin_dataset(streams.rin_chunk_spec(seed, k), per_chunk[1])
            rin_s = perf_counter() - start
            timer.add(rin_s)
        out.add_interval(len(a) + len(b), rpn_s + rin_s, timer.units)
        timed += rpn_s + rin_s
        if tracer is not None:
            drawn["rpn"] += after[0] - before[0]
            pairs_drawn_rpn += after[1] - before[1]
            drawn["rin"] += tracer.calls["datagen.scene_drawn"] - after[0]
        out.mismatches += _check_rpn(a, per_chunk[0], f"chunk {k}")
        out.mismatches += _check_rin(b, per_chunk[1], f"chunk {k}")
        if keep:
            synth_s += rpn_s + rin_s
            rpn_samples.extend(a)
            rin_samples.extend(b)
            _dataset_digest(data_digest, a)
            _dataset_digest(data_digest, b)
        between()

    for k in range(chunks):
        synthesise(k, keep=True)

    cfg = TrainConfig(seed=seed, **TRAIN_RECIPE)
    fitted = {}
    for kind, samples, to_pairs, specs, dropout in (
            ("rpn", rpn_samples, datagen.rpn_training_pairs, networks.rpn_layer_specs(),
             {"dropout_rate": 0.0}),
            ("rin", rin_samples, datagen.rin_training_pairs, networks.rin_layer_specs(), {})):
        rest, test = streams.holdout(to_pairs(samples), seed)
        out.attempted += 1
        if tracer is not None:
            tracer.request = f"train.{kind}"
        timer = RefTimer()
        with _traced(tracer):
            start = perf_counter()
            model, report = mlp.train(rest, specs, cfg, **dropout)
            fit_s = perf_counter() - start
        timer.add(fit_s)
        out.add_interval(len(rest) * report.epochs_run / TRAIN_ROW_EPOCHS_PER_OP[kind],
                         fit_s, timer.units)
        timed += fit_s
        fitted[kind] = (model, report, fit_s, len(rest), mlp.accuracy(model, test))
        between()

    synthesised = chunks
    while timed < seconds:
        synthesise(synthesised, keep=False)
        synthesised += 1

    # Test accuracy is reported, not checked: with the frozen recipe the rin
    # net sometimes never leaves its starting plateau (once in about 30 seeds
    # tried: 0.54 after 32 epochs). That is a defect of the recipe, not a
    # wrong output of this run.
    (rpn, rpn_report, rpn_fit_s, rpn_rows, rpn_acc) = fitted["rpn"]
    (rin, rin_report, rin_fit_s, rin_rows, rin_acc) = fitted["rin"]

    scenes = datagen.generate_scenes(streams.eval_spec(seed), eval_scenes)
    cases = sum(len(s.objects) for s in scenes)
    out.attempted += cases
    if tracer is not None:
        tracer.request = "eval"
    phrases = hashlib.sha256()
    with _traced(tracer):
        report = evaluation.compare_corpus(rpn, rin, scenes)
        matches, total = evaluation.pipeline_oracle_check(rpn, rin, scenes)
    out.count_report(report.ours)
    out.details["krreg_unambiguous_rate"] = report.krreg.unambiguous / max(report.krreg.cases, 1)
    if matches != total:
        out.mismatches.append(f"evaluation: describe matched describe_oracle on "
                              f"{matches}/{total} cases")
    for r in report.records:
        phrases.update(f"{r.scene_index}\t{r.target_id}\t{r.ours_phrase}\n".encode())

    out.details.update({
        "train_wall_s": synth_s + rpn_fit_s + rin_fit_s,
        "synth_s": synth_s,
        "rpn_test_accuracy": rpn_acc, "rin_test_accuracy": rin_acc,
        "datasets_sha256": data_digest.hexdigest(),
        "phrases_sha256.eval": phrases.hexdigest(),
        "layer": {
            "mlp.train_s.rpn": rpn_fit_s, "mlp.train_s.rin": rin_fit_s,
            "mlp.epochs.rpn": rpn_report.epochs_run, "mlp.epochs.rin": rin_report.epochs_run,
            "mlp.train_rows_per_s": (rpn_report.epochs_run * rpn_rows
                                     + rin_report.epochs_run * rin_rows) / (rpn_fit_s + rin_fit_s),
            "datagen.scenes_drawn.rpn": drawn["rpn"], "datagen.scenes_drawn.rin": drawn["rin"],
            "datagen.emit_ratio.rpn": (synthesised * per_chunk[0] / pairs_drawn_rpn
                                       if pairs_drawn_rpn else 0.0),
        },
    })


# (prepare inputs and models, take one set-up sample, run)
WORKLOADS = {
    "serve": (prepare_serve, setup_serve, run_serve),
    "corpus": (prepare_corpus, setup_corpus, run_corpus),
    "train": (prepare_train, setup_train, run_train),
}


# --- metrics ----------------------------------------------------------------------

def end_to_end(out: Outcome, setup: dict, peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "throughput_per_ref": out.throughput(per_ref=True),
        "peak_rss_mb": peak_rss_mb,
        "unambiguous_rate": out.unambiguous / max(out.cases, 1),
        "expressed_rate": out.expressed / max(out.cases, 1),
    }


def per_layer(tracer, out: Outcome, setup: dict, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of a traced phase; a layer the workload does not reach reads 0."""
    ops = max(out.attempted, 1)
    calls, values = tracer.calls, tracer.values

    def ms(name: str) -> float:
        return 1000.0 * tracer.total(name) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def setup_median(name: str) -> float:
        return statistics.median(setup[name]) if name in setup else 0.0

    layer = out.details.get("layer", {})
    return {
        "scene.parse_ms": ms("scene.parse"),
        "networks.encode_ms": 1000.0 * tracer.leaf_s["networks.encode"] / ops,
        "networks.encode_calls": calls["networks.encode"] / ops,
        "networks.score_self_ms": 1000.0 * tracer.self_total("networks.score_scene") / ops,
        "networks.relations_built": values["networks.relations_built"] / ops,
        "networks.score_calls_per_scene": ratio(calls["networks.score_scene"],
                                                len(tracer.scored_scenes)),
        "mlp.forward_ms.rpn": ms("mlp.forward.rpn"),
        "mlp.forward_ms.rin": ms("mlp.forward.rin"),
        "mlp.forward_rows": values["mlp.forward_rows"] / ops,
        "pipeline.threshold_ms": ms("pipeline.threshold"),
        "pipeline.eliminate_ms": ms("pipeline.eliminate"),
        "pipeline.select_ms": ms("pipeline.select"),
        "pipeline.candidates_above": ratio(values["pipeline.candidates_above"],
                                           calls["pipeline.threshold"]),
        "pipeline.candidates_kept": ratio(values["pipeline.candidates_kept"],
                                          calls["pipeline.eliminate"]),
        "pipeline.twin_ms": ms("pipeline.twin"),
        "krreg.describe_ms": ms("krreg.describe"),
        "krreg.silent_share": ratio(values["krreg.silent"], calls["krreg.describe"]),
        "krreg.unambiguous_rate": out.details.get("krreg_unambiguous_rate", 0.0),
        "evaluation.oracle_ms": ms("evaluation.oracle"),
        "evaluation.oracle_calls": calls["evaluation.oracle"] / ops,
        "rules.rule_holds_calls": calls["rules.rule_holds"],
        "rules.rule_margins_calls": calls["rules.rule_margins"],
        "datagen.synth_s.rpn": tracer.total("datagen.synth.rpn"),
        "datagen.synth_s.rin": tracer.total("datagen.synth.rin"),
        "datagen.scenes_drawn.rpn": layer.get("datagen.scenes_drawn.rpn", 0),
        "datagen.scenes_drawn.rin": layer.get("datagen.scenes_drawn.rin", 0),
        "datagen.emit_ratio.rpn": layer.get("datagen.emit_ratio.rpn", 0.0),
        "datagen.generate_scenes_ms": setup_median("datagen.generate_scenes_ms"),
        "mlp.train_s.rpn": layer.get("mlp.train_s.rpn", 0.0),
        "mlp.train_s.rin": layer.get("mlp.train_s.rin", 0.0),
        "mlp.epochs.rpn": layer.get("mlp.epochs.rpn", 0),
        "mlp.epochs.rin": layer.get("mlp.epochs.rin", 0),
        "mlp.train_rows_per_s": layer.get("mlp.train_rows_per_s", 0.0),
        "mlp.load_model_ms": setup_median("mlp.load_model_ms"),
        "cli.import_ms": setup_median("cli.import_ms"),
        "trace.overhead_pct": overhead_pct,
    }
