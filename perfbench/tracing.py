"""Spans and counters recorded around calls into refexp's modules.

The tracer patches a public name where its caller looks it up (for example
``refexp.pipeline.score_scene``, which ``describe`` resolves through the
pipeline module) and restores every name when it is uninstalled. Nothing in
``src/`` knows about it.

Three kinds of wrapper:

* span: records (name, start, end, parent, request id, self time). Self time
  is the duration minus the time its children cover, children being nested
  spans and leaf timings.
* leaf: adds its duration and a call count to totals and to the enclosing
  span's covered time, but stores no record; used for calls made thousands
  of times per request.
* count: counts calls only; used for the scalar rule calls that synthesis
  makes millions of times.

Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import refexp.datagen as datagen
import refexp.evaluation as evaluation
import refexp.krreg as krreg
import refexp.mlp as mlp
import refexp.networks as networks
import refexp.pipeline as pipeline
import refexp.scene as scene

NAME, START, END, PARENT, REQUEST, SELF = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[list] = []  # [span index, covered seconds]
        self.request: object = None
        self.calls: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.values: Counter = Counter()
        self.scored_scenes: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def span(self, name, fn, observe=None):
        """Wrap fn in a span; name may be a callable of the call's arguments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            self.calls[label] += 1
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            record = [label, perf_counter(), 0.0, parent, self.request, 0.0]
            self.spans.append(record)
            self._open.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                _, covered = self._open.pop()
                duration = record[END] - record[START]
                record[SELF] = duration - covered
                if self._open:
                    self._open[-1][1] += duration
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls[name] += 1
                self.leaf_s[name] += duration
                if self._open:
                    self._open[-1][1] += duration
        return wrapper

    def count(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, kind, name, observe in _PATCHES:
            fn = getattr(owner, attr)  # a hook a refactor removed fails loudly
            if kind == "span":
                wrapper = self.span(name, fn, observe)
            elif kind == "leaf":
                wrapper = self.leaf(name, fn)
            else:
                wrapper = self.count(name, fn, observe)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- reading -------------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed span durations, in seconds."""
        return sum((s[END] - s[START] for s in self.spans if s[NAME] == name), 0.0)

    def self_total(self, name: str) -> float:
        return sum((s[SELF] for s in self.spans if s[NAME] == name), 0.0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request", "self"]))
            fh.write("\n")
            for record in self.spans:
                fh.write(json.dumps(record))
                fh.write("\n")


# --- observers: values read from arguments and results ------------------------

def _scored(tracer: Tracer, args, result) -> None:
    tracer.values["networks.relations_built"] += len(result)
    tracer.scored_scenes[id(args[2])] = args[2]  # held so ids stay unique


def _forward_rows(tracer: Tracer, args, result) -> None:
    tracer.values["mlp.forward_rows"] += len(result)


def _above(tracer: Tracer, args, result) -> None:
    tracer.values["pipeline.candidates_above"] += len(result.above_threshold)


def _kept(tracer: Tracer, args, result) -> None:
    tracer.values["pipeline.candidates_kept"] += len(result)


def _krreg(tracer: Tracer, args, result) -> None:
    if result is None:
        tracer.values["krreg.silent"] += 1


def _drawn(tracer: Tracer, args, result) -> None:
    n = len(result.objects)
    tracer.values["datagen.pairs_drawn"] += n * (n - 1)


def _forward_name(args) -> str:
    return "mlp.forward.rpn" if args[0].layer_dims[0] == networks.PAIR_FEATURE_DIM else "mlp.forward.rin"


def _train_name(args) -> str:
    return "mlp.train.rpn" if args[1][0].input_dim == networks.PAIR_FEATURE_DIM else "mlp.train.rin"


# (owner, attribute, kind, metric name, observer). Each owner is the module
# (or class) through which the caller resolves the name.
_PATCHES = (
    (scene, "scene_from_json", "span", "scene.parse", None),
    (pipeline, "describe", "span", "pipeline.describe", None),
    (evaluation, "describe", "span", "pipeline.describe", None),
    (pipeline, "describe_oracle", "span", "pipeline.twin", None),
    (evaluation, "describe_oracle", "span", "pipeline.twin", None),
    (pipeline, "score_scene", "span", "networks.score_scene", _scored),
    (pipeline, "build_candidate_sets", "span", "pipeline.threshold", _above),
    (pipeline, "eliminate_ambiguous", "span", "pipeline.eliminate", _kept),
    (pipeline, "select_relation", "span", "pipeline.select", None),
    (networks, "encode_pair", "leaf", "networks.encode", None),
    (krreg, "encode_pair", "leaf", "networks.encode", None),
    (datagen, "encode_pair", "leaf", "networks.encode", None),
    (mlp.MlpModel, "forward_batch", "span", _forward_name, _forward_rows),
    (evaluation, "krreg_describe", "span", "krreg.describe", _krreg),
    (evaluation, "compare_corpus", "span", "evaluation.compare", None),
    (evaluation, "pipeline_oracle_check", "span", "evaluation.twin_check", None),
    (evaluation, "ambiguity_oracle", "span", "evaluation.oracle", None),
    (evaluation, "rule_holds", "count", "rules.rule_holds", None),
    (datagen, "rule_holds", "count", "rules.rule_holds", None),
    (datagen, "rule_margins", "count", "rules.rule_margins", None),
    (datagen, "synth_rpn_dataset", "span", "datagen.synth.rpn", None),
    (datagen, "synth_rin_dataset", "span", "datagen.synth.rin", None),
    # private generators of synth_*: the only place a drawn scene is visible
    (datagen, "_random_scene", "count", "datagen.scene_drawn", _drawn),
    (datagen, "_archetype_pair_scene", "count", "datagen.scene_drawn", _drawn),
    (mlp, "train", "span", _train_name, None),
)
