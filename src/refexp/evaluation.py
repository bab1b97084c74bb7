"""Batch evaluation: the rule-based ambiguity judge and method comparison.

The ambiguity oracle grades a finished phrase the way a hearer would: it knows
only the two stated type names and the stated relation, and consults the box
rules, never the learned scorers, so the judgment is independent of the models
that produced the expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pipeline
from .krreg import krreg_describe
from .mlp import MlpModel
from .pipeline import EmptyCandidatesError, describe, describe_oracle
from .rules import rule_holds
from .scene import (CATEGORIES, PHRASE_FRAGMENTS, PHRASE_TEMPLATE, PipelineConfig,
                    ReferringExpression, RelationCategory, Scene, canonical_type_name)

UNAMBIGUOUS = "unambiguous"
AMBIGUOUS = "ambiguous"


class OracleTypeError(LookupError):
    """The phrase names an object type that does not occur in the scene."""


# the template's prefix, and each category's separator between the two type names
_PREFIX, _BEFORE, _AFTER, _ = PHRASE_TEMPLATE.split("{}")
_SEPARATORS = [(cat, _BEFORE + PHRASE_FRAGMENTS[cat] + _AFTER) for cat in CATEGORIES]


def parse_phrase(phrase: str) -> list[tuple[str, RelationCategory, str]]:
    """Every split of a rendered phrase into canonical (target type, category,
    reference type). A type name may itself hold a relation fragment, so a phrase
    can have several readings; they come in category order, then left to right."""
    if not phrase.startswith(_PREFIX):
        raise ValueError(f"phrase does not start with {_PREFIX!r}: {phrase!r}")
    rest = phrase[len(_PREFIX):]
    readings = []
    for cat, separator in _SEPARATORS:
        at = rest.find(separator)
        while at != -1:  # every occurrence, overlapping ones included
            readings.append((canonical_type_name(rest[:at]), cat,
                             canonical_type_name(rest[at + len(separator):])))
            at = rest.find(separator, at + 1)
    if not readings:
        raise ValueError(f"phrase contains no relation fragment: {phrase!r}")
    return readings


def ambiguity_oracle(scene: Scene, expression: ReferringExpression) -> str:
    """Judge whether the phrase pins down its target for a rule-following hearer.

    Only readings whose two types occur in the scene count, and with several the
    hearer cannot tell which relation is meant. With one, the phrase is
    unambiguous iff exactly one (stated-type target, stated-type reference)
    pair of distinct objects satisfies the stated rule, and that pair's target
    is the intended one. Everything else, including a uniquely satisfied pair
    with the wrong target, is ambiguous.
    """
    readings = []
    for target_type, category, reference_type in parse_phrase(expression.phrase):
        targets = [o for o in scene.objects if o.type_name == target_type]
        references = [o for o in scene.objects if o.type_name == reference_type]
        if targets and references:
            readings.append((targets, category, references))
    if not readings:
        raise OracleTypeError(f"no reading of {expression.phrase!r} names two types of the scene")
    if len(readings) > 1:
        return AMBIGUOUS
    [(targets, category, references)] = readings
    pairs = [(t, r) for t in targets for r in references
             if t.id != r.id and rule_holds(t.box, r.box, category)]
    if len(pairs) == 1 and pairs[0][0].id == expression.target_id:
        return UNAMBIGUOUS
    return AMBIGUOUS


@dataclass
class MethodCounts:
    unambiguous: int = 0
    ambiguous: int = 0
    no_expression: int = 0

    @property
    def cases(self) -> int:
        return self.unambiguous + self.ambiguous + self.no_expression

    @property
    def expressions(self) -> int:
        return self.unambiguous + self.ambiguous

    def unambiguous_rate_over_expressions(self) -> float:
        return self.unambiguous / self.expressions if self.expressions else 0.0

    def unambiguous_rate_over_cases(self) -> float:
        return self.unambiguous / self.cases if self.cases else 0.0

    def to_json(self) -> dict:
        return {"unambiguous": self.unambiguous, "ambiguous": self.ambiguous,
                "no_expression": self.no_expression}


@dataclass(frozen=True)
class CaseRecord:
    scene_index: int
    target_id: int
    ours_phrase: str | None
    ours_verdict: str | None
    krreg_phrase: str | None
    krreg_verdict: str | None
    agree: bool

    def to_json(self) -> dict:
        return {"scene_index": self.scene_index, "target_id": self.target_id,
                "ours": {"phrase": self.ours_phrase, "verdict": self.ours_verdict},
                "krreg": {"phrase": self.krreg_phrase, "verdict": self.krreg_verdict},
                "agree": self.agree}


@dataclass
class EvalReport:
    ours: MethodCounts = field(default_factory=MethodCounts)
    krreg: MethodCounts = field(default_factory=MethodCounts)
    records: list[CaseRecord] = field(default_factory=list)

    @property
    def case_count(self) -> int:
        return len(self.records)

    @property
    def agreement_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.agree) / len(self.records)

    def to_json(self) -> dict:
        return {"case_count": self.case_count,
                "ours": self.ours.to_json(),
                "krreg": self.krreg.to_json(),
                "agreement_rate": self.agreement_rate,
                "records": [r.to_json() for r in self.records]}


def _count(counts: MethodCounts, verdict: str | None) -> None:
    if verdict is None:
        counts.no_expression += 1
    elif verdict == UNAMBIGUOUS:
        counts.unambiguous += 1
    else:
        counts.ambiguous += 1


def _cases(rpn: MlpModel, rin: MlpModel, scenes: list[Scene], cfg: PipelineConfig):
    """Each case as (scene index, scene, target id, the scene's scoring, describe's
    expression or None), in scene order, then target id order. Each scene is
    scored once, for all of its targets; an empty scene has none."""
    for scene_index, scene in enumerate(scenes):
        if len(scene.objects) == 1:
            raise ValueError(f"scene {scene_index} has 1 object; a scene needs 0 or at least 2")
        scored = pipeline.score_scene(rpn, rin, scene) if scene.objects else None
        for target_id in scene.object_ids():
            try:
                ours = describe(rpn, rin, scene, target_id, cfg, scored=scored)
            except EmptyCandidatesError:
                ours = None
            yield scene_index, scene, target_id, scored, ours


def compare_corpus(rpn: MlpModel, rin: MlpModel, scenes: list[Scene],
                   cfg: PipelineConfig = PipelineConfig()) -> EvalReport:
    """Run both methods on every (scene, target) case and grade each expression.

    Each scene is scored once for all of its targets and both methods.
    Totals depend only on the multiset of scenes; records are ordered by scene
    index, then target id.
    """
    if not scenes:
        raise ValueError("corpus is empty")
    report = EvalReport()
    for scene_index, scene, target_id, scored, ours in _cases(rpn, rin, scenes, cfg):
        theirs = krreg_describe(rpn, scene, target_id, cfg, scored=scored)
        ours_verdict = None if ours is None else ambiguity_oracle(scene, ours)
        krreg_verdict = None if theirs is None else ambiguity_oracle(scene, theirs)
        _count(report.ours, ours_verdict)
        _count(report.krreg, krreg_verdict)
        ours_phrase = None if ours is None else ours.phrase
        krreg_phrase = None if theirs is None else theirs.phrase
        report.records.append(CaseRecord(scene_index, target_id, ours_phrase, ours_verdict,
                                         krreg_phrase, krreg_verdict, ours_phrase == krreg_phrase))
    return report


def pipeline_oracle_check(rpn: MlpModel, rin: MlpModel, scenes: list[Scene],
                          cfg: PipelineConfig = PipelineConfig()) -> tuple[int, int]:
    """Count (matches, cases) between describe and its brute-force twin.

    A case matches when both produce the identical phrase or both refuse with
    empty candidates. Each scene is scored once and shared by both.
    """
    matches = total = 0
    for _, scene, target_id, scored, ours in _cases(rpn, rin, scenes, cfg):
        total += 1
        try:
            twin: str | None = describe_oracle(rpn, rin, scene, target_id, cfg, scored=scored).phrase
        except EmptyCandidatesError:
            twin = None
        matches += twin == (None if ours is None else ours.phrase)
    return matches, total
