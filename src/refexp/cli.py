"""Command-line surface: training, describing, comparison, data generation.

Exit codes: 0 success, 1 method-level failure (no expression, oracle
mismatch), 2 usage or input error. REFEXP_LOG sets the logging level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import datagen
from .datagen import DatasetFormatError, SceneGenSpec
from .evaluation import compare_corpus, pipeline_oracle_check
from .krreg import krreg_describe
from .mlp import ModelFormatError, TrainConfig, accuracy, load_model, save_model, train
from .networks import NetworkShapeError, rin_layer_specs, rpn_layer_specs, validate_rin, validate_rpn
from .pipeline import EmptyCandidatesError, describe
from .scene import PipelineConfig, SceneFormatError, UnknownObjectError, load_scene

logger = logging.getLogger(__name__)

USAGE_ERROR = 2
METHOD_FAILURE = 1


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(presence_threshold=args.threshold)


def _load_models(args: argparse.Namespace):
    rpn = load_model(args.rpn)
    validate_rpn(rpn)
    rin = load_model(args.rin)
    validate_rin(rin)
    return rpn, rin


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def cmd_train(args: argparse.Namespace) -> int:
    if args.kind == "rpn":
        samples = datagen.read_rpn_samples(args.dataset)
        pairs = datagen.rpn_training_pairs(samples)
        specs = rpn_layer_specs()
    else:
        samples = datagen.read_rin_samples(args.dataset)
        pairs = datagen.rin_training_pairs(samples)
        specs = rin_layer_specs()
    if len(pairs) < 10:
        raise DatasetFormatError("dataset too small to split; need at least 10 samples")

    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(pairs))
    n_test = int(round(len(pairs) * args.test_fraction))
    test = [pairs[i] for i in order[:n_test]]
    rest = [pairs[i] for i in order[n_test:]]

    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      max_epochs=args.epochs, patience=args.patience,
                      validation_fraction=args.val_fraction, seed=args.seed)
    model, report = train(rest, specs, cfg, dropout_rate=args.dropout)
    save_model(model, args.out)

    rows = [("train", report.best_train_accuracy),
            ("validation", report.best_validation_accuracy)]
    if test:
        rows.append(("test", accuracy(model, test)))
    print("network   split        accuracy")
    for split, value in rows:
        print(f"{args.kind:<9} {split:<12} {value * 100.0:6.2f}%")
    print(f"stopped after {report.epochs_run} epochs (best at {report.best_epoch})")
    print(f"weights written to {args.out}")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    rpn, rin = _load_models(args)
    scene = load_scene(args.scene)
    try:
        expression = describe(rpn, rin, scene, args.target, _pipeline_config(args))
    except EmptyCandidatesError:
        print(json.dumps({"error": "empty_candidates"}))
        return METHOD_FAILURE
    print(json.dumps(expression.to_json()))
    return 0


def cmd_krreg(args: argparse.Namespace) -> int:
    rpn = load_model(args.rpn)
    validate_rpn(rpn)
    scene = load_scene(args.scene)
    expression = krreg_describe(rpn, scene, args.target, _pipeline_config(args))
    if expression is None:
        print(json.dumps({"error": "no_expression"}))
        return METHOD_FAILURE
    print(json.dumps(expression.to_json()))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rpn, rin = _load_models(args)
    scenes = datagen.read_scenes(args.corpus)
    if not scenes:
        raise DatasetFormatError(f"corpus {args.corpus} is empty")
    report = compare_corpus(rpn, rin, scenes, _pipeline_config(args))
    _write_json(args.out, report.to_json())
    ours, krreg = report.ours, report.krreg
    print(f"cases: {report.case_count}")
    print("method  unambiguous  ambiguous  no_expression")
    print(f"ours    {ours.unambiguous:>11}  {ours.ambiguous:>9}  {ours.no_expression:>13}")
    print(f"krreg   {krreg.unambiguous:>11}  {krreg.ambiguous:>9}  {krreg.no_expression:>13}")
    print(f"agreement rate: {report.agreement_rate:.4f}")
    return 0


def cmd_eval_oracle(args: argparse.Namespace) -> int:
    rpn, rin = _load_models(args)
    if args.corpus is not None:
        scenes = datagen.read_scenes(args.corpus)
        if not scenes:
            raise DatasetFormatError(f"corpus {args.corpus} is empty")
    else:
        spec = SceneGenSpec(min_objects=args.min_objects, max_objects=args.max_objects,
                            seed=args.seed)
        scenes = datagen.generate_scenes(spec, args.count)
    matches, total = pipeline_oracle_check(rpn, rin, scenes, _pipeline_config(args))
    print(f"pipeline-oracle agreement: {matches}/{total}")
    return 0 if matches == total else METHOD_FAILURE


def cmd_gen_scenes(args: argparse.Namespace) -> int:
    if args.style == "mirrored":
        scenes = datagen.mirrored_duplicate_scenes(args.count, seed=args.seed)
    else:
        spec = SceneGenSpec(min_objects=args.min_objects, max_objects=args.max_objects,
                            duplicate_type_probability=args.duplicate_prob, seed=args.seed)
        scenes = datagen.generate_scenes(spec, args.count)
    datagen.write_scenes(args.out, scenes)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SceneGenSpec(seed=args.seed)
    if args.kind == "rpn":
        samples = datagen.synth_rpn_dataset(spec, args.n)
        datagen.write_rpn_samples(args.out, samples)
    else:
        samples = datagen.synth_rin_dataset(spec, args.n)
        datagen.write_rin_samples(args.out, samples)
    print(f"wrote {len(samples)} {args.kind} samples to {args.out}")
    return 0


def cmd_extract_vg(args: argparse.Namespace) -> int:
    synonyms = datagen.load_synonym_map(args.synonyms) if args.synonyms else None
    cap = {} if args.cap is None else {"per_class_cap": args.cap}
    if args.kind == "rpn":
        samples = datagen.extract_rpn_dataset(args.annotations, synonyms, seed=args.seed, **cap)
        datagen.write_rpn_samples(args.out, samples)
    else:
        samples = datagen.extract_rin_dataset(args.annotations, synonyms, seed=args.seed, **cap)
        datagen.write_rin_samples(args.out, samples)
    print(f"wrote {len(samples)} {args.kind} samples to {args.out}")
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rpn", required=True, help="presence model weights file")
    parser.add_argument("--rin", required=True, help="informativeness model weights file")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="presence probability threshold (strict)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="refexp",
                                     description="spatial referring-expression engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a scorer on a JSONL dataset")
    p.add_argument("kind", choices=("rpn", "rin"))
    p.add_argument("dataset", help="JSONL sample file")
    p.add_argument("--out", required=True, help="weights file to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--dropout", type=float, default=0.2,
                   help="training-time dropout rate")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("describe", help="generate an expression for one target")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--target", type=int, required=True, help="target object id")
    _add_model_flags(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("krreg", help="run the baseline on one target")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--target", type=int, required=True, help="target object id")
    p.add_argument("--rpn", required=True, help="presence model weights file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_krreg)

    p = sub.add_parser("compare", help="evaluate both methods over a scene corpus")
    p.add_argument("corpus", help="JSONL scene corpus")
    _add_model_flags(p)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval-oracle", help="check describe against its brute-force twin")
    _add_model_flags(p)
    p.add_argument("--corpus", help="JSONL scene corpus (default: generated scenes)")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--min-objects", type=int, default=2)
    p.add_argument("--max-objects", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval_oracle)

    p = sub.add_parser("gen-scenes", help="write a synthetic scene corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--style", choices=("random", "mirrored"), default="random")
    p.add_argument("--min-objects", type=int, default=3)
    p.add_argument("--max-objects", type=int, default=7)
    p.add_argument("--duplicate-prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("gen-data", help="write a synthetic training dataset")
    p.add_argument("kind", choices=("rpn", "rin"))
    p.add_argument("--out", required=True)
    p.add_argument("-n", type=int, default=6000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("extract-vg", help="build a dataset from relationship annotations")
    p.add_argument("kind", choices=("rpn", "rin"))
    p.add_argument("annotations", help="annotation JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int, help="per-category sample cap (default: the extractor's)")
    p.add_argument("--synonyms", help="JSON predicate synonym map")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extract_vg)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("REFEXP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SceneFormatError, DatasetFormatError, ModelFormatError, NetworkShapeError,
            UnknownObjectError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
