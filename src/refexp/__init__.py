"""Spatial referring-expression engine over typed 2-D bounding-box scenes.

Two small learned scorers rate candidate relations between object pairs, a
selection pass prunes relations that would be ambiguous for a hearer, and a
template renders the survivor as a phrase. A classic landmark-ranking baseline
and a rule-based oracle ship alongside for comparison.
"""

from .scene import (CATEGORIES, PHRASE_FRAGMENTS, BoundingBox, PipelineConfig,
                    ReferringExpression, RelationCategory, Scene, SceneFormatError,
                    SceneObject, SpatialRelation, UnknownObjectError, load_scene,
                    render_phrase, scene_from_json, scene_to_json)
from .rules import dominant_category, rule_holds, rule_relations
from .mlp import (LayerSpec, MlpModel, ModelFormatError, TrainConfig, TrainReport,
                  accuracy, gradient_check, init_model, load_model, save_model, train)
from .networks import (PAIR_FEATURE_DIM, RIN_DIMS, RIN_FEATURE_DIM, RPN_DIMS,
                       NetworkShapeError, ScoredScene, encode_pair, encode_relation, rin_confidence,
                       rin_layer_specs, rpn_layer_specs, rpn_probabilities, score_scene,
                       validate_rin, validate_rpn)
from .pipeline import (EmptyCandidatesError, RelationSets, build_candidate_sets,
                       describe, describe_oracle, eliminate_ambiguous, select_relation)
from .krreg import LandmarkRank, distractors, krreg_describe, landmarks, rank
from .datagen import (DatasetFormatError, RinSample, RpnSample, SceneGenSpec,
                      extract_rin_dataset, extract_rpn_dataset, generate_scenes,
                      mirrored_duplicate_scenes, read_scenes, synth_rin_dataset,
                      synth_rpn_dataset, write_scenes)
from .evaluation import (AMBIGUOUS, UNAMBIGUOUS, EvalReport, MethodCounts,
                         OracleTypeError, ambiguity_oracle, compare_corpus,
                         pipeline_oracle_check)

__version__ = "0.1.0"

__all__ = [
    "AMBIGUOUS", "CATEGORIES", "PAIR_FEATURE_DIM", "PHRASE_FRAGMENTS", "RIN_DIMS",
    "RIN_FEATURE_DIM", "RPN_DIMS", "UNAMBIGUOUS", "BoundingBox", "DatasetFormatError",
    "EmptyCandidatesError", "EvalReport", "LandmarkRank", "LayerSpec", "MethodCounts",
    "MlpModel", "ModelFormatError", "NetworkShapeError", "OracleTypeError", "PipelineConfig",
    "ReferringExpression", "RelationCategory", "RelationSets", "RinSample", "RpnSample",
    "Scene", "SceneFormatError", "SceneGenSpec", "SceneObject", "ScoredScene",
    "SpatialRelation", "TrainConfig", "TrainReport", "UnknownObjectError", "accuracy",
    "ambiguity_oracle", "build_candidate_sets", "compare_corpus", "describe",
    "describe_oracle", "distractors", "dominant_category", "eliminate_ambiguous",
    "encode_pair", "encode_relation", "extract_rin_dataset", "extract_rpn_dataset",
    "generate_scenes", "gradient_check", "init_model", "krreg_describe", "landmarks",
    "load_model", "load_scene", "mirrored_duplicate_scenes", "pipeline_oracle_check",
    "rank", "read_scenes", "render_phrase", "rin_confidence", "rin_layer_specs",
    "rpn_layer_specs", "rpn_probabilities", "rule_holds", "rule_relations", "save_model",
    "scene_from_json", "scene_to_json", "score_scene", "select_relation",
    "synth_rin_dataset", "synth_rpn_dataset", "train", "validate_rin", "validate_rpn",
    "write_scenes",
]
