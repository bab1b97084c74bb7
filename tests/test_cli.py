"""End-to-end command behavior through the argparse entry point."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from refexp.cli import main
from refexp.datagen import (extract_rin_dataset, extract_rpn_dataset, read_rin_samples,
                            read_rpn_samples, read_scenes, write_scenes)
from refexp.mlp import load_model, save_model
from refexp.scene import scene_to_json

from helpers import crowded_scene_doc, make_scene, two_books_and_mouse

ROOT = Path(__file__).resolve().parents[1]
SYSTEM_PATH = "/usr/local/bin:/usr/bin:/bin"


def refexp_command():
    """The installed console script, looked up next to this interpreter and on
    the system PATH; without one, the same entry point as ``python -m refexp``."""
    script = shutil.which("refexp", path=os.pathsep.join([os.path.dirname(sys.executable),
                                                          SYSTEM_PATH]))
    return [script] if script else [sys.executable, "-m", "refexp"]


@pytest.fixture
def model_files(tmp_path, rpn_model, rin_model):
    rpn_path = tmp_path / "rpn.json"
    rin_path = tmp_path / "rin.json"
    save_model(rpn_model, str(rpn_path))
    save_model(rin_model, str(rin_path))
    return str(rpn_path), str(rin_path)


def write_scene_file(tmp_path, scene, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scene_to_json(scene)))
    return str(path)


class TestGeneration:
    def test_gen_scenes_random(self, tmp_path, capsys):
        out = tmp_path / "scenes.jsonl"
        assert main(["gen-scenes", "--out", str(out), "--count", "7", "--seed", "3"]) == 0
        scenes = read_scenes(str(out))
        assert len(scenes) == 7

    def test_gen_scenes_mirrored(self, tmp_path):
        out = tmp_path / "scenes.jsonl"
        assert main(["gen-scenes", "--out", str(out), "--count", "4",
                     "--style", "mirrored", "--seed", "7"]) == 0
        assert all(len(s.objects) == 4 for s in read_scenes(str(out)))

    def test_gen_data_rpn(self, tmp_path):
        out = tmp_path / "rpn.jsonl"
        assert main(["gen-data", "rpn", "--out", str(out), "-n", "60"]) == 0
        assert len(read_rpn_samples(str(out))) == 60

    def test_gen_data_rin(self, tmp_path):
        out = tmp_path / "rin.jsonl"
        assert main(["gen-data", "rin", "--out", str(out), "-n", "48"]) == 0
        assert len(read_rin_samples(str(out))) == 48

    @pytest.mark.parametrize("argv, digest", [
        (["gen-data", "rpn", "-n", "600", "--seed", "0"],
         "c7d5e144bd4db32c52133914c746580a2ad1043753b4434b4c9151dfa3f396ab"),
        (["gen-data", "rin", "-n", "800", "--seed", "0"],
         "2eb05446f881b773cfce7c1b86759442f87e69ccb67151f25392ef90b0ba7915"),
        (["gen-scenes", "--count", "40", "--seed", "3"],
         "c868738be870014aa7fa5894d5febe507bc0de8e5bf709d02505803733964ba0"),
        (["gen-scenes", "--count", "40", "--style", "mirrored", "--seed", "7"],
         "61e6ea54cd707a590b72babd12b7daf32776a930f1d9a6f02afe60a025cb573c"),
        (["extract-vg", "rpn", "{annotations}"],
         "48213b79317911a58e726b4c744847af0e932f5575274cefb192a48ac5937666"),
        (["extract-vg", "rin", "{annotations}"],
         "a10e0f30234fbd675886e9913d96417db3da08bf002a3266b9b31c631deccedd"),
    ], ids=["gen-data-rpn", "gen-data-rin", "gen-scenes-random", "gen-scenes-mirrored",
            "extract-vg-rpn", "extract-vg-rin"])
    def test_gen_data_bytes_are_pinned(self, tmp_path, argv, digest):
        # the bytes written for a seed (or an annotation file) move only with a
        # deliberate change to the data; extract-vg reads crowded_annotations()
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps(crowded_annotations()))
        out = tmp_path / "out.jsonl"
        argv = [a.format(annotations=annotations) for a in argv]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def crowded_annotations():
    """One image repeating a single right-of relationship 1,000 times, so rpn
    extraction exceeds its default cap, and one row of 140 boxes, whose unannotated
    pairs exceed rin extraction's."""
    def box(k):
        return {"x": 10 * k, "y": 40, "w": 8, "h": 20}
    return [
        {"image_id": 1, "width": 100, "height": 100,
         "relationships": [{"predicate": "to the right of", "subject": box(6),
                            "object": box(1)}] * 1000},
        {"image_id": 2, "width": 1500, "height": 100,
         "relationships": [{"predicate": "to the right of", "subject": box(2 * k + 1),
                            "object": box(2 * k)} for k in range(70)]},
    ]


class TestExtractVg:
    @pytest.fixture
    def annotations(self, tmp_path):
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(crowded_annotations()))
        return str(path)

    @staticmethod
    def extract(kind, annotations, out, *flags):
        assert main(["extract-vg", kind, annotations, "--out", str(out), *flags]) == 0
        samples = read_rpn_samples(str(out)) if kind == "rpn" else read_rin_samples(str(out))
        return [(s.features.tolist(), s.label) for s in samples]

    @staticmethod
    def per_category(rows):
        # rin rows count per (label, one-hot category)
        return Counter(label if len(features) == 8 else (label, tuple(features[8:]))
                       for features, label in rows)

    @pytest.mark.parametrize("kind", ["rpn", "rin"])
    def test_cap_limits_each_category(self, tmp_path, annotations, kind):
        counts = self.per_category(self.extract(kind, annotations, tmp_path / "out.jsonl",
                                                "--cap", "2"))
        assert counts and max(counts.values()) == 2

    @pytest.mark.parametrize("value", [["on_top"], {"on": "on_top"}], ids=["list", "object"])
    def test_synonym_value_not_a_string_is_usage_error(self, tmp_path, capsys, annotations,
                                                       value):
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_text(json.dumps({"on": value}))
        code = main(["extract-vg", "rpn", annotations, "--out", str(tmp_path / "out.jsonl"),
                     "--synonyms", str(synonyms)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: synonym map value {value!r} "
                                           "is not a relation category\n")

    @pytest.mark.parametrize("kind, extractor", [("rpn", extract_rpn_dataset),
                                                 ("rin", extract_rin_dataset)])
    def test_default_cap_is_the_extractors(self, tmp_path, annotations, kind, extractor):
        got = self.extract(kind, annotations, tmp_path / "out.jsonl")
        expected = [(s.features.tolist(), s.label) for s in extractor(annotations)]
        assert got == expected
        assert max(self.per_category(got).values()) > 2


class TestTrain:
    def test_writes_loadable_weights(self, tmp_path, capsys):
        data = tmp_path / "rpn.jsonl"
        main(["gen-data", "rpn", "--out", str(data), "-n", "120"])
        weights = tmp_path / "model.json"
        code = main(["train", "rpn", str(data), "--out", str(weights),
                     "--epochs", "3", "--dropout", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in out
        model = load_model(str(weights))
        assert model.layer_dims == (8, 32, 16, 6)

    def test_non_finite_feature_rejected_before_training(self, tmp_path, capsys):
        data = tmp_path / "rpn.jsonl"
        main(["gen-data", "rpn", "--out", str(data), "-n", "24"])
        lines = data.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["features"][2] = float("nan")
        lines[3] = json.dumps(doc)
        data.write_text("\n".join(lines) + "\n")
        weights = tmp_path / "m.json"
        code = main(["train", "rpn", str(data), "--out", str(weights), "--epochs", "2"])
        assert code == 2
        assert "line 4.features" in capsys.readouterr().err
        assert not weights.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lr", ["1e308", "nan"])
    def test_divergent_or_non_finite_learning_rate_writes_nothing(self, tmp_path, capsys, lr):
        data = tmp_path / "rpn.jsonl"
        main(["gen-data", "rpn", "--out", str(data), "-n", "60"])
        capsys.readouterr()
        weights = tmp_path / "m.json"
        code = main(["train", "rpn", str(data), "--out", str(weights), "--epochs", "3",
                     "--lr", lr])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not weights.exists()

    def test_tiny_dataset_rejected(self, tmp_path, capsys):
        data = tmp_path / "rpn.jsonl"
        main(["gen-data", "rpn", "--out", str(data), "-n", "6"])
        code = main(["train", "rpn", str(data), "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("fraction", ["-1", "1", "1.5", "nan", "inf"])
    def test_test_fraction_outside_unit_interval_named(self, tmp_path, capsys, fraction):
        data = tmp_path / "rpn.jsonl"
        main(["gen-data", "rpn", "--out", str(data), "-n", "60"])
        capsys.readouterr()
        weights = tmp_path / "m.json"
        code = main(["train", "rpn", str(data), "--out", str(weights), "--epochs", "2",
                     "--test-fraction", fraction])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --test-fraction must lie in [0, 1), got ")
        assert not weights.exists()

    def test_zero_test_fraction_reports_no_test_split(self, tmp_path, capsys):
        data = tmp_path / "rpn.jsonl"
        main(["gen-data", "rpn", "--out", str(data), "-n", "60"])
        capsys.readouterr()
        code = main(["train", "rpn", str(data), "--out", str(tmp_path / "m.json"),
                     "--epochs", "2", "--test-fraction", "0"])
        assert code == 0
        splits = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:3]]
        assert splits == ["train", "validation"]
        assert (tmp_path / "m.json").exists()


class TestDescribe:
    def test_happy_path_json(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        scene = write_scene_file(tmp_path, two_books_and_mouse())
        code = main(["describe", scene, "--target", "2",
                     "--rpn", rpn_path, "--rin", rin_path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["phrase"] == "The book to the right of the mouse"
        assert doc["relation"] == "right"
        assert doc["target_id"] == 2

    def test_empty_candidates_exit_one(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        twins = make_scene([(0, "cup", (40, 40, 20, 20)), (1, "cup", (40, 40, 20, 20))])
        scene = write_scene_file(tmp_path, twins)
        code = main(["describe", scene, "--target", "0",
                     "--rpn", rpn_path, "--rin", rin_path])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {"error": "empty_candidates"}

    def test_number_beyond_float_range_is_usage_error(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        doc = dict(scene_to_json(two_books_and_mouse()), image_width=10 ** 400)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        code = main(["describe", str(scene), "--target", "0",
                     "--rpn", rpn_path, "--rin", rin_path])
        assert code == 2
        assert "image_width must be a finite number" in capsys.readouterr().err

    def test_oversized_scene_is_usage_error(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(crowded_scene_doc(257)))
        code = main(["describe", str(scene), "--target", "0",
                     "--rpn", rpn_path, "--rin", rin_path])
        assert code == 2
        assert "257 objects; at most 256" in capsys.readouterr().err

    def test_missing_scene_file_is_usage_error(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        code = main(["describe", str(tmp_path / "nope.json"), "--target", "0",
                     "--rpn", rpn_path, "--rin", rin_path])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["w", "b"])
    @pytest.mark.parametrize("bad", ["0.5", True, 10 ** 400], ids=["string", "bool", "huge-int"])
    def test_weight_not_a_finite_number_is_usage_error(self, tmp_path, capsys, model_files,
                                                       key, bad):
        rpn_path, rin_path = model_files
        doc = json.loads(Path(rin_path).read_text())
        doc["layers"][0][key][-1] = bad
        Path(rin_path).write_text(json.dumps(doc))
        scene = write_scene_file(tmp_path, two_books_and_mouse())
        code = main(["describe", scene, "--target", "2", "--rpn", rpn_path, "--rin", rin_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: layers[0].{key}: expected a list of ")
        assert err.count("\n") == 1

    def test_swapped_model_file_is_usage_error(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        scene = write_scene_file(tmp_path, two_books_and_mouse())
        code = main(["describe", scene, "--target", "2",
                     "--rpn", rin_path, "--rin", rpn_path])
        assert code == 2


class TestKrreg:
    def test_happy_path(self, tmp_path, capsys, model_files):
        rpn_path, _ = model_files
        scene = write_scene_file(tmp_path, two_books_and_mouse())
        code = main(["krreg", scene, "--target", "2", "--rpn", rpn_path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["phrase"] == "The book to the right of the mouse"

    def test_no_expression_exit_one(self, tmp_path, capsys, model_files):
        rpn_path, _ = model_files
        corpus = tmp_path / "mirrored.jsonl"
        main(["gen-scenes", "--out", str(corpus), "--count", "1",
              "--style", "mirrored", "--seed", "7"])
        scene = write_scene_file(tmp_path, read_scenes(str(corpus))[0])
        capsys.readouterr()
        code = main(["krreg", scene, "--target", "0", "--rpn", rpn_path])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {"error": "no_expression"}


class TestCompareAndOracle:
    def test_compare_report(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        corpus = tmp_path / "corpus.jsonl"
        main(["gen-scenes", "--out", str(corpus), "--count", "3",
              "--style", "mirrored", "--seed", "8"])
        report_path = tmp_path / "report.json"
        code = main(["compare", str(corpus), "--rpn", rpn_path, "--rin", rin_path,
                     "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["case_count"] == 12
        assert doc["ours"]["unambiguous"] + doc["ours"]["ambiguous"] + \
            doc["ours"]["no_expression"] == 12
        assert "agreement" in capsys.readouterr().out

    def test_compare_type_name_holding_a_fragment(self, tmp_path, capsys, model_files):
        """A type named "shelf to the right of the table" makes a phrase with two
        fragments; the judge keeps the one reading whose types occur in the scene."""
        rpn_path, rin_path = model_files
        corpus = tmp_path / "corpus.jsonl"
        write_scenes(str(corpus), [make_scene([
            (0, "cup", (10, 40, 10, 10)), (1, "shelf to the right of the table", (40, 38, 20, 14)),
            (2, "cup", (75, 40, 10, 10))])])
        report_path = tmp_path / "report.json"
        code = main(["compare", str(corpus), "--rpn", rpn_path, "--rin", rin_path,
                     "--out", str(report_path)])
        assert code == 0, capsys.readouterr().err
        records = json.loads(report_path.read_text())["records"]
        assert [r["ours"]["phrase"] for r in records if r["target_id"] == 0] == [
            "The cup to the left of the shelf to the right of the table"]

    def test_eval_oracle_generated_scenes(self, capsys, model_files):
        rpn_path, rin_path = model_files
        code = main(["eval-oracle", "--rpn", rpn_path, "--rin", rin_path,
                     "--count", "5", "--seed", "11"])
        assert code == 0

    @pytest.mark.parametrize("threshold", ["0.3", "0.7"])
    def test_eval_oracle_off_default_threshold(self, capsys, model_files, threshold):
        """Below 0.5 the rin rows off each pair's argmax are scored on demand."""
        rpn_path, rin_path = model_files
        code = main(["eval-oracle", "--rpn", rpn_path, "--rin", rin_path,
                     "--count", "50", "--threshold", threshold])
        assert code == 0
        assert capsys.readouterr().out.startswith("pipeline-oracle agreement: ")

    def test_eval_oracle_corpus_file(self, tmp_path, capsys, model_files):
        rpn_path, rin_path = model_files
        corpus = tmp_path / "corpus.jsonl"
        main(["gen-scenes", "--out", str(corpus), "--count", "4", "--seed", "12"])
        code = main(["eval-oracle", "--rpn", rpn_path, "--rin", rin_path,
                     "--corpus", str(corpus)])
        assert code == 0

    @pytest.mark.parametrize("command", ["compare", "eval-oracle"])
    def test_one_object_scene_named(self, tmp_path, capsys, model_files, command):
        """An empty scene has no cases and is skipped; a one-object scene is an input
        error that names its index and object count."""
        rpn_path, rin_path = model_files
        corpus = tmp_path / "corpus.jsonl"
        write_scenes(str(corpus), [two_books_and_mouse(), make_scene([]),
                                   make_scene([(0, "cup", (10, 10, 5, 5))])])
        corpus_flag = [str(corpus)] if command == "compare" else ["--corpus", str(corpus)]
        code = main([command, *corpus_flag, "--rpn", rpn_path, "--rin", rin_path])
        assert code == 2
        assert "error: scene 2 has 1 object;" in capsys.readouterr().err


NESTED = b"[" * 100_000
NOT_UTF8 = "{}".encode("utf-16")  # starts with the byte-order mark ff fe
SCENE_LINE = json.dumps(scene_to_json(two_books_and_mouse())).encode() + b"\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ["train", "rpn", "data.jsonl", "--out", "m.json"],
        ["gen-data", "rin", "--out", "d.jsonl"],
        ["gen-scenes", "--out", "s.jsonl"],
        ["eval-oracle", "--rpn", "rpn.json", "--rin", "rin.json"],
        ["extract-vg", "rpn", "a.json", "--out", "d.jsonl"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_named(self, tmp_path, capsys, argv):
        paths = [str(tmp_path / a) if "." in a else a for a in argv]
        assert main(paths + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["train", "rpn", "{tmp}/d.jsonl", "--out", "{tmp}/m.json", "--dropout", "1.5"],
         "--dropout must lie in [0, 1), got 1.5"),
        (["train", "rpn", "{tmp}/d.jsonl", "--out", "{tmp}/m.json", "--batch-size", "0"],
         "--batch-size must be positive, got 0"),
        (["train", "rin", "{tmp}/d.jsonl", "--out", "{tmp}/m.json", "--epochs", "-3"],
         "--epochs must be positive, got -3"),
        (["train", "rin", "{tmp}/d.jsonl", "--out", "{tmp}/m.json", "--patience", "0"],
         "--patience must be positive, got 0"),
        (["train", "rpn", "{tmp}/d.jsonl", "--out", "{tmp}/m.json", "--lr", "-0.1"],
         "--lr must be a positive finite number, got -0.1"),
        (["train", "rpn", "{tmp}/d.jsonl", "--out", "{tmp}/m.json", "--val-fraction", "1"],
         "--val-fraction must lie strictly between 0 and 1, got 1.0"),
        (["describe", "{tmp}/s.json", "--target", "0", "--rpn", "{tmp}/a.json",
          "--rin", "{tmp}/b.json", "--threshold", "0"],
         "--threshold must lie strictly between 0 and 1, got 0.0"),
        (["krreg", "{tmp}/s.json", "--target", "0", "--rpn", "{tmp}/a.json", "--threshold", "1"],
         "--threshold must lie strictly between 0 and 1, got 1.0"),
        (["gen-scenes", "--out", "{tmp}/s.jsonl", "--min-objects", "9", "--max-objects", "5"],
         "--max-objects must lie between --min-objects and the 12 object types, got 5"),
        (["gen-scenes", "--out", "{tmp}/s.jsonl", "--max-objects", "13"],
         "--max-objects must lie between --min-objects and the 12 object types, got 13"),
        (["eval-oracle", "--rpn", "{tmp}/a.json", "--rin", "{tmp}/b.json", "--min-objects", "1"],
         "--min-objects must be at least 2, got 1"),
        (["gen-scenes", "--out", "{tmp}/s.jsonl", "--duplicate-prob", "1.5"],
         "--duplicate-prob must lie in [0, 1], got 1.5"),
        (["gen-scenes", "--out", "{tmp}/s.jsonl", "--count", "0"], "--count must be positive, got 0"),
        (["gen-data", "rpn", "--out", "{tmp}/d.jsonl", "-n", "0"], "-n must be positive, got 0"),
        (["extract-vg", "rin", "{tmp}/a.json", "--out", "{tmp}/d.jsonl", "--cap", "0"],
         "--cap must be positive, got 0"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v.split()[0].lstrip("-"))
    def test_out_of_range_flag_named(self, tmp_path, capsys, argv, message):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["gen-scenes", "--out", "{tmp}/file/s.jsonl", "--count", "2"],
        ["gen-data", "rpn", "--out", "{tmp}/file/d.jsonl", "-n", "6"],
    ], ids=lambda argv: argv[0])
    def test_out_under_a_file_is_usage_error(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, content, message", [
        (["describe", "{bad}", "--target", "0", "--rpn", "{rpn}", "--rin", "{rin}"],
         NESTED, "scene {bad} is too deeply nested"),
        (["compare", "{bad}", "--rpn", "{rpn}", "--rin", "{rin}"],
         SCENE_LINE + NESTED, "scene corpus {bad} line 2 is too deeply nested"),
        (["extract-vg", "rin", "{bad}", "--out", "{tmp}/d.jsonl"],
         NESTED, "annotation file {bad} is too deeply nested"),
        (["describe", "{bad}", "--target", "0", "--rpn", "{rpn}", "--rin", "{rin}"],
         NOT_UTF8, "scene {bad} is not UTF-8 text"),
        (["describe", "{scene}", "--target", "0", "--rpn", "{bad}", "--rin", "{rin}"],
         NOT_UTF8, "weights file {bad} is not UTF-8 text"),
        (["compare", "{bad}", "--rpn", "{rpn}", "--rin", "{rin}"],
         SCENE_LINE + NOT_UTF8, "scene corpus {bad} line 2 is not UTF-8 text"),
        (["train", "rpn", "{bad}", "--out", "{tmp}/m.json"],
         NOT_UTF8, "rpn dataset {bad} line 1 is not UTF-8 text"),
        (["describe", "{bad}", "--target", "0", "--rpn", "{rpn}", "--rin", "{rin}"],
         b"[" + b"1" * 5000 + b"]", "scene {bad} is not valid JSON: Exceeds the limit"),
    ], ids=["nested-scene", "nested-corpus", "nested-annotations", "utf16-scene",
            "utf16-weights", "utf16-corpus", "utf16-dataset", "long-int-scene"])
    def test_undecodable_input_is_usage_error(self, tmp_path, capsys, model_files, argv,
                                              content, message):
        """A file nested past the recursion limit, not in UTF-8 or holding an integer
        too long for Python to read exits 2 with one line that names its kind, its
        path and, in a JSONL file, the line."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        names = dict(bad=bad, rpn=model_files[0], rin=model_files[1], tmp=tmp_path,
                     scene=write_scene_file(tmp_path, two_books_and_mouse()))
        assert main([a.format(**names) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(**names)}") and err.count("\n") == 1

    def test_extract_vg_missing_file(self, tmp_path, capsys):
        code = main(["extract-vg", "rpn", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 2

    def test_installed_script_smoke(self, tmp_path):
        # python -m refexp stands in for the script because both run this entry point
        assert 'refexp = "refexp.cli:entry_point"' in (ROOT / "pyproject.toml").read_text()
        out = tmp_path / "scenes.jsonl"
        proc = subprocess.run(
            refexp_command() + ["gen-scenes", "--out", str(out), "--count", "2"],
            capture_output=True, text=True, env={"PATH": SYSTEM_PATH, "REFEXP_LOG": "DEBUG",
                                                 "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert len(read_scenes(str(out))) == 2
