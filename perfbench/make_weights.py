"""Regenerate the two weight files that the serve and corpus workloads load.

Both scorers are trained once with the frozen criterion-3 recipe (seed 0, rpn
6000 samples with dropout 0, rin 8000 samples with the default dropout, 10%
held out, ``TrainConfig(seed=0, max_epochs=600, patience=30)``), written to
``perfbench/weights/`` and listed with their SHA-256 in ``SHA256SUMS``.

    python3 perfbench/make_weights.py

The files are committed, so benchmark runs never train and training changes
cannot move the serve or corpus numbers. Rerun this only on purpose, and
expect the hashes to change when the training code does.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from refexp.datagen import (SceneGenSpec, rin_training_pairs, rpn_training_pairs,  # noqa: E402
                            synth_rin_dataset, synth_rpn_dataset)
from refexp.mlp import TrainConfig, accuracy, save_model, train  # noqa: E402
from refexp.networks import rin_layer_specs, rpn_layer_specs  # noqa: E402
from streams import holdout  # noqa: E402

WEIGHTS = HERE / "weights"
RECIPE = TrainConfig(seed=0, max_epochs=600, patience=30)


def main() -> int:
    WEIGHTS.mkdir(exist_ok=True)
    jobs = (
        ("rpn", rpn_training_pairs(synth_rpn_dataset(SceneGenSpec(seed=0), 6000)),
         rpn_layer_specs(), 0.0),
        ("rin", rin_training_pairs(synth_rin_dataset(SceneGenSpec(seed=0), 8000)),
         rin_layer_specs(), 0.2),
    )
    lines = []
    for name, pairs, specs, dropout in jobs:
        rest, test = holdout(pairs, seed=0)  # the acceptance fixtures' split
        model, report = train(rest, specs, RECIPE, dropout_rate=dropout)
        path = WEIGHTS / f"{name}.json"
        save_model(model, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.name}\n")
        print(f"{name}: {report.epochs_run} epochs, test accuracy {accuracy(model, test):.4f}")
    (WEIGHTS / "SHA256SUMS").write_text("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
