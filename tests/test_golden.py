"""Golden artifacts: every `boltznet run-*` model at one tiny fixed config.

Each run's `metrics.txt` (with the `wall_ms=` timing tokens stripped) and
`model.mdlr` must hash to the recorded sha256 values, so a refactor that
claims to preserve behaviour has to reproduce both files byte for byte.
The config crosses the momentum threshold and turns on annealing, L2
decay, dropout and two Gibbs steps, so every branch of the shared update
runs.

The hashes pin the floating-point results of one numpy/BLAS build. To
print the current hashes (for example after a change that is meant to
alter the numbers), run `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from boltznet.cli import main
from boltznet.synth import write_mnist_style_dir

LAYERS = {
    "rbm": "784,16",
    "dnn": "784,16,12,10",
    "dbn": "784,16,12",
    "dae": "784,16,8",
    "dbm": "784,16,12",
    "bimodal": "784,16,8",
}
FLAGS = ["--epochs", "2", "--batches", "5", "--seed", "3", "--lr", "0.1",
         "--anneal", "exp", "--anneal-k", "0.1", "--momentum-threshold", "1",
         "--decay", "l2", "--decay-k", "0.0001", "--dropout", "0.1",
         "--denoise", "0.2", "--gibbs", "2"]

# model -> (sha256 of metrics.txt without wall_ms, sha256 of model.mdlr)
GOLDEN = {
    "rbm": ("9fd1188fc6228a0067ef4e60edc29f795f83eef388e287a1d4e46209414a928b",
           "205910fce13ff199aac9113449c55ebe7ab3380c161df9f9f5417ca0ba7f086f"),
    "dnn": ("899c3bd470e07391f0505177f92f47efed7db2d8872e5a200ff3dd6f46ddc6bd",
           "837755e14c5f7decfd16be600f4222b3e5274f29b9f2936a5c38a57c3bce0400"),
    "dbn": ("fa98cedef64b68f5955b6c55c694e25026e297cbb039a52e76b9c894d0a1d36d",
           "f9de1acfb90e06e9f9bfb5d9d579220595b92a35831c819d773670bfd0ecb53f"),
    "dae": ("bed09bb3d70dbe2a771108e5a2e933bcad7a2b291e43a82c379b9ce5e2b35596",
           "a24fef044fc3d94371a709972176a00815d41b14a37346aeaa67cb266c35ca5c"),
    "dbm": ("5483d669a709b7736aa957628f735d1dbf4890dfb296db54eb8e28cdc41e3b58",
           "eb6cbef47aa99e39200776e46331a4f59247db0ec082df804d55abe5cc1da5e1"),
    "bimodal": ("b77b428b22befa6159b93c59ef6ca645b59acf077237b4d3973d70567f8c23d2",
               "0643f70e7b3ffbae459f567b64ee9ed495d21e2ea8d5d68ccb3857a9a866e5dc"),
}


def write_corpus(d: Path) -> None:
    write_mnist_style_dir(d, n_train=200, n_test=40, seed=3)


def artifact_hashes(model: str, data_dir: Path, out_dir: Path):
    """Run one model through the CLI and hash its two artifacts."""
    code = main([f"run-{model}", "--layers", LAYERS[model], *FLAGS,
                 "--data-dir", str(data_dir), "--out-dir", str(out_dir)])
    assert code == 0
    metrics = "\n".join(
        " ".join(t for t in line.split() if not t.startswith("wall_ms="))
        for line in (out_dir / "metrics.txt").read_text().splitlines())
    return (hashlib.sha256(metrics.encode()).hexdigest(),
            hashlib.sha256((out_dir / "model.mdlr").read_bytes()).hexdigest())


@pytest.fixture(scope="module")
def golden_data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_corpus(d)
    return d


@pytest.mark.parametrize("model", list(GOLDEN))
def test_artifacts_match_golden(model, golden_data_dir, tmp_path):
    assert artifact_hashes(model, golden_data_dir, tmp_path / model) == GOLDEN[model]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_corpus(root / "data")
        digests = {name: artifact_hashes(name, root / "data", root / name)
                   for name in LAYERS}
    for name, (metrics, model) in digests.items():
        print(f'    "{name}": ("{metrics}",\n{" " * (len(name) + 8)}"{model}"),')
