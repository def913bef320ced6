"""Golden artifacts: every `boltznet run-*` model at one tiny fixed config.

Each run's files must hash to the recorded sha256 values, so a refactor
that claims to preserve behaviour has to reproduce them byte for byte:
`metrics.txt` (with the `wall_ms=` timing tokens stripped), `model.mdlr`
and the drawn picture (`filters.pgm` or `recon.pgm`), and the run must
print the same stdout. `config.json` is left out: it echoes the
directories of the run. Every model runs with fine-tuning on, and every
model whose run branches on it also runs with `--fine-tune 0`. The config
crosses the momentum threshold and turns on annealing, L2 decay, dropout
and two Gibbs steps, so every branch of the shared update runs.

The hashes pin the floating-point results of one numpy/BLAS build. To
print the current values (for example after a change that is meant to
alter the numbers), run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
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

# case -> (model, extra flags): each model as it runs by default, then each
# one whose run branches on fine-tuning without it (run-rbm never tunes)
CASES = {model: (model, []) for model in LAYERS}
CASES.update({f"{model}-fine-tune-0": (model, ["--fine-tune", "0"])
              for model in ("dnn", "dbn", "dae", "dbm", "bimodal")})

# case -> ({file: sha256, metrics.txt without wall_ms}, printed stdout)
GOLDEN = {
    "rbm": ({
        "filters.pgm": "cdffc3821b813d6435bbc5b91756637f5a8992ce7f03addd3f5a008c432fa600",
        "metrics.txt": "9fd1188fc6228a0067ef4e60edc29f795f83eef388e287a1d4e46209414a928b",
        "model.mdlr": "43d5c8f337821d5ea0cf25965aa318a3f0f077cf1afbd3be7c5525f161f193d1",
    }, "final error rate: 0.9\n"),
    "dnn": ({
        "filters.pgm": "fc457b3e55c778d8dc075df04485d7df1c548fc26becb913c2ca81acc1a23aa6",
        "metrics.txt": "899c3bd470e07391f0505177f92f47efed7db2d8872e5a200ff3dd6f46ddc6bd",
        "model.mdlr": "9b1e1b82c98bf0d88fe94f8e73da07d0994048b561a9c8d162d1a3fb3b1bd099",
    }, "final error rate: 0.9\n"),
    "dbn": ({
        "filters.pgm": "2009f8b11ea15ca187836a7aee6b13c42f2d4326ad0366e5cc19442a97a72d4f",
        "metrics.txt": "fa98cedef64b68f5955b6c55c694e25026e297cbb039a52e76b9c894d0a1d36d",
        "model.mdlr": "d5dd670934d9989b6ef01fbdf35231f79b6e01f2be558212eccc84a1de48d74b",
    }, "final error rate: 0.9\n"),
    "dae": ({
        "metrics.txt": "fd6495572c22c36ab7b4737f56f661ed3c45be26d779314b3f5402b3ee6806ae",
        "model.mdlr": "cbdae6a4e838388c0c3d88de9c3ff4ff308da72ae4f5ee5cf734ea90d14464b0",
        "recon.pgm": "4cf020b97825f430d6fb14173a39737cc70e4f39014bb0ea83ae6ec880e3ed10",
    }, "final reconstruction error: 25.2032178934144\n"),
    "dbm": ({
        "filters.pgm": "3392671e65b54c077cd7c5c583c961e699d43a91e05b37d0efa6d1bd0ca63be9",
        "metrics.txt": "ff4369305565a018548671eea17aeca8269cc1e776bfd370b97cabc41a5b0b1f",
        "model.mdlr": "529c07726a30167a2b42dc04740125f8c45a17c90ef20d4628664abff277456b",
    }, "final error rate: 0.9\n"),
    "bimodal": ({
        "metrics.txt": "b77b428b22befa6159b93c59ef6ca645b59acf077237b4d3973d70567f8c23d2",
        "model.mdlr": "a0c6208a801c32354c75f3d2caed6bc4a03ded07fc306465a76400521bd7f502",
    }, ""),
    "dnn-fine-tune-0": ({
        "filters.pgm": "cdffc3821b813d6435bbc5b91756637f5a8992ce7f03addd3f5a008c432fa600",
        "metrics.txt": "35e415f781f5289a68111cac7c24ae1eb04748304c5f84782d9d01c2a56fc6bf",
        "model.mdlr": "301c1bc08eeb1619090089cb71684d5e977f8fe827776a19a6840efe579ed009",
    }, "final error rate: 0.9\n"),
    "dbn-fine-tune-0": ({
        "filters.pgm": "cdffc3821b813d6435bbc5b91756637f5a8992ce7f03addd3f5a008c432fa600",
        "metrics.txt": "141dd923d8113852202801f27bad011754132f570af7624de6241d3dd12ae5e1",
        "model.mdlr": "5367efeb578dddb60f42e513ba48cdfeb13135a93f754db2979090fff096a04f",
    }, "final error rate: 0.9\n"),
    "dae-fine-tune-0": ({
        "metrics.txt": "11e60b1b6ba77799de8cc53dfbdb82031e00d9306d6bb9a1d23ec40be9f302a9",
        "model.mdlr": "dfe8701722fe32b93f1171312cdec3ad539ad5806ad2e28a7959fbe0f550d26a",
        "recon.pgm": "453d5b43e1103f6ecb47a13179e1c6f49568561c43ed75574e4019c70f6cf1f5",
    }, "final reconstruction error: 31.215059493231593\n"),
    "dbm-fine-tune-0": ({
        "filters.pgm": "619d3e0d0d10d11371f9b8e5c0c5f362af235eb9a15eba3f98cf71abbecd03b5",
        "metrics.txt": "141dd923d8113852202801f27bad011754132f570af7624de6241d3dd12ae5e1",
        "model.mdlr": "530febd92dc2fc8b940e43bd3392bbbee15beb7a0727b86bfbe220a8aafc2cb5",
    }, "final error rate: 0.9\n"),
    "bimodal-fine-tune-0": ({
        "metrics.txt": "95912d663f716fba07f984749522004fdb1d8781b93e4db2541a56c284794288",
        "model.mdlr": "ff42d2268ea822ee717d363c70b9f2839db96b9b4d50c337eacbcab1bd36d729",
    }, ""),
}


def write_corpus(d: Path) -> None:
    write_mnist_style_dir(d, n_train=200, n_test=40, seed=3)


def artifact_hashes(case: str, data_dir: Path, out_dir: Path):
    """Run one case through the CLI; hash every file it writes but
    `config.json`, and return the hashes with what the run printed."""
    model, extra = CASES[case]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([f"run-{model}", "--layers", LAYERS[model], *FLAGS, *extra,
                     "--data-dir", str(data_dir), "--out-dir", str(out_dir)])
    assert code == 0
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        raw = path.read_bytes()
        if path.name == "config.json":
            continue
        if path.name == "metrics.txt":
            raw = "\n".join(
                " ".join(t for t in line.split() if not t.startswith("wall_ms="))
                for line in raw.decode().splitlines()).encode()
        hashes[path.name] = hashlib.sha256(raw).hexdigest()
    return hashes, stdout.getvalue()


@pytest.fixture(scope="module")
def golden_data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_corpus(d)
    return d


@pytest.mark.parametrize("case", list(CASES))
def test_artifacts_match_golden(case, golden_data_dir, tmp_path):
    assert artifact_hashes(case, golden_data_dir, tmp_path / case) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_corpus(root / "data")
        digests = {case: artifact_hashes(case, root / "data", root / case)
                   for case in CASES}
    for case, (hashes, printed) in digests.items():
        print(f"    {json.dumps(case)}: ({{")
        for name, digest in hashes.items():
            print(f"        {json.dumps(name)}: {json.dumps(digest)},")
        print(f"    }}, {json.dumps(printed)}),")
