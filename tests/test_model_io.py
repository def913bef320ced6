import struct

import numpy as np
import pytest

from boltznet.autoencoder import build_symmetric
from boltznet.core import ActivationKind, make_rng
from boltznet.data import FormatError, make_batches, one_of_k
from boltznet.dbm import pretrain_dbm
from boltznet.dbn import pretrain_dbn
from boltznet.dnn import LayerStack, pretrain_stack
from boltznet.model_io import (SEC_DENOISE, SEC_KIND, SEC_LABEL_DIM, load_model,
                               save_model)
from boltznet.multimodal import train_bimodal
from boltznet.rbm import RbmLayer, TrainConfig


def toy_batches(seed=0, n=24, dim=4, classes=2, num_batches=3):
    rng = make_rng(seed)
    data = (rng.random((n, dim)) > 0.5).astype(float)
    labels = one_of_k(rng.integers(0, classes, (n, 1)).astype(float), classes)
    return make_batches(data, labels, num_batches)


def assert_layers_equal(a, b):
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.w, lb.w)
        np.testing.assert_array_equal(la.b_v, lb.b_v)
        np.testing.assert_array_equal(la.b_h, lb.b_h)
        assert la.activation == lb.activation


class TestContainer:
    def test_magic_and_version(self, tmp_path):
        stack = LayerStack([RbmLayer.random(3, 2, make_rng(0))])
        save_model(tmp_path / "m.mdlr", stack)
        raw = (tmp_path / "m.mdlr").read_bytes()
        assert raw[:4] == b"MDLR"
        assert int.from_bytes(raw[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.mdlr").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_model(tmp_path / "m.mdlr")

    def test_truncated_rejected(self, tmp_path):
        stack = LayerStack([RbmLayer.random(3, 2, make_rng(0))])
        save_model(tmp_path / "m.mdlr", stack)
        raw = (tmp_path / "m.mdlr").read_bytes()
        (tmp_path / "cut.mdlr").write_bytes(raw[:len(raw) // 2])
        with pytest.raises(FormatError):
            load_model(tmp_path / "cut.mdlr")


def crafted_container(kind_tag, layer_shapes, sections=b""):
    """A container with zero-valued sigmoid layers, a kind section and the
    given raw trailing sections."""
    out = [b"MDLR", struct.pack("<II", 1, len(layer_shapes))]
    for n_v, n_h in layer_shapes:
        out.append(struct.pack("<QQB", n_v, n_h, 0)
                   + bytes(8 * (n_v * n_h + n_v + n_h)))
    out.append(struct.pack("<BB", SEC_KIND, kind_tag) + sections + b"\x00")
    return b"".join(out)


class TestCraftedContainers:
    @pytest.mark.parametrize("raw", [
        crafted_container(4, [(4, 2), (2, 4)], struct.pack("<Bd", SEC_DENOISE, 0.3)),
        crafted_container(3, [(4, 3), (5, 2)], struct.pack("<BQ", SEC_LABEL_DIM, 2)),
        crafted_container(3, []),
    ], ids=["bimodal-without-modal-section", "dbm-labels-without-label-bias",
            "dbm-without-layers"])
    def test_rejected_with_format_error(self, tmp_path, raw):
        (tmp_path / "m.mdlr").write_bytes(raw)
        with pytest.raises(FormatError):
            load_model(tmp_path / "m.mdlr")


class TestRoundTrips:
    def test_stack(self, tmp_path):
        stack = pretrain_stack([4, 3, 2], toy_batches(), TrainConfig(epochs=1, seed=1))
        save_model(tmp_path / "m", stack)
        loaded = load_model(tmp_path / "m")
        assert isinstance(loaded, LayerStack)
        assert_layers_equal(stack.layers, loaded.layers)
        assert loaded.layers[-1].activation == ActivationKind.SOFTMAX

    def test_autoencoder(self, tmp_path):
        model = build_symmetric([4, 3], toy_batches(), TrainConfig(epochs=1, seed=2),
                                denoise_rate=0.25)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        assert loaded.denoise_rate == 0.25
        assert_layers_equal(model.stack.layers, loaded.stack.layers)

    def test_dbn(self, tmp_path):
        batches = toy_batches()
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=3))
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        assert loaded.label_dim == 2
        assert_layers_equal(model.recognition + [model.top],
                            loaded.recognition + [loaded.top])
        for a, b in zip(model.generative_w, loaded.generative_w):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.generative_b, loaded.generative_b):
            np.testing.assert_array_equal(a, b)

    def test_dbm_with_chains(self, tmp_path):
        batches = toy_batches()
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=4),
                             labels=batches)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        assert loaded.label_dim == 2
        for a, b in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.visible_bias, loaded.visible_bias)
        np.testing.assert_array_equal(model.label_bias, loaded.label_bias)
        np.testing.assert_array_equal(model.chain_v, loaded.chain_v)
        np.testing.assert_array_equal(model.chain_y, loaded.chain_y)
        for a, b in zip(model.chain_h, loaded.chain_h):
            np.testing.assert_array_equal(a, b)

    def test_bimodal(self, tmp_path):
        rng = make_rng(5)
        a = rng.random((40, 6))
        b = rng.random((40, 4))
        model = train_bimodal(a, b, [10, 5],
                              TrainConfig(epochs=1, lr=0.2, num_batches=4, seed=6),
                              denoise_rate=0.3, fine_tune_epochs=1)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        assert (loaded.dim_a, loaded.dim_b) == (6, 4)
        assert loaded.scale_a.lo == model.scale_a.lo
        assert loaded.scale_b.hi == model.scale_b.hi
        assert_layers_equal(model.ae.stack.layers, loaded.ae.stack.layers)

    def test_loaded_dbm_resumes_training(self, tmp_path):
        from boltznet.dbm import mean_field_train
        from boltznet.optim import NO_MOMENTUM

        batches = toy_batches()
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=7),
                             labels=batches)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        cfg = TrainConfig(epochs=1, lr=0.01, seed=8, momentum=NO_MOMENTUM)
        mean_field_train(model, batches, cfg)
        mean_field_train(loaded, batches, cfg)
        for a, b in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
