import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from boltznet.autoencoder import AeModel, build_symmetric, fine_tune_mse, reconstruct
from boltznet.core import ActivationKind, make_rng
from boltznet.data import (FormatError, make_batches, one_of_k, read_cifar10,
                           read_mnist_images, read_mnist_labels)
from boltznet.dbm import DbmModel, mean_field_states, pretrain_dbm
from boltznet.dbn import predict_dbn, pretrain_dbn
from boltznet.dnn import LayerStack, predict, pretrain_stack
from boltznet.model_io import (_KINDS, SEC_CHAINS, SEC_DENOISE, SEC_GENERATIVE, SEC_KIND,
                               SEC_LABEL_BIAS, SEC_LABEL_DIM, SEC_MODAL, _pack_layer,
                               _pack_section, load_model, save_model)
from boltznet.multimodal import BimodalAe, build_bimodal, predict_modal
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


MODEL_KINDS = ["stack", "dbn", "ae", "dbm", "bimodal"]  # the keys of each fixture below


@pytest.fixture(scope="module")
def tiny_models():
    """One small trained model per kind, keyed by kind name."""
    batches = toy_batches(n=12, num_batches=2)
    cfg = TrainConfig(epochs=1, seed=11)
    rng = make_rng(12)
    bimodal_cfg = TrainConfig(epochs=1, seed=13)
    bimodal, bimodal_batches = build_bimodal(rng.random((12, 3)), rng.random((12, 2)),
                                             [5, 3], bimodal_cfg, 2)
    fine_tune_mse(bimodal.ae, bimodal_batches, bimodal_cfg)
    return {
        "stack": pretrain_stack([4, 3, 2], batches, cfg),
        "dbn": pretrain_dbn([4, 3, 2], batches, cfg, labels=True),
        "ae": build_symmetric([4, 3], batches, cfg, denoise_rate=0.2),
        "dbm": pretrain_dbm([4, 3, 2], batches, cfg, labels=True),
        "bimodal": bimodal,
    }


def model_arrays(obj):
    """Every array reachable from a model through dataclass fields and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from model_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from model_arrays(getattr(obj, f.name))


def traced_peak(run):
    """The largest traced allocation while `run()` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def container_fields(model) -> dict:
    """The container `save_model` writes for `model`, field by field in file
    order, built from the kind table: magic, version, layer count, each
    layer, each section by tag, and the end tag."""
    kind = next(k for k, entry in _KINDS.items() if isinstance(model, entry[1]))
    layers, sections = _KINDS[kind][2](model)
    fields = {"magic": b"MDLR", "version": struct.pack("<I", 1),
              "count": struct.pack("<I", len(layers))}
    fields.update({f"layer {i}": b"".join(_pack_layer(layer))
                   for i, layer in enumerate(layers)})
    fields.update({tag: b"".join(_pack_section(tag, value))
                   for tag, value in {SEC_KIND: kind, **sections}.items()})
    fields["end"] = b"\x00"
    return fields


def edited(fields, tag, payload):
    """The container with section `tag` replaced by `payload` (b"" drops it)."""
    return b"".join(payload if key == tag else raw for key, raw in fields.items())


def planted(a, value):
    """A copy of `a` holding `value` at [0, 0]."""
    a = a.copy()
    a[0, 0] = value
    return a


def flip_bit(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestCraftedContainers:
    @pytest.mark.parametrize("raw", [
        crafted_container(4, [(4, 2), (2, 4)], struct.pack("<Bd", SEC_DENOISE, 0.3)),
        crafted_container(3, [(4, 3), (5, 2)], struct.pack("<BQ", SEC_LABEL_DIM, 2)),
        crafted_container(3, []),
        crafted_container(0, [(6, 4), (5, 3)]),
        crafted_container(3, [(4, 3), (5, 2)], struct.pack("<BQ", SEC_LABEL_DIM, 9)
                          + b"".join(_pack_section(SEC_LABEL_BIAS, [np.zeros((1, 9))]))),
        crafted_container(3, [(5, 3)], struct.pack("<BQ", SEC_LABEL_DIM, 2)
                          + b"".join(_pack_section(SEC_LABEL_BIAS, [np.zeros((1, 2))]))),
        # 2^60 elements declared, but the file ends after 64 zero bytes
        b"MDLR" + struct.pack("<IIQQB", 1, 1, 2**30, 2**30, 0) + bytes(64),
        # a weight with zero rows: read as zero bytes, then refused by the shape check
        crafted_container(0, [(0, 3)]),
    ], ids=["bimodal-without-modal-section", "dbm-labels-without-label-bias",
            "dbm-without-layers", "stack-layers-not-chained",
            "dbm-label-dim-exceeds-top-rows", "dbm-labels-on-its-only-layer",
            "layer-larger-than-the-file", "layer-with-zero-rows"])
    def test_rejected_with_format_error(self, tmp_path, raw):
        (tmp_path / "m.mdlr").write_bytes(raw)

        def load():
            with pytest.raises(FormatError):
                load_model(tmp_path / "m.mdlr")

        assert traced_peak(load) < 2**20

    @pytest.mark.parametrize("kind, tag, edit, named", [
        ("dbm", SEC_LABEL_DIM, lambda raw, m: flip_bit(raw, 8 + 47), "label rows"),
        ("dbn", SEC_LABEL_DIM, lambda raw, m: struct.pack("<BQ", SEC_LABEL_DIM, 0),
         "layer 0 output"),
        ("dbn", SEC_GENERATIVE, lambda raw, m: b"", "generative arrays"),
        ("dbm", SEC_LABEL_BIAS, lambda raw, m: b"".join(_pack_section(
            SEC_LABEL_BIAS, [np.zeros((1, m.label_dim + 1))])), "bias widths"),
        ("dbm", SEC_CHAINS, lambda raw, m: b"".join(_pack_section(
            SEC_CHAINS, [m.chains[0][:, :-1], *m.chains[1:]])), "persistent chains"),
        # each container below has the right shapes, so only a check of its
        # values refuses it
        ("dbn", SEC_GENERATIVE, lambda raw, m: b"".join(_pack_section(
            SEC_GENERATIVE, [*m.generative_w, planted(m.generative_b[0], np.nan)])),
         r"non-finite values in DbnModel\.generative_b\[0\]"),
        ("stack", "layer 1", lambda raw, m: b"".join(_pack_layer(dataclasses.replace(
            m.layers[1], w=planted(m.layers[1].w, -np.inf)))),
         r"non-finite values in LayerStack\.layers\[1\]\.w"),
        ("bimodal", SEC_MODAL, lambda raw, m: struct.pack(
            "<BQQdddd", SEC_MODAL, m.dim_a, m.dim_b, m.scale_a.lo, m.scale_a.hi,
            m.scale_b.lo, np.inf), r"non-finite values in BimodalAe\.scale_b\.hi"),
        ("ae", SEC_DENOISE, lambda raw, m: struct.pack("<Bd", SEC_DENOISE, 7.0),
         r"AeModel\.denoise_rate 7\.0 outside"),
        ("bimodal", SEC_DENOISE, lambda raw, m: struct.pack("<Bd", SEC_DENOISE, np.nan),
         r"AeModel\.denoise_rate nan outside"),
        ("dbm", SEC_CHAINS, lambda raw, m: b"".join(_pack_section(
            SEC_CHAINS, [*m.chains[:2], planted(m.chains[2], 0.5), m.chains[3]])),
         r"non-binary state in DbmModel\.chains\[2\]"),
        ("dbm", SEC_CHAINS, lambda raw, m: b"".join(_pack_section(
            SEC_CHAINS, [*m.chains[:3], planted(m.chains[3], 1.0 - m.chains[3][0, 0])])),
         r"DbmModel\.chains\[3\] is not one-of-K"),
    ], ids=["dbm-label-dim-bit-flipped", "dbn-label-dim-zeroed",
            "dbn-without-generative-section", "dbm-label-bias-too-wide",
            "dbm-visible-chain-too-narrow", "dbn-generative-bias-nan",
            "stack-weight-minus-inf", "bimodal-modal-scale-inf", "ae-denoise-rate-7",
            "bimodal-denoise-rate-nan", "dbm-chain-holds-a-half",
            "dbm-label-chain-row-not-one-of-k"])
    def test_edited_section_rejected(self, tmp_path, tiny_models, kind, tag, edit, named):
        model = tiny_models[kind]
        fields = container_fields(model)
        (tmp_path / "m.mdlr").write_bytes(edited(fields, tag, edit(fields[tag], model)))
        with pytest.raises(FormatError, match=rf"m\.mdlr: {kind} container: .*{named}"):
            load_model(tmp_path / "m.mdlr")

    @pytest.mark.parametrize("kind", ["dbn", "dbm"])
    def test_non_sigmoid_layer_rejected(self, tmp_path, tiny_models, kind):
        # the first layer's tag byte follows its n_v and n_h; 1 reads TANH
        fields = container_fields(tiny_models[kind])
        layer = fields["layer 0"]
        (tmp_path / "m.mdlr").write_bytes(
            edited(fields, "layer 0", layer[:16] + bytes([1]) + layer[17:]))
        with pytest.raises(FormatError, match="m.mdlr.*TANH"):
            load_model(tmp_path / "m.mdlr")


def predict_zeros(model):
    """The loaded model's prediction on a 2-row zero batch."""
    if isinstance(model, BimodalAe):
        return predict_modal(model, np.zeros((2, model.dim_a)))
    if isinstance(model, AeModel):
        return reconstruct(model, np.zeros((2, model.sizes[0])))
    if isinstance(model, LayerStack):
        return predict(model, np.zeros((2, model.sizes[0])))
    if isinstance(model, DbmModel):
        return mean_field_states(model, np.zeros((2, model.sizes[0])))
    x = np.zeros((2, model.recognition[0].n_v if model.recognition else model.feature_dim))
    return predict_dbn(model, x) if model.label_dim else model.recognition_pass(x)


def sound_model(model, size):
    model.check()
    # a dimension larger than the file never reaches an allocation
    assert all(getattr(model, d, 0) <= size for d in ("label_dim", "dim_a", "dim_b"))
    predict_zeros(model)


def sound_pixels(m, size):
    assert m.size <= size and (m.size == 0 or 0.0 <= m.min() <= m.max() <= 1.0)


def sound_labels(m, size):
    assert m.size <= size and set(m.ravel()) <= set(range(10))


def sound_cifar(parts, size):
    for pixels, labels in (parts[:2], parts[2:]):
        sound_pixels(pixels, 6 * size)  # the one file read as all six batches
        sound_labels(labels, 6 * size)


def idx_images_fields():
    pixels = make_rng(30).integers(0, 256, (2, 6)).astype(np.uint8)
    return [struct.pack(">I", v) for v in (2051, 2, 2, 3)] + [pixels.tobytes()]


def idx_huge_header_fields():
    # no images, but each declared side is 2^32 - 1; the empty last field
    # puts the whole header among the truncations
    return [struct.pack(">I", v) for v in (2051, 0, 2**32 - 1, 2**32 - 1)] + [b""]


def idx_labels_fields():
    return [struct.pack(">I", v) for v in (2049, 3)] + [bytes([3, 1, 9])]


def cifar_fields():
    rng = make_rng(31)
    return [part for label in (7, 2) for part in (
        bytes([label]), rng.integers(0, 256, 3072).astype(np.uint8).tobytes())]


def corruptions(fields, seed, flips=200):
    """The file truncated at every field boundary, with each field dropped
    in turn, and with each of `flips` seeded single bits flipped."""
    raw = b"".join(fields)
    for end in np.cumsum([0] + [len(f) for f in fields[:-1]]):
        yield raw[:end]
    for i in range(len(fields)):
        yield b"".join(fields[:i] + fields[i + 1:])
    for bit in make_rng(seed).integers(0, 8 * len(raw), flips):
        yield flip_bit(raw, int(bit))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # flipped exponent bits
class TestCorruption:
    """Every truncated, field-dropped or bit-flipped file either raises
    FormatError or reads back as something sound."""

    @staticmethod
    def check_all(path, fields, seed, read, sound):
        for raw in corruptions(fields, seed):
            path.write_bytes(raw)
            try:
                result = read(path)
            except FormatError:
                continue
            sound(result, len(raw))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_container(self, tmp_path, tiny_models, kind):
        model = tiny_models[kind]
        save_model(tmp_path / "saved.mdlr", model)
        fields = list(container_fields(model).values())
        assert b"".join(fields) == (tmp_path / "saved.mdlr").read_bytes()
        self.check_all(tmp_path / "m.mdlr", fields, 40, load_model, sound_model)

    @pytest.mark.parametrize("fields, read, sound", [
        (idx_images_fields(), read_mnist_images, sound_pixels),
        (idx_huge_header_fields(), read_mnist_images, sound_pixels),
        (idx_labels_fields(), read_mnist_labels, sound_labels),
        (cifar_fields(), lambda path: read_cifar10([path] * 6), sound_cifar),
    ], ids=["idx-images", "idx-huge-header", "idx-labels", "cifar10"])
    def test_data_file(self, tmp_path, fields, read, sound):
        self.check_all(tmp_path / "f", fields, 41, read, sound)


class TestWorkingMemory:
    """Load and save stream each array between the file and its own
    buffer: loading holds the model and 64 kB more, saving 64 kB."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_load_holds_only_the_model(self, tmp_path, wide_models, kind):
        save_model(tmp_path / "m.mdlr", wide_models[kind])
        loaded = []
        peak = traced_peak(lambda: loaded.append(load_model(tmp_path / "m.mdlr")))
        arrays = {id(a): a.nbytes for a in model_arrays(loaded[0])}
        assert peak <= sum(arrays.values()) + 2**16

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_save_holds_no_copy(self, tmp_path, wide_models, kind):
        model = wide_models[kind]
        assert traced_peak(lambda: save_model(tmp_path / "m.mdlr", model)) <= 2**16


class TestRoundTrips:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_save_of_load_reproduces_the_file(self, tmp_path, tiny_models, kind):
        save_model(tmp_path / "a.mdlr", tiny_models[kind])
        save_model(tmp_path / "b.mdlr", load_model(tmp_path / "a.mdlr"))
        assert (tmp_path / "b.mdlr").read_bytes() == (tmp_path / "a.mdlr").read_bytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_loaded_arrays_are_writable_float64(self, tmp_path, tiny_models, kind):
        save_model(tmp_path / "m.mdlr", tiny_models[kind])
        for a in model_arrays(load_model(tmp_path / "m.mdlr")):
            assert a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable

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
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=3), labels=True)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        assert loaded.label_dim == 2
        assert_layers_equal(model.recognition + [model.top],
                            loaded.recognition + [loaded.top])
        for a, b in zip(model.generative_w, loaded.generative_w):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.generative_b, loaded.generative_b):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("labels", [True, False], ids=["labelled", "unlabelled"])
    def test_dbm_with_chains(self, tmp_path, labels):
        batches = toy_batches()
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=4),
                             labels=labels)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        assert loaded.label_dim == (2 if labels else 0)
        for a, b in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.visible_bias, loaded.visible_bias)
        np.testing.assert_array_equal(model.label_bias, loaded.label_bias)
        assert len(model.chains) == (4 if labels else 3)
        for a, b in zip(model.chains, loaded.chains, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_bimodal(self, tmp_path):
        rng = make_rng(5)
        a = rng.random((40, 6))
        b = rng.random((40, 4))
        cfg = TrainConfig(epochs=1, lr=0.2, seed=6)
        model, batches = build_bimodal(a, b, [10, 5], cfg, 4, denoise_rate=0.3)
        fine_tune_mse(model.ae, batches, cfg)
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
                             labels=True)
        save_model(tmp_path / "m", model)
        loaded = load_model(tmp_path / "m")
        cfg = TrainConfig(epochs=1, lr=0.01, seed=8, momentum=NO_MOMENTUM)
        mean_field_train(model, batches, cfg)
        mean_field_train(loaded, batches, cfg)
        for a, b in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
