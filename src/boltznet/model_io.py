"""Flat binary model container shared by every model kind.

Layout (all integers little-endian):

    magic "MDLR" | version u32 | layer count u32
    per layer: n_v u64 | n_h u64 | activation tag u8
               | w, b_v, b_h as little-endian f64, row-major
    tagged trailing sections until tag 0:
        1  label dimension (u64)
        2  persistent-chain snapshot (array list)
        3  modal boundary: dim_a u64, dim_b u64, scale lo/hi f64 x4
        4  denoise rate (f64)
        5  generative weights/biases (array list, DBN)
        6  label bias row (f64 list)
        7  fine-tuned flag (u8)
        8  model kind (u8)
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .autoencoder import AeModel
from .core import ActivationKind
from .data import FormatError
from .dbm import DbmModel
from .dbn import DbnModel
from .dnn import LayerStack
from .multimodal import BimodalAe, ModalScale
from .rbm import RbmLayer

MAGIC = b"MDLR"
VERSION = 1

_ACT_TAGS = {
    ActivationKind.SIGMOID: 0,
    ActivationKind.TANH: 1,
    ActivationKind.RELU: 2,
    ActivationKind.LEAKY_RELU: 3,
    ActivationKind.SOFTMAX: 4,
    ActivationKind.IDENTITY: 5,
}
_ACT_FROM_TAG = {v: k for k, v in _ACT_TAGS.items()}

_KIND_TAGS = {"stack": 0, "dbn": 1, "ae": 2, "dbm": 3, "bimodal": 4}
_KIND_FROM_TAG = {v: k for k, v in _KIND_TAGS.items()}

SEC_END = 0
SEC_LABEL_DIM = 1
SEC_CHAINS = 2
SEC_MODAL = 3
SEC_DENOISE = 4
SEC_GENERATIVE = 5
SEC_LABEL_BIAS = 6
SEC_FINE_TUNED = 7
SEC_KIND = 8


def _f64_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def _pack_arrays(arrays) -> bytes:
    out = [struct.pack("<Q", len(arrays))]
    for a in arrays:
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        out.append(struct.pack("<QQ", a.shape[0], a.shape[1]))
        out.append(_f64_bytes(a))
    return b"".join(out)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError("truncated model file")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, rows: int, cols: int) -> np.ndarray:
        data = np.frombuffer(self.take(8 * rows * cols), dtype="<f8")
        return data.reshape(rows, cols).astype(np.float64)

    def arrays(self):
        return [self.f64_array(self.u64(), self.u64())
                for _ in range(self.u64())]


def _pack_layer(layer: RbmLayer) -> bytes:
    return b"".join([
        struct.pack("<QQB", layer.n_v, layer.n_h, _ACT_TAGS[layer.activation]),
        _f64_bytes(layer.w), _f64_bytes(layer.b_v), _f64_bytes(layer.b_h),
    ])


def _read_layer(r: _Reader, index: int) -> RbmLayer:
    n_v, n_h = r.u64(), r.u64()
    tag = r.u8()
    if tag not in _ACT_FROM_TAG:
        raise FormatError(f"unknown activation tag {tag}")
    w = r.f64_array(n_v, n_h)
    b_v = r.f64_array(1, n_v)
    b_h = r.f64_array(1, n_h)
    return RbmLayer(w=w, b_v=b_v, b_h=b_h, activation=_ACT_FROM_TAG[tag],
                    index=index)


def _dbm_as_layers(model: DbmModel):
    layers = []
    for i, (w, b) in enumerate(zip(model.weights, model.hidden_biases)):
        b_v = model.visible_bias if i == 0 else np.zeros((1, w.shape[0]))
        layers.append(RbmLayer(w=w, b_v=b_v, b_h=b, index=i))
    return layers


def save_model(path, model) -> None:
    if isinstance(model, BimodalAe):
        kind, layers = "bimodal", model.ae.stack.layers
    elif isinstance(model, AeModel):
        kind, layers = "ae", model.stack.layers
    elif isinstance(model, DbnModel):
        kind, layers = "dbn", model.recognition + [model.top]
    elif isinstance(model, DbmModel):
        kind, layers = "dbm", _dbm_as_layers(model)
    elif isinstance(model, LayerStack):
        kind, layers = "stack", model.layers
    else:
        raise FormatError(f"cannot serialize {type(model).__name__}")

    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(layers))]
    out += [_pack_layer(l) for l in layers]
    out.append(struct.pack("<BB", SEC_KIND, _KIND_TAGS[kind]))

    if kind == "dbn":
        out.append(struct.pack("<BQ", SEC_LABEL_DIM, model.label_dim))
        gen = list(model.generative_w) + list(model.generative_b)
        out.append(struct.pack("<B", SEC_GENERATIVE) + _pack_arrays(gen))
        out.append(struct.pack("<BB", SEC_FINE_TUNED, int(model.fine_tuned)))
    elif kind == "dbm":
        out.append(struct.pack("<BQ", SEC_LABEL_DIM, model.label_dim))
        if model.label_dim:
            out.append(struct.pack("<B", SEC_LABEL_BIAS)
                       + _pack_arrays([model.label_bias]))
        chains = [model.chain_v] + list(model.chain_h)
        if model.label_dim:
            chains.append(model.chain_y)
        if model.chain_v is not None:
            out.append(struct.pack("<B", SEC_CHAINS) + _pack_arrays(chains))
    elif kind == "ae":
        out.append(struct.pack("<Bd", SEC_DENOISE, model.denoise_rate))
    elif kind == "bimodal":
        out.append(struct.pack("<Bd", SEC_DENOISE, model.ae.denoise_rate))
        out.append(struct.pack("<BQQdddd", SEC_MODAL, model.dim_a, model.dim_b,
                               model.scale_a.lo, model.scale_a.hi,
                               model.scale_b.lo, model.scale_b.hi))

    out.append(struct.pack("<B", SEC_END))
    Path(path).write_bytes(b"".join(out))


def load_model(path):
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    layers = [_read_layer(r, i) for i in range(r.u32())]

    sections = {}
    while True:
        tag = r.u8()
        if tag == SEC_END:
            break
        if tag == SEC_LABEL_DIM:
            sections[tag] = r.u64()
        elif tag in (SEC_CHAINS, SEC_GENERATIVE, SEC_LABEL_BIAS):
            sections[tag] = r.arrays()
        elif tag == SEC_MODAL:
            sections[tag] = (r.u64(), r.u64(), r.f64(), r.f64(), r.f64(), r.f64())
        elif tag == SEC_DENOISE:
            sections[tag] = r.f64()
        elif tag in (SEC_FINE_TUNED, SEC_KIND):
            sections[tag] = r.u8()
        else:
            raise FormatError(f"{path}: unknown section tag {tag}")

    kind = _KIND_FROM_TAG.get(sections.get(SEC_KIND, 0))

    def required(tag, what):
        if tag not in sections:
            raise FormatError(f"{path}: {kind} container lacks its {what} section")
        return sections[tag]

    if kind in ("dbn", "dbm") and not layers:
        raise FormatError(f"{path}: {kind} container has no layers")
    if kind == "stack":
        return LayerStack(layers=layers)
    if kind == "ae":
        return AeModel(stack=LayerStack(layers=layers),
                       denoise_rate=sections.get(SEC_DENOISE, 0.0))
    if kind == "bimodal":
        dim_a, dim_b, a_lo, a_hi, b_lo, b_hi = required(SEC_MODAL, "modal boundary")
        ae = AeModel(stack=LayerStack(layers=layers),
                     denoise_rate=sections.get(SEC_DENOISE, 0.0))
        return BimodalAe(ae=ae, dim_a=dim_a, dim_b=dim_b,
                         scale_a=ModalScale(a_lo, a_hi),
                         scale_b=ModalScale(b_lo, b_hi))
    if kind == "dbn":
        gen = sections.get(SEC_GENERATIVE, [])
        half = len(gen) // 2
        model = DbnModel(recognition=layers[:-1], top=layers[-1],
                         label_dim=sections.get(SEC_LABEL_DIM, 0),
                         fine_tuned=bool(sections.get(SEC_FINE_TUNED, 0)))
        model.generative_w = gen[:half]
        model.generative_b = gen[half:]
        return model
    if kind == "dbm":
        label_dim = sections.get(SEC_LABEL_DIM, 0)
        model = DbmModel(weights=[l.w for l in layers],
                         visible_bias=layers[0].b_v,
                         hidden_biases=[l.b_h for l in layers],
                         label_dim=label_dim)
        if label_dim:
            model.label_bias = required(SEC_LABEL_BIAS, "label bias")[0]
        chains = sections.get(SEC_CHAINS)
        if chains:
            model.chain_v = chains[0]
            if label_dim:
                model.chain_h = chains[1:-1]
                model.chain_y = chains[-1]
            else:
                model.chain_h = chains[1:]
        return model
    raise FormatError(f"{path}: unknown model kind")
