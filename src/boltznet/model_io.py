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
        6  label bias row (array list)
        7  fine-tuned flag (u8)
        8  model kind (u8)
    an array list is a u64 count, then per array rows u64 | cols u64 | f64s.

Two tables drive both `save_model` and `load_model`: `_SECTIONS` (each
section's payload format) and `_KINDS` (each model kind's layers and
sections). `load_model` ends with the model's own `check()`.

Both stream: `save_model` writes each array from its own buffer and
`load_model` reads each array straight into the buffer the model keeps,
so the working memory of either is the model itself, never a copy of the
file.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .autoencoder import AeModel
from .core import ActivationKind, ShapeError
from .data import FormatError
from .dbm import DbmModel
from .dbn import DbnModel
from .dnn import LayerStack
from .multimodal import BimodalAe, ModalScale
from .rbm import RbmLayer

MAGIC = b"MDLR"
VERSION = 1

_ACT_FROM_TAG = dict(enumerate([
    ActivationKind.SIGMOID, ActivationKind.TANH, ActivationKind.RELU,
    ActivationKind.LEAKY_RELU, ActivationKind.SOFTMAX, ActivationKind.IDENTITY]))
_ACT_TAGS = {v: k for k, v in _ACT_FROM_TAG.items()}

(SEC_END, SEC_LABEL_DIM, SEC_CHAINS, SEC_MODAL, SEC_DENOISE, SEC_GENERATIVE,
 SEC_LABEL_BIAS, SEC_FINE_TUNED, SEC_KIND) = range(9)  # the tags listed above
# payload format per section tag; None marks an array list
_SECTIONS = {SEC_LABEL_DIM: "<Q", SEC_CHAINS: None, SEC_MODAL: "<QQdddd",
             SEC_DENOISE: "<d", SEC_GENERATIVE: None, SEC_LABEL_BIAS: None,
             SEC_FINE_TUNED: "<B", SEC_KIND: "<B"}


def _f64(a) -> np.ndarray:
    """`a` as a C-contiguous little-endian float64 matrix, written as is."""
    return np.ascontiguousarray(np.atleast_2d(a), dtype="<f8")


def _pack_section(tag: int, value) -> list:
    """One tagged section as pieces in file order: a scalar or tuple packed
    by its format, or a list of arrays."""
    fmt = _SECTIONS[tag]
    if fmt is None:
        arrays = [_f64(a) for a in value]
        return [struct.pack("<BQ", tag, len(arrays))] + [
            piece for a in arrays for piece in (struct.pack("<QQ", *a.shape), a)]
    return [struct.pack("<B", tag) + struct.pack(
        fmt, *(value if isinstance(value, tuple) else (value,)))]


class _Reader:
    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size

    def take(self, n: int) -> bytes:
        chunk = self.f.read(n)
        if len(chunk) != n:
            raise FormatError("truncated")
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f64_array(self, rows: int, cols: int) -> np.ndarray:
        """The next rows x cols array, read into a fresh buffer once the
        bytes left in the file are known to hold it."""
        left = self.size - self.f.tell()
        # the shape must fit the file too, so that even an empty array's does
        if max(rows, cols) > self.size or 8 * rows * cols > left:
            raise FormatError(f"array shape {rows}x{cols} exceeds the file")
        data = np.empty((rows, cols), dtype="<f8")
        if self.f.readinto(data) != data.nbytes:
            raise FormatError("truncated")
        return data.astype(np.float64, copy=False)

    def section(self, tag: int):
        """The payload of a section whose tag was just read."""
        if tag not in _SECTIONS:
            raise FormatError(f"unknown section tag {tag}")
        fmt = _SECTIONS[tag]
        if fmt is None:
            return [self.f64_array(*self.unpack("<QQ"))
                    for _ in range(self.unpack("<Q")[0])]
        values = self.unpack(fmt)
        return values if len(values) > 1 else values[0]


class _Sections(dict):
    def __missing__(self, tag):  # a required section is absent; `get` is optional
        raise FormatError(f"missing section {tag}")


def _pack_layer(layer: RbmLayer) -> list:
    head = struct.pack("<QQB", layer.n_v, layer.n_h, _ACT_TAGS[layer.activation])
    return [head] + [_f64(a) for a in (layer.w, layer.b_v, layer.b_h)]


def _read_layer(r: _Reader) -> RbmLayer:
    n_v, n_h, tag = r.unpack("<QQB")
    if tag not in _ACT_FROM_TAG:
        raise FormatError(f"unknown activation tag {tag}")
    return RbmLayer(w=r.f64_array(n_v, n_h), b_v=r.f64_array(1, n_v),
                    b_h=r.f64_array(1, n_h), activation=_ACT_FROM_TAG[tag])


def _build_dbn(layers, s) -> DbnModel:
    gen = s.get(SEC_GENERATIVE, [])
    return DbnModel(recognition=layers[:-1], top=layers[-1],
                    generative_w=gen[:len(gen) // 2], generative_b=gen[len(gen) // 2:],
                    label_dim=s.get(SEC_LABEL_DIM, 0),
                    fine_tuned=bool(s.get(SEC_FINE_TUNED, 0)))


def _dbm_parts(model: DbmModel):
    # one RBM layer per weight: the visible bias on the first, zeros above
    layers = [RbmLayer(w=w, b_v=np.zeros((1, w.shape[0])) if i else model.visible_bias,
                       b_h=b)
              for i, (w, b) in enumerate(zip(model.weights, model.hidden_biases))]
    sections = {SEC_LABEL_DIM: model.label_dim}
    if model.label_dim:
        sections[SEC_LABEL_BIAS] = [model.label_bias]
    if model.chain_v is not None:
        sections[SEC_CHAINS] = ([model.chain_v] + model.chain_h
                                + ([model.chain_y] if model.label_dim else []))
    return layers, sections


def _build_dbm(layers, s) -> DbmModel:
    k = s.get(SEC_LABEL_DIM, 0)
    chain_v, *chain_h = s.get(SEC_CHAINS) or [None]
    return DbmModel(weights=[l.w for l in layers], visible_bias=layers[0].b_v,
                    hidden_biases=[l.b_h for l in layers], label_dim=k,
                    label_bias=s[SEC_LABEL_BIAS][0] if k and s[SEC_LABEL_BIAS] else None,
                    chain_v=chain_v, chain_h=chain_h[:-1] if k else chain_h,
                    chain_y=chain_h[-1] if k and chain_h else None)


def _build_ae(layers, s) -> AeModel:
    return AeModel(stack=LayerStack(layers=layers), denoise_rate=s.get(SEC_DENOISE, 0.0))


def _build_bimodal(layers, s) -> BimodalAe:
    dim_a, dim_b, a_lo, a_hi, b_lo, b_hi = s[SEC_MODAL]
    return BimodalAe(ae=_build_ae(layers, s), dim_a=dim_a, dim_b=dim_b,
                     scale_a=ModalScale(a_lo, a_hi), scale_b=ModalScale(b_lo, b_hi))


# kind tag -> (name, class, parts(model) -> (layers, {tag: value} in write
# order), build(layers, sections) -> model; an absent optional section
# takes its default)
_KINDS = {
    0: ("stack", LayerStack, lambda m: (m.layers, {}),
        lambda layers, s: LayerStack(layers=layers)),
    1: ("dbn", DbnModel,
        lambda m: (m.recognition + [m.top], {
            SEC_LABEL_DIM: m.label_dim, SEC_GENERATIVE: m.generative_w + m.generative_b,
            SEC_FINE_TUNED: int(m.fine_tuned)}),
        _build_dbn),
    2: ("ae", AeModel, lambda m: (m.stack.layers, {SEC_DENOISE: m.denoise_rate}),
        _build_ae),
    3: ("dbm", DbmModel, _dbm_parts, _build_dbm),
    4: ("bimodal", BimodalAe,
        lambda m: (m.ae.stack.layers, {
            SEC_DENOISE: m.ae.denoise_rate,
            SEC_MODAL: (m.dim_a, m.dim_b, m.scale_a.lo, m.scale_a.hi,
                        m.scale_b.lo, m.scale_b.hi)}),
        _build_bimodal),
}


def save_model(path, model) -> None:
    """Write `model`'s container: the header and every array from its own
    buffer, in file order."""
    kind = next((k for k, entry in _KINDS.items() if isinstance(model, entry[1])), None)
    if kind is None:
        raise FormatError(f"cannot serialize {type(model).__name__}")
    layers, sections = _KINDS[kind][2](model)
    pieces = [MAGIC, struct.pack("<II", VERSION, len(layers))]
    for layer in layers:
        pieces += _pack_layer(layer)
    for tag, value in {SEC_KIND: kind, **sections}.items():
        pieces += _pack_section(tag, value)
    pieces.append(struct.pack("<B", SEC_END))
    with open(path, "wb") as f:
        for piece in pieces:
            f.write(piece)


def load_model(path):
    """The checked model in a container; FormatError, naming the file, when
    the container is malformed, holds a DBN or DBM with a non-SIGMOID layer,
    or its model fails `check()`."""
    name = "model"
    with open(path, "rb") as f:
        r = _Reader(f)
        try:
            if r.take(4) != MAGIC:
                raise FormatError("bad magic")
            version, count = r.unpack("<II")
            if version != VERSION:
                raise FormatError(f"unsupported version {version}")
            layers = [_read_layer(r) for _ in range(count)]
            if not layers:
                raise FormatError("no layers")
            sections = _Sections()
            while (tag := r.unpack("<B")[0]) != SEC_END:
                sections[tag] = r.section(tag)
            kind = sections.get(SEC_KIND, 0)
            if kind not in _KINDS:
                raise FormatError(f"unknown kind {kind}")
            name, _, _, build = _KINDS[kind]
            odd = {l.activation for l in layers} - {ActivationKind.SIGMOID}
            if name in ("dbn", "dbm") and odd:
                raise FormatError(f"a {name} runs SIGMOID units only, not {odd.pop().name}")
            return build(layers, sections).check()
        except (FormatError, ShapeError) as exc:
            raise FormatError(f"{path}: {name} container: {exc}") from None
