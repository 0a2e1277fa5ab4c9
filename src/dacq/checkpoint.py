"""Binary checkpoint files for model parameters and optimizer state.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a UTF-8 JSON header (model
configuration, ordered tensor names + shapes, optimizer step, free-form
extra dict), then the raw float64 little-endian tensor payloads in header
order.  Every checkpoint holds the AdamW first/second moments, stored as
``m.<name>`` / ``v.<name>`` tensors after the parameters, in their order:
the one layout ``load_checkpoint`` reads.  Round trips are bit-exact.
Each field of the header (``_Header``) and of its model config
(``ModelConfig``) is checked against its declared type by
``datasets.read_record``, the rule for every stored record.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datasets import read_record
from .qmodel import ModelConfig, QModelParams, init_qmodel
from .training import AdamWState

MAGIC = b"DACQCKPT"
CKPT_VERSION = 2   # 2: SSM blocks store A_log (A = -exp(A_log)) in place of A

#: magic, uint32 version and uint64 header length
_FIXED_HEADER = 20


@dataclass
class _Header:
    config: dict        # a ModelConfig, read the same way
    tensors: list[tuple[str, list[int]]]
    opt_step: int
    extra: dict


def _payload_order(params: QModelParams, opt: AdamWState):
    """(name, array) of every stored tensor, in file order."""
    return (list(params.tensors().items())
            + [(f"m.{k}", opt.m[k]) for k in params.tensors()]
            + [(f"v.{k}", opt.v[k]) for k in params.tensors()])


def save_checkpoint(path, params: QModelParams, opt: AdamWState,
                    extra: dict | None = None) -> None:
    named = _payload_order(params, opt)
    header = _Header(
        config=asdict(params.config),
        tensors=[[name, list(arr.shape)] for name, arr in named],
        opt_step=int(opt.step), extra=extra or {})
    hbytes = json.dumps(asdict(header), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (params, opt, extra dict).  A file that is not a
    whole checkpoint of this version in ``save_checkpoint``'s layout for
    its model config raises a ValueError naming it."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(raw) < _FIXED_HEADER:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    version, hlen = struct.unpack_from("<IQ", raw, 8)
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} is not "
                         f"supported; this dacq reads only version "
                         f"{CKPT_VERSION} and does not convert others")
    try:
        obj = json.loads(
            raw[_FIXED_HEADER:_FIXED_HEADER + hlen].decode("utf-8"))
    except ValueError as exc:   # also UnicodeDecodeError
        raise ValueError(f"{path}: unreadable header: {exc}") from None
    try:
        header = read_record(_Header, obj, "header")
        config = read_record(ModelConfig, header.config, "model config")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        params = init_qmodel(config, seed=0)
    except ValueError as exc:
        raise ValueError(f"{path}: bad model config: {exc}") from None
    opt = AdamWState.for_params(params)
    opt.step = header.opt_step
    named = _payload_order(params, opt)
    want = [[name, list(arr.shape)] for name, arr in named]
    if header.tensors != want:
        i, got, exp = next((i, g, w) for i, (g, w) in enumerate(
            itertools.zip_longest(header.tensors, want)) if g != w)
        raise ValueError(f"{path}: header tensor {i} is {got}, expected "
                         f"{exp}")
    offset = _FIXED_HEADER + hlen
    body, size = len(raw) - offset, 8 * sum(arr.size for _, arr in named)
    if body < size:
        raise ValueError(f"{path}: truncated payload ({body} of {size} "
                         f"bytes)")
    if body > size:
        raise ValueError(f"{path}: {body - size} trailing bytes")
    payload = np.frombuffer(raw, dtype="<f8", offset=offset)
    for _, arr in named:
        arr[...] = payload[:arr.size].reshape(arr.shape)
        payload = payload[arr.size:]
    params.bump()
    return params, opt, header.extra
