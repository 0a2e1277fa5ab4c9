"""Binary checkpoint files for model parameters and optimizer state.

Layout: an 8-byte magic, a little-endian uint32 format version, a
little-endian uint64 header length, a UTF-8 JSON header (model
configuration, ordered tensor names + shapes, optimizer step, free-form
extra dict), then the raw float64 little-endian tensor payloads in header
order.  Optimizer first/second moments are stored as ``m.<name>`` /
``v.<name>`` tensors after the parameters.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .qmodel import ModelConfig, QModelParams, init_qmodel
from .training import AdamWState

MAGIC = b"DACQCKPT"
CKPT_VERSION = 2   # 2: SSM blocks store A_log (A = -exp(A_log)) in place of A


def _payload_order(params: QModelParams, opt: AdamWState | None):
    named = list(params.tensors().items())
    if opt is not None:
        named += [(f"m.{k}", v) for k, v in opt.m.items()]
        named += [(f"v.{k}", v) for k, v in opt.v.items()]
    return named


def save_checkpoint(path, params: QModelParams,
                    opt: AdamWState | None = None,
                    extra: dict | None = None) -> None:
    named = _payload_order(params, opt)
    header = {
        "config": params.config.as_dict(),
        "tensors": [[name, list(arr.shape)] for name, arr in named],
        "opt_step": None if opt is None else int(opt.step),
        "extra": dict(extra or {}),
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<Q", len(hbytes)))
        fh.write(hbytes)
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (params, opt_or_None, extra dict); validates structure."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version, = struct.unpack_from("<I", raw, 8)
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} is not "
                         f"supported; this dacq reads only version "
                         f"{CKPT_VERSION} and does not convert others")
    hlen, = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + hlen].decode("utf-8"))
    config = ModelConfig(**header["config"])
    params = init_qmodel(config, seed=0)

    tensors = {}
    offset = 20 + hlen
    for name, shape in header["tensors"]:
        n = int(np.prod(shape)) if shape else 1
        end = offset + 8 * n
        if end > len(raw):
            raise ValueError(f"{path}: truncated payload at tensor {name}")
        tensors[name] = np.frombuffer(
            raw[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")

    for name, arr in params.tensors().items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name}")
        if tensors[name].shape != arr.shape:
            raise ValueError(f"{path}: tensor {name} has shape "
                             f"{tensors[name].shape}, expected {arr.shape}")
        arr[...] = tensors[name]
    params.bump()

    opt = None
    if header["opt_step"] is not None:
        opt = AdamWState.for_params(params)
        opt.step = int(header["opt_step"])
        for k in opt.m:
            for prefix, store in (("m", opt.m), ("v", opt.v)):
                full = f"{prefix}.{k}"
                if full not in tensors:
                    raise ValueError(f"{path}: missing tensor {full}")
                store[k][...] = tensors[full]
    return params, opt, header["extra"]
