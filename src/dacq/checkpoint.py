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

#: magic, uint32 version and uint64 header length
_FIXED_HEADER = 20


def _tensor_list(v) -> bool:
    """A list of [name, shape] pairs, each shape a list of sizes >= 0."""
    return isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
        and isinstance(e[1], list)
        and all(isinstance(n, int) and n >= 0 for n in e[1]) for e in v)


#: JSON header key -> (test of its value, wording)
_HEADER_FIELDS = {
    "config": (lambda v: isinstance(v, dict), "an object"),
    "tensors": (_tensor_list, "a list of [name, shape] pairs"),
    "opt_step": (lambda v: v is None or isinstance(v, int),
                 "an integer or null"),
    "extra": (lambda v: isinstance(v, dict), "an object"),
}


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
    """Returns (params, opt_or_None, extra dict).  A file that is not a
    whole checkpoint of this version, or whose header or tensors do not
    fit its model config, raises a ValueError naming it."""
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
        header = json.loads(
            raw[_FIXED_HEADER:_FIXED_HEADER + hlen].decode("utf-8"))
    except ValueError as exc:   # also UnicodeDecodeError
        raise ValueError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key, (ok, wording) in _HEADER_FIELDS.items():
        if key not in header:
            raise ValueError(f"{path}: header lacks {key}")
        if not ok(header[key]):
            raise ValueError(f"{path}: header field {key} must be {wording}")
    try:
        params = init_qmodel(ModelConfig(**header["config"]), seed=0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model config "
                         f"{header['config']!r}: {exc}") from None
    # every tensor the file must hold -> the array it is read into
    targets = dict(params.tensors())
    opt = None
    if header["opt_step"] is not None:
        opt = AdamWState.for_params(params)
        opt.step = int(header["opt_step"])
        for prefix, store in (("m", opt.m), ("v", opt.v)):
            targets.update((f"{prefix}.{k}", v) for k, v in store.items())

    tensors = {}
    offset = _FIXED_HEADER + hlen
    for name, shape in header["tensors"]:
        if name not in targets:
            raise ValueError(f"{path}: tensor {name} is not defined by the "
                             f"model config")
        n = int(np.prod(shape)) if shape else 1
        end = offset + 8 * n
        if end > len(raw):
            raise ValueError(f"{path}: truncated payload at tensor {name}")
        tensors[name] = np.frombuffer(
            raw[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")

    for name, arr in targets.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name}")
        if tensors[name].shape != arr.shape:
            raise ValueError(f"{path}: tensor {name} has shape "
                             f"{tensors[name].shape}, expected {arr.shape}")
        arr[...] = tensors[name]
    params.bump()
    return params, opt, header["extra"]
