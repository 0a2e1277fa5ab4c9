import json
import struct

import numpy as np
import pytest

from dacq import checkpoint, qmodel, training


def make_params(seed=0):
    cfg = qmodel.ModelConfig(K=3, M=16, d_model=10, d_state=4, depth=2)
    params = qmodel.init_qmodel(cfg, seed)
    return params


def save(path, params):
    """Save params with fresh AdamW moments; every checkpoint holds them."""
    checkpoint.save_checkpoint(path, params,
                               training.AdamWState.for_params(params))


def test_round_trip_bit_exact(tmp_path):
    params = make_params(1)
    path = tmp_path / "m.ckpt"
    save(path, params)
    back, opt, extra = checkpoint.load_checkpoint(path)
    assert opt.step == 0 and extra == {}
    assert all(not a.any() for a in [*opt.m.values(), *opt.v.values()])
    assert back.config == params.config
    for name, arr in params.tensors().items():
        assert np.array_equal(arr, back.tensors()[name]), name


def test_round_trip_with_optimizer_and_extra(tmp_path):
    params = make_params(2)
    opt = training.AdamWState.for_params(params)
    rng = np.random.default_rng(0)
    for k in opt.m:
        opt.m[k][...] = rng.standard_normal(opt.m[k].shape)
        opt.v[k][...] = rng.random(opt.v[k].shape)
    opt.step = 17
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, opt=opt,
                               extra={"epoch": 9, "alg_id": 0})
    back, opt2, extra = checkpoint.load_checkpoint(path)
    assert extra == {"epoch": 9, "alg_id": 0}
    assert opt2.step == 17
    for k in opt.m:
        assert np.array_equal(opt.m[k], opt2.m[k])
        assert np.array_equal(opt.v[k], opt2.v[k])


def test_loaded_model_produces_identical_outputs(tmp_path):
    params = make_params(3)
    path = tmp_path / "m.ckpt"
    save(path, params)
    back, _, _ = checkpoint.load_checkpoint(path)
    rng = np.random.default_rng(5)
    states = rng.standard_normal((4, 9))
    actions = rng.integers(0, 16, (4, 3))
    Q1, _ = qmodel.q_values_batch(params, states, actions)
    Q2, _ = qmodel.q_values_batch(back, states, actions)
    assert np.array_equal(Q1, Q2)


def test_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError, match="not a checkpoint"):
        checkpoint.load_checkpoint(path)


def test_writes_current_version_and_a_log(tmp_path):
    path = tmp_path / "m.ckpt"
    save(path, make_params(4))
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, 8) == (checkpoint.CKPT_VERSION,)
    assert checkpoint.CKPT_VERSION == 2
    assert b'"blocks.0.A_log"' in raw and b'"blocks.0.A"' not in raw


# 1 is the format that stored SSM A itself; it is rejected, not converted
@pytest.mark.parametrize("version", [1, 99])
def test_rejects_version_mismatch(tmp_path, version):
    params = make_params(4)
    path = tmp_path / "m.ckpt"
    save(path, params)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"checkpoint version {version} is "
                       f"not supported.*reads only version 2"):
        checkpoint.load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    params = make_params(5)
    path = tmp_path / "m.ckpt"
    save(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        checkpoint.load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    params = make_params(6)
    path = tmp_path / "m.ckpt"
    save(path, params)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        checkpoint.load_checkpoint(path)


def rewrite_header(path, edit, extra_payload=b""):
    """Pass the JSON header of the checkpoint at path through edit and
    append extra_payload to its tensor bytes."""
    raw = path.read_bytes()
    hlen, = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode()
    path.write_bytes(raw[:12] + struct.pack("<Q", len(hbytes)) + hbytes
                     + raw[20 + hlen:] + extra_payload)


def assert_rejected(path, message):
    with pytest.raises(ValueError) as exc:
        checkpoint.load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: {message}"), exc.value


def test_rejects_file_shorter_than_fixed_header(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<I", 2) + b"\x00")
    assert_rejected(path, "truncated header (13 bytes)")


def test_rejects_unreadable_header(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<IQ", 2, 64) + b"{")
    assert_rejected(path, "unreadable header")


_PAIRS = "bad header: field 'tensors' must be a list of [name, shape] pairs"


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("config"), "bad header: missing field 'config'"),
    (lambda h: h.update(extra=[]),
     "bad header: field 'extra' must be an object, got []"),
    (lambda h: h.update(opt_step="3"),
     "bad header: field 'opt_step' must be an integer, got '3'"),
    (lambda h: h.update(opt_step=True),
     "bad header: field 'opt_step' must be an integer, got True"),
    (lambda h: h.update(opt_step=None),
     "bad header: field 'opt_step' must be an integer, got None"),
    (lambda h: h.update(tensors=5), f"{_PAIRS}, got 5"),
    (lambda h: h["tensors"][0].__setitem__(1, "x"), f"{_PAIRS}, got [["),
    (lambda h: h["tensors"][0].pop(), f"{_PAIRS}, got [["),
    (lambda h: h["config"].update(M=16.0),
     "bad model config: field 'M' must be an integer, got 16.0"),
    (lambda h: h["config"].update(K=True),
     "bad model config: field 'K' must be an integer, got True"),
    (lambda h: h["config"].pop("depth"),
     "bad model config: missing field 'depth'"),
], ids=["no config", "extra list", "opt_step string", "opt_step true",
        "opt_step null", "tensors int", "shape string", "no shape",
        "config M float", "config K true", "config no depth"])
def test_rejects_malformed_header_field(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save(path, make_params(7))
    rewrite_header(path, edit)
    assert_rejected(path, message)


def test_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "m.ckpt"
    save(path, make_params(8))
    rewrite_header(path, lambda h: h["config"].update(width=3))
    assert_rejected(path, "bad model config: ")
    with pytest.raises(ValueError, match="width"):
        checkpoint.load_checkpoint(path)


def test_rejects_tensor_the_config_does_not_define(tmp_path):
    # the depth-2 config has blocks 0 and 1, so a third block's tensor,
    # after the parameters and both moments, belongs to no parameter
    path = tmp_path / "m.ckpt"
    params = make_params(9)
    save(path, params)
    rewrite_header(path, lambda h: h["tensors"].append(["blocks.2.b_in",
                                                        [2]]),
                   extra_payload=bytes(16))
    n = 3 * len(params.tensors())
    assert_rejected(path, f"header tensor {n} is ['blocks.2.b_in', [2]], "
                          f"expected None")


def test_rejects_optimizer_moment_of_wrong_shape(tmp_path):
    # a moment must have its parameter's shape, not one that broadcasts
    # to it
    params = make_params(10)
    opt = training.AdamWState.for_params(params)
    opt.m["b_embed"] = np.full(1, 7.0)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, opt=opt)
    n = list(params.tensors()).index("b_embed") + len(params.tensors())
    assert_rejected(path, f"header tensor {n} is ['m.b_embed', [1]], "
                          f"expected ['m.b_embed', [10]]")


def test_rejects_tensors_listed_in_another_order(tmp_path):
    # the right tensors with the right payload bytes, but the header lists
    # the first two parameters swapped: the layout is save_checkpoint's
    # order, nothing else
    path = tmp_path / "m.ckpt"
    params = make_params(11)
    save(path, params)
    first, second = [[name, list(arr.shape)]
                     for name, arr in list(params.tensors().items())[:2]]

    def swap(header):
        tensors = header["tensors"]
        tensors[0], tensors[1] = tensors[1], tensors[0]

    rewrite_header(path, swap)
    assert_rejected(path, f"header tensor 0 is {second}, expected {first}")


def test_saves_moments_in_the_parameters_order(tmp_path):
    # moment dicts built in another key order still save the one layout
    params = make_params(12)
    opt = training.AdamWState.for_params(params)
    opt.step = 3
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_checkpoint(a, params, opt=opt)
    opt.m = dict(reversed(opt.m.items()))
    opt.v = dict(reversed(opt.v.items()))
    checkpoint.save_checkpoint(b, params, opt=opt)
    assert a.read_bytes() == b.read_bytes()
    checkpoint.load_checkpoint(b)
