import struct

import numpy as np
import pytest

from dacq import checkpoint, qmodel, training


def make_params(seed=0):
    cfg = qmodel.ModelConfig(K=3, M=16, d_model=10, d_state=4, depth=2)
    params = qmodel.init_qmodel(cfg, seed)
    return params


def test_round_trip_bit_exact(tmp_path):
    params = make_params(1)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params)
    back, opt, extra = checkpoint.load_checkpoint(path)
    assert opt is None and extra == {}
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
    checkpoint.save_checkpoint(path, params)
    back, _, _ = checkpoint.load_checkpoint(path)
    rng = np.random.default_rng(5)
    states = rng.standard_normal((2, 4, 9))
    actions = rng.integers(0, 16, (2, 4, 3))
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
    checkpoint.save_checkpoint(path, make_params(4))
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, 8) == (checkpoint.CKPT_VERSION,)
    assert checkpoint.CKPT_VERSION == 2
    assert b'"blocks.0.A_log"' in raw and b'"blocks.0.A"' not in raw


# 1 is the format that stored SSM A itself; it is rejected, not converted
@pytest.mark.parametrize("version", [1, 99])
def test_rejects_version_mismatch(tmp_path, version):
    params = make_params(4)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"checkpoint version {version} is "
                       f"not supported.*reads only version 2"):
        checkpoint.load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    params = make_params(5)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        checkpoint.load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    params = make_params(6)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        checkpoint.load_checkpoint(path)
