import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dacq import checkpoint, cli, qmodel


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def ds_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "d"
    rc = run(["collect", "--alg", "0", "--mu", "0.5", "--d", "10",
              "--t", "5", "--seed", "1", "--functions", "1,12",
              "--out", str(out)])
    assert rc == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

def test_collect_summary_and_files(ds_dir, capsys):
    assert (ds_dir / "trajectories.jsonl").exists()
    assert (ds_dir / "manifest.json").exists()
    man = json.loads((ds_dir / "manifest.json").read_text())
    assert man["D"] == 10
    assert man["n_exploitation"] == 5 and man["n_exploration"] == 5


def test_collect_missing_out_is_usage_error(capsys):
    rc = run(["collect", "--alg", "0", "--d", "4", "--t", "3"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_collect_bad_mu_is_usage_error(tmp_path, capsys):
    rc = run(["collect", "--mu", "1.5", "--d", "4", "--t", "3",
              "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "mu" in capsys.readouterr().err


def test_collect_rerun_same_flags_identical(ds_dir, tmp_path):
    out2 = tmp_path / "d2"
    rc = run(["collect", "--alg", "0", "--mu", "0.5", "--d", "10",
              "--t", "5", "--seed", "1", "--functions", "1,12",
              "--out", str(out2)])
    assert rc == 0
    for name in ("trajectories.jsonl", "manifest.json"):
        assert (out2 / name).read_bytes() == (ds_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# config file merging
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("mu = 0.2\nd = 5\n# comment\nt = 3\n")
    out1 = tmp_path / "o1"
    rc = run(["collect", "--config", str(cfgfile), "--functions", "1",
              "--seed", "2", "--out", str(out1)])
    assert rc == 0
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["mu"] == 0.2 and man["D"] == 5 and man["T"] == 3

    out2 = tmp_path / "o2"
    rc = run(["collect", "--config", str(cfgfile), "--functions", "1",
              "--seed", "2", "--mu", "0.8", "--out", str(out2)])
    assert rc == 0
    man = json.loads((out2 / "manifest.json").read_text())
    assert man["mu"] == 0.8  # flag wins over file


def test_config_file_json_form(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"d": 4, "t": 3, "functions": [1]}))
    out = tmp_path / "o"
    rc = run(["collect", "--config", str(cfgfile), "--seed", "3",
              "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["D"] == 4


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("learning_rate_max = 1\n")
    rc = run(["collect", "--config", str(cfgfile), "--out",
              str(tmp_path / "o")])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_threads_env_exported(tmp_path, monkeypatch):
    monkeypatch.setenv("DACQ_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run(["verify", "--mdps", "1", "--scan-seeds", "1"])
    assert os.environ["OMP_NUM_THREADS"] == "2"


# prints the thread count of the OpenBLAS numpy loaded, or None
_BLAS_THREADS = """
import ctypes
import dacq.cli
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
count = None
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and count is None:
            fn.restype = ctypes.c_int
            count = int(fn())
print(count)
"""


@pytest.mark.parametrize("dacq_threads, openblas_threads, expected", [
    ("1", None, 1),
    ("1", "2", 2),   # an explicit OPENBLAS_NUM_THREADS wins
])
def test_threads_env_caps_blas_pool(dacq_threads, openblas_threads,
                                    expected):
    # DACQ_THREADS must reach OpenBLAS, which reads its thread variables
    # once, when numpy loads: check the pool of a fresh interpreter
    if expected > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS caps its pool at the number of cores")
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["DACQ_THREADS"] = dacq_threads
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count = proc.stdout.strip()
    if count == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert int(count) == expected


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs(ds_dir, tmp_path):
    out = tmp_path / "run"
    rc = run(["train", "--data", str(ds_dir), "--out", str(out),
              "--epochs", "5", "--batch", "4", "--d-model", "12",
              "--d-state", "4", "--seed", "2"])
    assert rc == 0
    rows = read_csv(out / "loss.csv")
    assert rows[0] == ["epoch", "loss", "bellman_intra", "bellman_td",
                       "conservative"]
    assert len(rows) == 6
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
    params, opt, extra = checkpoint.load_checkpoint(out / "model.ckpt")
    assert extra["epoch"] == 5 and extra["alg_id"] == 0
    assert opt is not None and opt.step > 0


def test_train_resume_continues_epoch_numbering(ds_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["train", "--data", str(ds_dir), "--out", str(out1),
         "--epochs", "3", "--batch", "4", "--d-model", "12",
         "--d-state", "4", "--seed", "2"])
    rc = run(["train", "--data", str(ds_dir), "--out", str(out2),
              "--resume", str(out1 / "model.ckpt"), "--epochs", "2",
              "--batch", "4", "--seed", "2"])
    assert rc == 0
    rows = read_csv(out2 / "loss.csv")
    assert [r[0] for r in rows[1:]] == ["4", "5"]
    _, opt, extra = checkpoint.load_checkpoint(out2 / "model.ckpt")
    assert extra["epoch"] == 5


def test_train_lr_zero_leaves_parameters_at_init(ds_dir, tmp_path):
    out = tmp_path / "run"
    rc = run(["train", "--data", str(ds_dir), "--out", str(out),
              "--epochs", "2", "--batch", "4", "--d-model", "12",
              "--d-state", "4", "--seed", "7", "--lr", "0"])
    assert rc == 0
    params, _, _ = checkpoint.load_checkpoint(out / "model.ckpt")
    fresh = qmodel.init_qmodel(params.config, seed=[7, 0])
    for name, arr in params.tensors().items():
        assert np.array_equal(arr, fresh.tensors()[name]), name


def test_train_missing_data_usage_error(capsys):
    rc = run(["train", "--out", "/tmp/nowhere"])
    assert rc == 2
    assert "--data" in capsys.readouterr().err


def test_train_missing_dataset_dir_runtime_error(tmp_path, capsys):
    rc = run(["train", "--data", str(tmp_path / "missing"),
              "--out", str(tmp_path / "o")])
    assert rc == 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ckpt_path(ds_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run(["train", "--data", str(ds_dir), "--out", str(out),
              "--epochs", "3", "--batch", "4", "--d-model", "12",
              "--d-state", "4", "--seed", "2"])
    assert rc == 0
    return out / "model.ckpt"


def test_eval_rows_and_ranges(ckpt_path, tmp_path):
    out = tmp_path / "ev"
    rc = run(["eval", "--ckpt", str(ckpt_path), "--out", str(out),
              "--t", "5", "--runs", "3", "--test-functions", "15",
              "--seed", "3"])
    assert rc == 0
    rows = read_csv(out / "eval.csv")
    assert rows[0] == ["problem", "run", "perf", "policy"]
    body = rows[1:]
    assert len(body) == 3 * 2  # 3 runs x {model, random}
    for _, _, perf, policy in body:
        assert policy in ("model", "random")
        assert 0.0 <= float(perf) <= 1.0 + 1e-9


def test_eval_rerun_identical_bytes(ckpt_path, tmp_path):
    outs = []
    for d in ("x", "y"):
        out = tmp_path / d
        rc = run(["eval", "--ckpt", str(ckpt_path), "--out", str(out),
                  "--t", "5", "--runs", "2", "--test-functions", "15",
                  "--seed", "3"])
        assert rc == 0
        outs.append((out / "eval.csv").read_bytes())
    assert outs[0] == outs[1]


def test_eval_missing_checkpoint_exit1(tmp_path, capsys):
    rc = run(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
              "--out", str(tmp_path / "o"), "--runs", "1", "--t", "3"])
    assert rc == 1


def test_eval_wrong_alg_mismatch_exit1(ckpt_path, tmp_path, capsys):
    rc = run(["eval", "--ckpt", str(ckpt_path), "--out",
              str(tmp_path / "o"), "--t", "3", "--runs", "1",
              "--alg", "1", "--test-functions", "15"])
    assert rc == 1
    assert "K=3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_report_shapes(ds_dir, tmp_path):
    out = tmp_path / "ab"
    rc = run(["ablate", "--data", str(ds_dir), "--out", str(out),
              "--epochs", "2", "--batch", "4", "--d-model", "12",
              "--d-state", "4", "--runs", "2", "--t", "5",
              "--test-functions", "15", "--seed", "4"])
    assert rc == 0
    grid = read_csv(out / "ablate_lambda_beta.csv")
    assert grid[0] == ["lam", "beta", "mean_perf", "std_perf"]
    assert len(grid) == 1 + 6
    cells = {(float(r[0]), float(r[1])) for r in grid[1:]}
    assert cells == {(l, b) for l in (0.0, 1.0, 10.0) for b in (1.0, 10.0)}

    mu = read_csv(out / "ablate_mu.csv")
    assert len(mu) == 1 + 5
    assert [float(r[0]) for r in mu[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    bins = read_csv(out / "ablate_bins.csv")
    assert len(bins) == 1 + 2
    assert [int(r[0]) for r in bins[1:]] == [16, 32]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_build_passes(capsys):
    rc = run(["verify", "--mdps", "10", "--scan-seeds", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 4


def test_verify_injected_gradient_sign_error_fails(monkeypatch, capsys):
    true_backward = qmodel.model_backward

    def flipped(cache, grad_Q):
        grads = true_backward(cache, grad_Q)
        return {k: -v for k, v in grads.items()}

    monkeypatch.setattr(qmodel, "model_backward", flipped)
    rc = run(["verify", "--mdps", "2", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  grad_check" in out


def test_verify_overtight_decomposition_tolerance_fails(capsys):
    rc = run(["verify", "--mdps", "10", "--scan-seeds", "1",
              "--tol-decomp", "1e-16", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  decomposition" in out


def test_verify_report_csv(tmp_path):
    out = tmp_path / "v"
    rc = run(["verify", "--mdps", "3", "--scan-seeds", "1",
              "--out", str(out), "--seed", "0"])
    assert rc == 0
    rows = read_csv(out / "verify.csv")
    assert rows[0] == ["check", "status", "metric"]
    assert all(r[1] == "PASS" for r in rows[1:])
