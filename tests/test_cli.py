import argparse
import csv
import dataclasses
import inspect
import itertools
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dacq import checkpoint, cli, datasets, env, problems, qmodel, rollouts, \
    ssm, training


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
# flag table
# ---------------------------------------------------------------------------

def _subparsers():
    """command -> its argparse subparser."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _action(name):
    """The argparse action of flag ``name`` (the same in every command)."""
    return next(a for sp in _subparsers().values() for a in sp._actions
                if a.dest == name)


def test_flag_table_matches_parser():
    used = set(cli._SHARED).union(*(names for _, _, names, _
                                     in cli.COMMANDS.values()))
    assert used == set(cli.FLAGS)
    assert list(_subparsers()) == list(cli.COMMANDS)
    for command, sp in _subparsers().items():
        _, _, names, required = cli.COMMANDS[command]
        flags = [(a.option_strings, a.dest, a.required) for a in sp._actions
                 if a.dest != "help"]
        assert flags == [(["--" + n.replace("_", "-")], n, n in required)
                         for n in cli._SHARED + names]
        # no argparse default, so resolve_config sees which flags were given
        assert all(a.default is None for a in sp._actions
                   if a.dest != "help")
    assert {c: row[3] for c, row in cli.COMMANDS.items()} == {
        "collect": ("out",), "train": ("out", "data"),
        "eval": ("out", "ckpt"), "ablate": ("out", "data"), "verify": ()}


@pytest.mark.parametrize("profile", cli.PROFILES)
def test_every_default_meets_its_rule(profile):
    for name, value in cli.defaults(profile).items():
        row = cli.FLAGS[name]
        if isinstance(row.get("default"), dict):
            assert set(row["default"]) == set(cli.PROFILES), name
        if value is not None:
            # the default is what its flag's text would parse to, through
            # the argparse type and choices its flag has
            action = _action(name)
            parsed = action.type(str(value))
            assert parsed == value and type(parsed) is type(value), name
            assert action.choices is None or value in action.choices, name


def _required_argv(command, tmp_path):
    """``--out`` and the other flags command requires, each naming a path
    under tmp_path."""
    return [f"--{name}={tmp_path / name}"
            for name in dict.fromkeys(("out", *cli.COMMANDS[command][3]))]


#: (flag, a command that has it, bound key, bound) of every bound in FLAGS
BOUNDS = [(name, next(c for c, row in cli.COMMANDS.items()
                      if name in cli._SHARED + row[2]), key, row[key])
          for name, row in cli.FLAGS.items()
          for key in ("lo", "gt", "hi") if key in row]


@pytest.mark.parametrize("name, command, key, bound", BOUNDS,
                         ids=[f"{n}-{k}" for n, _, k, _ in BOUNDS])
def test_bound_is_argparse_usage_error(name, command, key, bound, tmp_path,
                                      capsys):
    flag = "--" + name.replace("_", "-")
    required = _required_argv(command, tmp_path)
    if key != "gt":
        # an inclusive bound is itself a value its flag takes
        args = cli.build_parser().parse_args(
            [command, f"{flag}={bound}", *required])
        assert getattr(args, name) == bound
    # the nearest value outside the bound
    convert = cli.FLAGS[name]["type"]
    if key == "gt":
        outside = convert(bound)
    elif convert is int:
        outside = bound - 1 if key == "lo" else bound + 1
    else:
        outside = math.nextafter(bound, -math.inf if key == "lo" else math.inf)
    wording = {"lo": ">=", "gt": ">", "hi": "<="}[key]
    err = _exits_2([command, f"{flag}={outside!r}", *required], capsys)
    assert err.startswith(f"usage: dacq {command} ")
    assert f"error: argument {flag}: must be {wording} {bound}, " \
           f"got {outside!r}\n" in err
    assert not (tmp_path / "out").exists()


def test_paper_defaults_are_the_library_defaults():
    # the paper profile's defaults and the library's are declared apart:
    # each pair must agree
    paper = cli.defaults("paper")

    def declared(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    loss, model = declared(training.LossConfig), declared(qmodel.ModelConfig)
    collect = {name: p.default for name, p
               in inspect.signature(datasets.collect).parameters.items()}
    library = {
        "beta": loss["beta"], "lam": loss["lam"], "gamma": loss["gamma"],
        "lr": loss["learning_rate"], "wd": loss["weight_decay"],
        "batch": loss["batch_size"], "epochs": loss["epochs"],
        "d_model": model["d_model"], "d_state": model["d_state"],
        "depth": model["depth"], "bins": env.DEFAULT_BINS,
        "instance_seed": collect["instance_seed"]}
    assert {name: paper[name] for name in library} == library


def test_readme_commands_parse_and_resolve():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").replace("\\\n", " ")
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip().startswith("dacq ")]
    assert len(lines) >= 5
    for line in lines:
        args = cli.build_parser().parse_args(
            shlex.split(line, comments=True)[1:])
        cfg = cli.resolve_config(args)
        given = {k: v for k, v in vars(args).items() if v is not None}
        assert given.keys() > {"command"}, line
        assert all(getattr(cfg, k) == v for k, v in given.items()), line


def _workflow_unknown_flags(text):
    """(command, flag) of each flag in text's dacq invocations that is not
    one of its command's flags, an unknown command as (command, None);
    and the commands invoked."""
    unknown, invoked = [], set()
    for line in text.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        for i, word in enumerate(words[:-1]):
            if word != "dacq":
                continue
            command = words[i + 1]
            invoked.add(command)
            if command not in cli.COMMANDS:
                unknown.append((command, None))
                continue
            names = cli._SHARED + cli.COMMANDS[command][2]
            flags = {"--" + n.replace("_", "-") for n in names}
            unknown += [(command, w) for w in words[i + 2:]
                        if w.startswith("--") and w not in flags]
    return unknown, invoked


def test_workflow_calls_only_real_commands_and_flags():
    # the CI workflow runs dacq commands a deleted flag would break: read
    # as text (no YAML parser in the test extra), \-continued lines joined
    text = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tier1.yml").read_text(encoding="utf-8")
    assert _workflow_unknown_flags(text) == ([], set(cli.COMMANDS))
    planted = text.replace("dacq collect", "dacq collect --calibration 10", 1)
    assert _workflow_unknown_flags(planted)[0] == [("collect",
                                                    "--calibration")]


def _run_blocks(text):
    """The shell text of each ``run:`` step in a workflow's text: the
    rest of a one-line ``run:``, or the lines indented under ``run: |``."""
    blocks, lines = [], text.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"(\s*(?:- )?)run:\s*(.*)$", line)
        if m is None:
            continue
        if m[2] != "|":
            blocks.append(m[2])
            continue
        indent = " " * (len(m[1]) + 2)
        body = itertools.takewhile(
            lambda ln: not ln.strip() or ln.startswith(indent), lines[i + 1:])
        blocks.append("".join(ln[len(indent):] + "\n" for ln in body))
    return blocks


def test_workflow_run_blocks_are_valid_bash():
    # the workflow has not been seen to run: each step's shell must at
    # least parse
    text = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tier1.yml").read_text(encoding="utf-8")
    blocks = _run_blocks(text)
    assert len(blocks) == text.count("run:")
    assert any("dacq collect" in b for b in blocks)

    def bash_n(block):
        return subprocess.run(["bash", "-n"], input=block, text=True,
                              capture_output=True).returncode

    assert [bash_n(b) for b in blocks] == [0] * len(blocks)
    planted = _run_blocks(text.replace("done\n", "\n", 1))
    assert [bash_n(b) for b in planted] != [0] * len(blocks)


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
    err = _exits_2(["collect", "--alg", "0", "--d", "4", "--t", "3"], capsys)
    assert err.startswith("usage: dacq collect ")
    assert "error: the following arguments are required: --out\n" in err


def test_collect_bad_mu_is_usage_error(tmp_path, capsys):
    err = _exits_2(["collect", "--mu", "1.5", "--d", "4", "--t", "3",
                    "--out", str(tmp_path / "x")], capsys)
    assert "error: argument --mu: must be <= 1, got 1.5\n" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--seed", "--instance-seed"])
def test_collect_negative_seed_is_usage_error(flag, tmp_path, capsys):
    out = tmp_path / "o"
    err = _exits_2(["collect", "--d", "4", "--t", "3", flag, "-1",
                    "--out", str(out)], capsys)
    assert f"error: argument {flag}: must be >= 0, got -1\n" in err
    assert not out.exists()


def test_failed_collect_leaves_no_out_dir(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("no episode ran")

    monkeypatch.setattr(env, "pmap", fail)
    out = tmp_path / "o"
    assert run(["collect", "--d", "4", "--t", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no episode ran\n"
    assert not out.exists()


def test_collect_rerun_same_flags_identical(ds_dir, tmp_path):
    out2 = tmp_path / "d2"
    rc = run(["collect", "--alg", "0", "--mu", "0.5", "--d", "10",
              "--t", "5", "--seed", "1", "--functions", "1,12",
              "--out", str(out2)])
    assert rc == 0
    for name in ("trajectories.jsonl", "manifest.json"):
        assert (out2 / name).read_bytes() == (ds_dir / name).read_bytes()


def test_collect_reports_state_maxima_and_names_unbounded_functions(
        ds_dir, tmp_path, capsys):
    # s4-s6 are not bounded: this run reaches s4 1.3e3 and s6 2.4e3 on
    # f12, s4 67 on f1
    out = tmp_path / "d"
    rc = run(["collect", "--alg", "0", "--d", "10", "--t", "5",
              "--functions", "1,12", "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 0
    line = next(ln for ln in err.splitlines() if ln.startswith("state max: "))
    words = line.removeprefix("state max: ").split()
    maxima = dict(zip(words[::2], map(float, words[1::2])))
    assert list(maxima) == [f"s{i}" for i in range(1, 10)]
    assert 1328 < maxima["s4"] < 1329 and 2353 < maxima["s6"] < 2354
    warnings = [ln for ln in err.splitlines() if ln.startswith("warning: ")]
    assert len(warnings) == 1
    assert " f12 (" in warnings[0] and " f1 (" not in warnings[0]
    # the report goes to stderr only: the files are the fixture's bytes
    for name in ("trajectories.jsonl", "manifest.json"):
        assert (out / name).read_bytes() == (ds_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# @FILE arguments
# ---------------------------------------------------------------------------

def _args_file(path, *lines):
    """The argument @path, after writing lines to path one per line."""
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def _exits_2(argv, capsys):
    """stderr of run(argv), which must exit 2 from argparse."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    # an @FILE stands for its lines, one argument each: the later value of
    # a flag wins, so a flag after the file overrides it, one before not
    args = _args_file(tmp_path / "c.args", "--mu=0.2", "--d=5", "--t=3")
    for name, argv, mu in (("o1", [args], 0.2),
                           ("o2", [args, "--mu", "0.8"], 0.8),
                           ("o3", ["--mu", "0.8", args], 0.2)):
        out = tmp_path / name
        assert run(["collect", *argv, "--functions", "1", "--seed", "2",
                    "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert (man["mu"], man["D"], man["T"]) == (mu, 5, 3), name


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    # "command" is an attribute of the resolved config but not a flag
    for flag in ("--learning-rate-max", "--command"):
        args = _args_file(tmp_path / "c.args", f"{flag}=1")
        err = _exits_2(["collect", args, "--out", str(tmp_path / "o")],
                       capsys)
        assert f"unrecognized arguments: {flag}=1" in err
        assert not (tmp_path / "o").exists()


def test_missing_args_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "none.args"
    err = _exits_2(["collect", f"@{missing}", "--out", str(tmp_path / "o")],
                   capsys)
    assert "No such file or directory" in err and str(missing) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key, value", [
    ("eval", "alg", "1"), ("eval", "policy", "filtered_random"),
    ("eval", "epochs", "7"), ("ablate", "policy", "filtered_random")])
def test_config_key_of_another_command_is_usage_error(tmp_path, capsys,
                                                      command, key, value):
    # a setting the command does not read is named, not ignored
    args = _args_file(tmp_path / "c.args", f"--{key}={value}")
    err = _exits_2([command, args, *_required_argv(command, tmp_path)],
                   capsys)
    assert f"error: unrecognized arguments: --{key}={value}\n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["--mu=abc", "--d=4.5", "--seed=x",
                                  "--functions=3,3"])
def test_bad_value_in_file_is_usage_error(tmp_path, capsys, line):
    # a file's value goes through its flag's type, as the flag's text
    # does; the bounds check keeps the converter's name in the message
    message = {"--mu=abc": "invalid float value: 'abc'",
               "--d=4.5": "invalid int value: '4.5'",
               "--seed=x": "invalid int value: 'x'",
               "--functions=3,3": "expected distinct comma-separated ids in "
                                  "1..24, got '3,3'"}[line]
    args = _args_file(tmp_path / "c.args", line)
    err = _exits_2(["collect", args, "--out", str(tmp_path / "o")], capsys)
    assert err.startswith("usage: dacq collect ")
    assert f"error: argument {line.split('=')[0]}: {message}\n" in err
    assert not (tmp_path / "o").exists()


def test_profile_in_file_gives_its_defaults(tmp_path):
    args = _args_file(tmp_path / "c.args", "--profile=paper")
    required = _required_argv("train", tmp_path)
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["train", args, *required]))
    assert (cfg.profile, cfg.epochs, cfg.d_model) == ("paper", 300, 64)
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["train", args, "--epochs", "5", *required]))
    assert (cfg.epochs, cfg.d_model) == (5, 64)


def test_blank_lines_in_file_are_skipped(tmp_path):
    # a blank or whitespace-only line stands for no argument
    args = _args_file(tmp_path / "c.args", "--mu=0.2", "", "  \t", "--d=5",
                      "")
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["collect", args, "--out", str(tmp_path / "o")]))
    assert (cfg.mu, cfg.d) == (0.2, 5)


@pytest.mark.parametrize("argv", [
    ["collect", "--functions", "1,1"],
    ["eval", "--ckpt", "none.ckpt", "--test-functions", "17,17"],
])
def test_repeated_function_ids_are_usage_error(argv, tmp_path, capsys,
                                               monkeypatch):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(env, "pmap", no_episodes)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: expected distinct " \
           f"comma-separated ids in 1..24, got {argv[-1]!r}" in err
    assert "invalid" not in err


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


def _child_env():
    """The environment of a fresh interpreter that imports this checkout's
    dacq, without thread caps."""
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


_ENVIRON_CHANGES = """
import os
before = set(os.environ.items())
import dacq.cli
print(sorted(before ^ set(os.environ.items())))
"""


def test_import_leaves_the_environment_as_set():
    # BLAS thread pools are capped by their own variables, such as
    # OMP_NUM_THREADS, alone: importing dacq writes no variable, and the
    # old DACQ_THREADS is not copied to them
    env = {**_child_env(), "DACQ_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _ENVIRON_CHANGES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_COLLECT_TRAIN = """
import hashlib
from dacq import datasets, problems, qmodel, training
split = problems.ProblemSplit((1, 12), (), {1: 20, 12: 20})
trajs, manifest = datasets.collect(
    2, split, ("scripted_de_schedule", "random"), mu=0.5, D=2, T=3, seed=1,
    workers=1)
params = qmodel.init_qmodel(
    qmodel.ModelConfig(K=16, M=16, d_model=16, d_state=4), seed=[1, 0])
params, _ = training.train(
    trajs, params, training.LossConfig(K=16, M=16, batch_size=2, epochs=1),
    seed=[1, 1], workers=1)
digest = hashlib.sha256()
for name, arr in sorted(params.tensors().items()):
    digest.update(name.encode() + arr.tobytes())
print(manifest.checksum, digest.hexdigest())
"""


def test_bytes_do_not_depend_on_blas_threads():
    # a BLAS kernel gives different bits at different thread counts for
    # some shapes, so a path that decides dataset or checkpoint bytes
    # must not call one: an alg-2 collect at dim 20 (s1 over 500 rows)
    # and a one-epoch train in fresh interpreters, 1 and 2 BLAS threads
    env = _child_env()
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _COLLECT_TRAIN],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    assert len(outs[0]) == 2 and outs[0] == outs[1], outs


# prints the BLAS thread count, then one line per weight gradient over
# time: d_model, name and sha256 of its bytes
_WEIGHT_GRADS = _BLAS_THREADS + """
import hashlib
import numpy as np
from dacq import qmodel, ssm
for d_model in (64, 128):
    rng = np.random.default_rng(d_model)
    params = qmodel.init_qmodel(qmodel.ModelConfig(K=3, d_model=d_model),
                                seed=d_model)
    xs = rng.normal(size=(1200, d_model))
    _, _, cache = ssm.ssm_forward_sequential(params.blocks[0], None, xs)
    grads, _, _ = ssm.ssm_backward(cache, rng.normal(size=xs.shape))
    _, cache = qmodel.q_values_batch(params, rng.normal(size=(400, 9)),
                                     rng.integers(0, 16, size=(400, 3)))
    grads.update(qmodel.model_backward(cache,
                                       rng.normal(size=(400, 3, 16))))
    for name in ("W_out", "W_delta", "W_in", "W_B", "W_C", "W_head",
                 "W_proj", "W_embed", "blocks.0.W_in"):
        print(d_model, name, hashlib.sha256(grads[name].tobytes()).hexdigest())
"""


def test_weight_gradients_do_not_depend_on_blas_threads():
    # the weight gradients over time sum fixed row blocks, each small
    # enough for OpenBLAS to run on one thread; one product over all 1200
    # steps gives other bits at 2 threads.  d_model 64 and 128 (blocks of
    # 64 and 16 rows for W_in), SSM and whole-model backward, fresh
    # interpreters at 1 and 2 BLAS threads
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its pool at the number of cores")
    env = _child_env()
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _WEIGHT_GRADS],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        count, *lines = proc.stdout.splitlines()
        if count == "None":
            pytest.skip("numpy is not linked against OpenBLAS")
        assert int(count) == int(threads)
        outs.append(lines)
    assert len(outs[0]) == 18
    assert [a for a, b in zip(*outs) if a != b] == []


# prints the BLAS thread count, then one line per population: its shape,
# s1 as a hex float and the sha256 of every Gram plane product, in order
_S1_VALUES = _BLAS_THREADS + """
import hashlib
import numpy as np
from dacq import env, ssm

class SpyNumPy:
    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out):
        np.matmul(a, b, out=out)
        products.update(out.tobytes())
        return out

env.np = SpyNumPy()
wide = ssm.BLAS_BLOCK_ELEMENTS // 50 + 2
for n, dim, dup in ((100, 5, 0), (500, 20, 0), (2000, 20, 0), (300, 50, 0),
                    (500, 20, 1), (wide, 50, 0)):
    rng = np.random.default_rng([dim, n, 17])
    X = rng.uniform(-5, 5, (n, dim))
    if dup:
        q = n // 4
        X[:q] = X[q:2 * q]
        X[2 * q:3 * q] = X[3 * q:] + 1e-12 * rng.standard_normal((q, dim))
        X = X[rng.permutation(n)]
    products = hashlib.sha256()
    s1 = env._mean_pairwise_distance(X)
    print(n, dim, dup, s1.hex(), products.hexdigest())
"""


def test_s1_does_not_depend_on_blas_threads():
    # each s1 block's Gram plane is one BLAS product small enough for
    # OpenBLAS to run on one thread; one product over all pairs gives
    # other bits at 2 threads in a few plane entries, which the mean over
    # 10**5 pairs mostly rounds away, so the products' bytes are compared
    # too.  The duplicate-rows population runs the guard; at the widest,
    # 5244 x 50, the first blocks are single rows (a matrix-vector
    # product).  Fresh interpreters at 1 and 2 BLAS threads
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its pool at the number of cores")
    env = _child_env()
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _S1_VALUES],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        count, *lines = proc.stdout.splitlines()
        if count == "None":
            pytest.skip("numpy is not linked against OpenBLAS")
        assert int(count) == int(threads)
        outs.append(lines)
    assert len(outs[0]) == 6
    assert [a for a, b in zip(*outs) if a != b] == []


# prints the BLAS thread count, then one line per Gallagher evaluation:
# function, shape and every value as a hex float
_GALLAGHER_VALUES = _BLAS_THREADS + """
import numpy as np
from dacq import problems
for fid in (21, 22):
    for n, dim in ((500, 20), (2000, 50)):
        p = problems.make_instance(fid, dim, seed=n)
        rng = np.random.default_rng([fid, n, dim])
        X = rng.uniform(-5, 5, (n, dim))
        X[::7] = rng.uniform(-8, 8, X[::7].shape)   # outside the box
        X[1::5] = p.aux["peaks"][rng.integers(len(p.aux["peaks"]),
                                              size=len(X[1::5]))]
        X[2::5] += 1e-9 * rng.standard_normal(X[2::5].shape)
        values = problems.evaluate(p, X)
        print(fid, n, dim, " ".join(v.hex() for v in values.tolist()))
"""


def test_gallagher_does_not_depend_on_blas_threads():
    # Gallagher's screen is BLAS products of (rows, 2 dim + 1) blocks,
    # large enough at these shapes for OpenBLAS to run them on 2 threads;
    # they only choose which peaks are recomputed, and the exact recompute
    # sets the bytes.  Fresh interpreters at 1 and 2 BLAS threads
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its pool at the number of cores")
    env = _child_env()
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _GALLAGHER_VALUES],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        count, *lines = proc.stdout.splitlines()
        if count == "None":
            pytest.skip("numpy is not linked against OpenBLAS")
        assert int(count) == int(threads)
        outs.append(lines)
    assert len(outs[0]) == 4
    assert [a[:20] for a, b in zip(*outs) if a != b] == []


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


def test_train_bytes_do_not_depend_on_workers(ds_dir, tmp_path):
    # 10 trajectories at batch 4: two slices per minibatch at two workers,
    # and a short last minibatch
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert run(["train", "--data", str(ds_dir), "--out", str(out),
                    "--epochs", "3", "--batch", "4", "--d-model", "12",
                    "--d-state", "4", "--seed", "2",
                    "--workers", str(w)]) == 0
    for name in ("model.ckpt", "loss.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_non_finite_gradient_is_one_error_line(ds_dir, tmp_path,
                                                     capsys, monkeypatch):
    true_backward = qmodel.model_backward

    def nan_w_in(cache, grad_Q):
        grads = true_backward(cache, grad_Q)
        grads["blocks.0.W_in"][0, 0] = np.nan
        return grads

    monkeypatch.setattr(qmodel, "model_backward", nan_w_in)
    out = tmp_path / "run"
    rc = run(["train", "--data", str(ds_dir), "--out", str(out),
              "--epochs", "2", "--batch", "4", "--d-model", "8",
              "--d-state", "4", "--seed", "2", "--workers", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: training diverged: the gradient of blocks.0.W_in "
                   "is not finite at epoch 1, step 1\n"), err
    assert not (out / "model.ckpt").exists()


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


def test_train_resume_without_moments_is_one_error_line(ds_dir, tmp_path,
                                                        capsys):
    # every checkpoint holds its AdamW moments: a file of the model's
    # tensors alone, its opt_step null, does not resume
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=3, M=16, d_model=12, d_state=4), seed=0)
    header = json.dumps({
        "config": dataclasses.asdict(params.config),
        "tensors": [[k, list(a.shape)] for k, a in params.tensors().items()],
        "opt_step": None, "extra": {}}).encode()
    start = tmp_path / "start.ckpt"
    start.write_bytes(
        checkpoint.MAGIC + struct.pack("<IQ", checkpoint.CKPT_VERSION,
                                       len(header)) + header
        + b"".join(a.astype("<f8").tobytes()
                   for a in params.tensors().values()))
    rc = run(["train", "--data", str(ds_dir), "--out", str(tmp_path / "o"),
              "--resume", str(start), "--epochs", "2", "--batch", "4",
              "--seed", "2"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {start}: bad header: field 'opt_step' must be an integer, "
        f"got None\n")
    assert not (tmp_path / "o" / "model.ckpt").exists()


def test_train_resume_without_epoch_starts_at_epoch_one(ds_dir, tmp_path):
    # a checkpoint saved without an epoch resumes from epoch 0
    start = tmp_path / "start.ckpt"
    params = qmodel.init_qmodel(
        qmodel.ModelConfig(K=3, M=16, d_model=12, d_state=4), seed=0)
    checkpoint.save_checkpoint(start, params,
                               opt=training.AdamWState.for_params(params))
    rc = run(["train", "--data", str(ds_dir), "--out", str(tmp_path / "o"),
              "--resume", str(start), "--epochs", "1", "--batch", "4",
              "--seed", "2"])
    assert rc == 0
    assert [r[0] for r in read_csv(tmp_path / "o" / "loss.csv")] == [
        "epoch", "1"]


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


def test_train_missing_data_usage_error(tmp_path, capsys):
    err = _exits_2(["train", "--out", str(tmp_path / "o")], capsys)
    assert err.startswith("usage: dacq train ")
    assert "error: the following arguments are required: --data\n" in err
    assert not (tmp_path / "o").exists()


def test_train_missing_dataset_dir_runtime_error(tmp_path, capsys):
    rc = run(["train", "--data", str(tmp_path / "missing"),
              "--out", str(tmp_path / "o")])
    assert rc == 1
    # a command that fails on its inputs leaves no output directory
    assert not (tmp_path / "o").exists()


def _malformed_copy(ds_dir, out, edit):
    """A copy of ds_dir whose second line is edit(obj) of its object, with
    the manifest checksum updated, so the parser meets the bad line."""
    lines = (ds_dir / datasets.TRAJECTORY_FILE).read_text().splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])))
    payload = ("\n".join(lines) + "\n").encode()
    man = json.loads((ds_dir / datasets.MANIFEST_FILE).read_text())
    man["checksum"] = datasets._checksum(payload)
    out.mkdir()
    (out / datasets.TRAJECTORY_FILE).write_bytes(payload)
    (out / datasets.MANIFEST_FILE).write_text(json.dumps(man))
    return out


def _without(key):
    def edit(obj):
        del obj["steps"][2][key]
        return obj
    return edit


def _step(value):
    def edit(obj):
        obj["steps"][2] = value
        return obj
    return edit


MALFORMED_LINES = {
    **{f"no {k}": (_without(k), f"step 2: missing field '{k}'")
       for k in ("a", "s", "r", "bsf")},
    "steps 5": (lambda obj: {**obj, "steps": 5},
                "bad trajectory: field 'steps' must be a list, got 5"),
    "step 5": (_step(5), "step 2 is not a JSON object"),
    "step [1]": (_step([1]), "step 2 is not a JSON object"),
    "line 5": (lambda obj: 5, "bad trajectory: not a JSON object"),
    "line [1]": (lambda obj: [1], "bad trajectory: not a JSON object"),
    **{f"{k} 10**400": (lambda obj, k=k: {**obj, k: 10 ** 400},
                        f"field '{k}': int too large to convert to float")
       for k in ("f_best_init", "f_star")},
}


@pytest.mark.parametrize("case", MALFORMED_LINES)
def test_train_malformed_line_is_one_error_line(ds_dir, tmp_path, capsys,
                                                case):
    edit, message = MALFORMED_LINES[case]
    bad = _malformed_copy(ds_dir, tmp_path / "bad", edit)
    rc = run(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: line 2: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


def _manifest_copy(ds_dir, out, field, value):
    """A copy of ds_dir whose manifest has field set to value."""
    out.mkdir()
    (out / datasets.TRAJECTORY_FILE).write_bytes(
        (ds_dir / datasets.TRAJECTORY_FILE).read_bytes())
    man = json.loads((ds_dir / datasets.MANIFEST_FILE).read_text())
    man[field] = value
    (out / datasets.MANIFEST_FILE).write_text(json.dumps(man))
    return out


@pytest.mark.parametrize("field, value, wording", [
    ("mu", "0.5", "a number"), ("policy_counts", [1], "an object of integer "
                                                       "counts"),
    ("mu", float("inf"), "in [0, 1]"), ("mu", float("nan"), "in [0, 1]")])
def test_train_manifest_field_of_wrong_type_is_one_error_line(
        ds_dir, tmp_path, capsys, field, value, wording):
    bad = _manifest_copy(ds_dir, tmp_path / "bad", field, value)
    rc = run(["train", "--data", str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: bad manifest: field {field!r} must be {wording}, "
                   f"got {value!r}\n")


def test_verify_non_finite_manifest_mu_fails_one_check(ds_dir, tmp_path,
                                                       capsys):
    bad = _manifest_copy(ds_dir, tmp_path / "bad", "mu", float("inf"))
    assert '"mu": Infinity' in (bad / datasets.MANIFEST_FILE).read_text()
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0",
              "--data", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails == ["FAIL  dataset_revalidation: bad manifest: field 'mu' "
                     "must be in [0, 1], got inf"]


def test_verify_manifest_field_of_wrong_type_fails_one_check(
        ds_dir, tmp_path, capsys):
    bad = _manifest_copy(ds_dir, tmp_path / "bad", "mu", "0.5")
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0",
              "--data", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails == ["FAIL  dataset_revalidation: bad manifest: field 'mu' "
                     "must be a number, got '0.5'"]


def test_verify_manifest_disagreeing_with_lines_fails_one_check(
        ds_dir, tmp_path, capsys):
    bad = _manifest_copy(ds_dir, tmp_path / "bad", "T", 7)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0",
              "--data", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails == ["FAIL  dataset_revalidation: line 1: field 'T' is 5, "
                     "manifest says 7"]


def test_verify_malformed_dataset_fails_one_check(ds_dir, tmp_path, capsys):
    bad = _malformed_copy(ds_dir, tmp_path / "bad", _step([1]))
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0",
              "--data", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails == ["FAIL  dataset_revalidation: line 2: step 2 is not "
                     "a JSON object: [1]"]


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


def test_eval_prints_paired_statistics_on_stdout(ckpt_path, tmp_path,
                                                capsys):
    out = tmp_path / "ev"
    assert run(["eval", "--ckpt", str(ckpt_path), "--out", str(out),
                "--t", "4", "--runs", "2", "--test-functions", "15,17",
                "--seed", "3", "--workers", "1"]) == 0
    captured = capsys.readouterr()
    rows = [(int(f), int(r), float(p), pol)
            for f, r, p, pol in read_csv(out / "eval.csv")[1:]]
    diff, wins, pairs = rollouts.paired(rows)
    assert pairs == 4
    line = f"model - random: mean {diff:+.6f}, model wins {wins}/4\n"
    assert line in captured.out and "model - random" not in captured.err
    # under the summary table, above the elapsed time
    table, _, tail = captured.out.partition(line)
    assert table.splitlines()[-1].startswith(" overall")
    assert tail.startswith("elapsed: ")


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
    assert not (tmp_path / "o").exists()


def test_eval_malformed_checkpoint_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint.MAGIC + struct.pack("<IQ", 2, 2) + b"{}")
    rc = run(["eval", "--ckpt", str(bad), "--out", str(tmp_path / "o"),
              "--t", "3", "--runs", "1", "--test-functions", "15"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {bad}: bad header: missing field 'config'\n"


def test_eval_checkpoint_config_of_wrong_type_is_one_error_line(tmp_path,
                                                               capsys):
    header = json.dumps({"config": {"K": 3, "M": 16.0, "d_model": 12,
                                    "d_state": 4, "depth": 1},
                         "tensors": [], "opt_step": 0, "extra": {}})
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint.MAGIC + struct.pack("<IQ", 2, len(header))
                    + header.encode())
    rc = run(["eval", "--ckpt", str(bad), "--out", str(tmp_path / "o"),
              "--t", "3", "--runs", "1", "--test-functions", "15"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {bad}: bad model config: field 'M' must be an "
                   f"integer, got 16.0\n")


def test_eval_reads_alg_from_checkpoint(ckpt_path, tmp_path, capsys):
    # eval decodes the algorithm the checkpoint records: it has no --alg,
    # and a checkpoint that records none is an error naming the file
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--ckpt", str(ckpt_path), "--alg", "1",
             "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--alg" in capsys.readouterr().err
    params, opt, extra = checkpoint.load_checkpoint(ckpt_path)
    assert extra["alg_id"] == 0
    bare = tmp_path / "bare.ckpt"
    checkpoint.save_checkpoint(bare, params, opt=opt,
                               extra={k: v for k, v in extra.items()
                                      if k != "alg_id"})
    rc = run(["eval", "--ckpt", str(bare), "--out", str(tmp_path / "o"),
              "--t", "3", "--runs", "1", "--test-functions", "15"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {bare}: missing field 'alg_id'\n")


@pytest.mark.parametrize("value", [None, 0.7, "0", True],
                         ids=("null", "float", "string", "true"))
@pytest.mark.parametrize("key", ["alg_id", "epoch"])
def test_checkpoint_metadata_of_wrong_type_is_one_error_line(
        key, value, ckpt_path, ds_dir, tmp_path, capsys):
    # eval reads the checkpoint's alg_id and train --resume its epoch:
    # each must be a JSON integer, as every other stored field
    params, opt, extra = checkpoint.load_checkpoint(ckpt_path)
    bad = tmp_path / "bad.ckpt"
    checkpoint.save_checkpoint(bad, params, opt=opt,
                               extra={**extra, key: value})
    out = tmp_path / "o"
    if key == "alg_id":
        argv = ["eval", "--ckpt", str(bad), "--t", "3", "--runs", "1",
                "--test-functions", "15"]
    else:
        argv = ["train", "--data", str(ds_dir), "--resume", str(bad),
                "--epochs", "1", "--batch", "4", "--seed", "2"]
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: field {key!r} must be an integer, got {value!r}\n")
    assert not out.exists()


def test_train_resume_on_another_dataset_is_one_error_line(
        ckpt_path, ds_dir, tmp_path, capsys):
    # a checkpoint resumes only on the dataset whose checksum it records
    other = tmp_path / "other"
    assert run(["collect", "--alg", "0", "--d", "4", "--t", "3", "--seed",
                "2", "--functions", "15", "--out", str(other)]) == 0
    trained_on = datasets.load_dataset(ds_dir)[1].checksum
    holds = datasets.load_dataset(other)[1].checksum
    out = tmp_path / "o"
    argv = ["train", "--data", str(other), "--epochs", "1", "--batch", "4",
            "--seed", "9", "--out", str(out)]
    capsys.readouterr()
    assert run(argv + ["--resume", str(ckpt_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt_path}: trained on dataset {trained_on}, --data holds "
        f"{holds}\n")
    assert not out.exists()
    # a checksum that is not a string is the typed-field error; an absent
    # one is not checked
    params, opt, extra = checkpoint.load_checkpoint(ckpt_path)
    bad = tmp_path / "bad.ckpt"
    checkpoint.save_checkpoint(bad, params, opt=opt,
                               extra={**extra, "dataset_checksum": 5})
    assert run(argv + ["--resume", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: field 'dataset_checksum' must be a string, got 5\n")
    del extra["dataset_checksum"]
    checkpoint.save_checkpoint(bad, params, opt=opt, extra=extra)
    assert run(argv + ["--resume", str(bad)]) == 0
    assert checkpoint.load_checkpoint(out / "model.ckpt")[2][
        "dataset_checksum"] == holds


def test_evaluate_policies_rows_do_not_depend_on_workers(ckpt_path):
    params, _, _ = checkpoint.load_checkpoint(ckpt_path)
    insts = [problems.make_instance(f, 5, seed=0) for f in (15, 17)]
    rows = [cli.evaluate_policies(params, 0, insts, runs=3, T=4, n_bins=16,
                                  seed=5, workers=w) for w in (1, 2)]
    assert rows[0] == rows[1]
    assert [(r[0], r[1], r[3]) for r in rows[0]] == [
        (f, run, pol) for f in (15, 17) for run in range(3)
        for pol in ("model", "random")]


def test_collect_and_eval_report_rollouts_on_stderr(ckpt_path, tmp_path,
                                                    capsys):
    assert run(["collect", "--alg", "0", "--mu", "0.5", "--d", "4",
                "--t", "3", "--seed", "1", "--functions", "1,12",
                "--workers", "2", "--out", str(tmp_path / "ds")]) == 0
    err = capsys.readouterr().err
    assert "collect: 4 episodes in" in err and "episodes/s" in err
    assert "workers 2" in err
    assert "mean perf: random " in err and "scripted_de_schedule " in err
    assert "mean perf f1: " in err and "mean perf f12: " in err

    assert run(["eval", "--ckpt", str(ckpt_path), "--out",
                str(tmp_path / "ev"), "--t", "3", "--runs", "2",
                "--test-functions", "15", "--workers", "1"]) == 0
    err = capsys.readouterr().err
    assert "eval: 4 episodes in" in err and "workers 1" in err
    assert "mean perf: model " in err and "random " in err


def test_collect_warns_when_exploitation_does_not_beat_random(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    true_collect = datasets.collect

    def no_gain(*args, **kwargs):
        trajs, man = true_collect(*args, **kwargs)
        for t in trajs:   # exploitation episodes now score Perf 0
            if t.policy_id != "random":
                for st in t.steps:
                    st.reward = 0.0
        return trajs, man

    monkeypatch.setattr(datasets, "collect", no_gain)
    assert run(["collect", "--alg", "0", "--mu", "0.5", "--d", "6",
                "--t", "5", "--seed", "1", "--functions", "1,12",
                "--out", str(tmp_path / "ds")]) == 0
    assert "warning: exploitation episodes (scripted_de_schedule) do not " \
           "beat random" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["collect", "train", "eval", "ablate"])
def test_workers_below_one_is_usage_error(command, tmp_path, capsys):
    err = _exits_2([command, "--workers", "0",
                    *_required_argv(command, tmp_path)], capsys)
    assert err.startswith(f"usage: dacq {command} ")
    assert "error: argument --workers: must be >= 1, got 0\n" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("profile, collect_flags, made_want, collected", [
    # the dataset at --dim 10, f15 evaluated at the desk profile's dim 5
    ("desk", ["--functions", "4,2", "--dim", "10"],
     {(4, 10), (2, 10), (15, 5)}, ("scripted_de_schedule", 0)),
    # per-function default dims: f4 at 10, f2 and f15 at 5
    ("paper", ["--functions", "4,2"], {(4, 10), (2, 5), (15, 5)},
     ("scripted_de_schedule", 0)),
    # two episodes leave f3 without a trajectory: the desk profile's dim
    ("desk", ["--functions", "4,2,3", "--dim", "10"],
     {(4, 10), (2, 10), (3, 5), (15, 5)}, ("scripted_de_schedule", 0)),
    # the dataset's exploitation kind and instance seed, not the flags'
    # defaults
    ("desk", ["--functions", "2", "--dim", "10", "--policy",
              "filtered_random", "--instance-seed", "3"],
     {(2, 10), (15, 5)}, ("filtered_random", 3)),
], ids=("dim-flag", "default-dims", "function-without-trajectory",
        "kind-and-instance-seed"))
def test_ablate_bin_sweep_uses_dataset_and_evaluation_dims(
        profile, collect_flags, made_want, collected, tmp_path, monkeypatch):
    """The bin sweep recollects each training function at its dim in the
    dataset, with the dataset's exploitation kind and instance seed and
    no other setting, and evaluates the test functions at the split's
    dims, as the other two sweeps do."""
    monkeypatch.setattr(datasets, "CALIBRATION_EPISODES", 4)
    ds = tmp_path / "ds"
    assert run(["collect", "--alg", "0", "--mu", "0.5", "--d", "2",
                "--t", "3", "--seed", "1", "--profile", profile,
                "--workers", "1", "--out", str(ds)] + collect_flags) == 0
    made, collects = [], []
    real_make, real_collect = problems.make_instance, datasets.collect

    def spy_make(function_id, dim, seed):
        made.append((function_id, dim))
        return real_make(function_id, dim, seed)

    def spy_collect(alg_id, split, policies, *args, **kwargs):
        # each other setting is recorded in the dataset or fixed in code
        assert set(kwargs) <= {"n_bins", "instance_seed", "workers"}, kwargs
        collects.append((policies[0], kwargs["instance_seed"]))
        return real_collect(alg_id, split, policies, *args, **kwargs)

    monkeypatch.setattr(problems, "make_instance", spy_make)
    monkeypatch.setattr(datasets, "collect", spy_collect)
    rc = run(["ablate", "--data", str(ds), "--out", str(tmp_path / "ab"),
              "--epochs", "1", "--batch", "4", "--d-model", "4",
              "--d-state", "2", "--runs", "1", "--t", "3",
              "--test-functions", "15", "--seed", "4", "--profile", profile,
              "--workers", "1"])
    assert rc == 0
    assert set(made) == made_want
    assert collects == [collected] * 2


def test_ablate_rejects_mixed_instance_seeds(tmp_path, capsys,
                                             monkeypatch):
    # the bin sweep recollects at the dataset's one instance seed: a
    # dataset of two is an error, before any training
    trajs = []
    for seed in (0, 3):
        part = tmp_path / f"s{seed}"
        assert run(["collect", "--mu", "0", "--d", "1", "--t", "2",
                    "--functions", "1", "--instance-seed", str(seed),
                    "--workers", "1", "--out", str(part)]) == 0
        lines, manifest = datasets.load_dataset(part)
        trajs += lines
    manifest.D = manifest.n_exploration = manifest.policy_counts["random"] = 2
    datasets.write_dataset(tmp_path / "mixed", trajs, manifest)

    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained")

    monkeypatch.setattr(training, "train", no_training)
    capsys.readouterr()
    rc = run(["ablate", "--data", str(tmp_path / "mixed"),
              "--out", str(tmp_path / "ab")])
    assert rc == 1
    assert "or instance seeds {0, 3}" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["0", "1"])
def test_ablate_without_both_labels_fails_before_training(mu, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    # the mu sweep re-mixes exploitation and random episodes: a dataset
    # of one label is an error before any of the sweeps trains
    ds = tmp_path / "ds"
    assert run(["collect", "--alg", "0", "--mu", mu, "--d", "4", "--t", "3",
                "--seed", "1", "--functions", "1,12", "--workers", "1",
                "--out", str(ds)]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained")

    monkeypatch.setattr(training, "train", no_training)
    capsys.readouterr()
    out = tmp_path / "ab"
    rc = run(["ablate", "--data", str(ds), "--epochs", "1", "--batch", "4",
              "--d-model", "8", "--d-state", "4", "--runs", "1", "--t", "3",
              "--test-functions", "15", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: dataset lacks the policy mix needed for the mu sweep "
        "(need both labels)\n")
    assert not out.exists()


def test_ablate_trains_with_wd(ds_dir, tmp_path, monkeypatch):
    seen = []

    def first_train(trajs, params, loss_cfg, **kwargs):
        seen.append(loss_cfg.weight_decay)
        raise RuntimeError("stop after the first training")

    monkeypatch.setattr(training, "train", first_train)
    rc = run(["ablate", "--data", str(ds_dir), "--wd", "0.1",
              "--out", str(tmp_path / "ab")])
    assert rc == 1
    assert seen == [0.1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_build_passes(capsys):
    rc = run(["verify", "--mdps", "10", "--scan-seeds", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 4
    # every coordinate of verify's model is rated, all through the full
    # forward pass
    assert re.search(r"PASS  grad_check: max rel err \S+ on 1144 coords\n",
                     out), out


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


def test_verify_injected_small_gradient_error_fails(monkeypatch, capsys):
    true_backward = qmodel.model_backward

    def scaled(cache, grad_Q):
        grads = true_backward(cache, grad_Q)
        grads["blocks.0.A_log"].ravel()[0] *= 1.0 + 1e-3
        return grads

    monkeypatch.setattr(qmodel, "model_backward", scaled)
    rc = run(["verify", "--mdps", "2", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  grad_check" in out


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_verify_zero_or_nan_gradient_fails(monkeypatch, capsys, value):
    # an all-zero gradient leaves no coordinate to check, and a NaN one
    # compares false against every bound: both must fail
    true_backward = qmodel.model_backward

    def constant(cache, grad_Q):
        return {k: np.full_like(v, value)
                for k, v in true_backward(cache, grad_Q).items()}

    monkeypatch.setattr(qmodel, "model_backward", constant)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  grad_check" in out
    assert out.count("FAIL") == 1, out


def test_verify_zeroed_head_bias_gradient_fails(monkeypatch, capsys):
    true_backward = qmodel.model_backward

    def zeroed(cache, grad_Q):
        grads = true_backward(cache, grad_Q)
        grads["b_head"][:] = 0.0
        return grads

    monkeypatch.setattr(qmodel, "model_backward", zeroed)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  grad_check" in out
    assert out.count("FAIL") == 1, out


def test_verify_nan_scan_fails(monkeypatch, capsys):
    true_scan = ssm.ssm_forward_scan

    def nan_scan(params, h0, xs):
        ys, h_final = true_scan(params, h0, xs)
        return np.full_like(ys, np.nan), h_final

    monkeypatch.setattr(ssm, "ssm_forward_scan", nan_scan)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  scan_equivalence: max |scan - sequential| nan" in out
    assert out.count("FAIL") == 1, out


@pytest.mark.parametrize("factor", [1.0 + 1e-12, float("nan")])
def test_verify_s1_error_fails(monkeypatch, capsys, factor):
    # a 1e-12 relative error, as an unguarded Gram plane makes on
    # near-duplicate rows, or a NaN from the square root of a negative
    # plane entry
    true_s1 = env._mean_pairwise_distance
    monkeypatch.setattr(env, "_mean_pairwise_distance",
                        lambda X: true_s1(X) * factor)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  s1_exact" in out


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    # a NaN s1 makes cal_state raise inside the episodes of grad_check and
    # reward_telescoping: each fails with the message, and verify goes on
    monkeypatch.setattr(env, "_mean_pairwise_distance", lambda X: np.nan)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    for name in ("grad_check", "reward_telescoping"):
        assert f"FAIL  {name}: state feature s1 is not finite: nan" in out
    assert "FAIL  s1_exact" in out
    assert "PASS  decomposition" in out and "PASS  scan_equivalence" in out
    assert "2/5 checks passed" in out


def test_verify_crosses_scan_chunks(monkeypatch, capsys):
    # the SSM forward and backward walk time in chunks: grad_check and
    # scan_equivalence (every SSM call outside grad_check) must each run
    # a sequence longer than one chunk, or a chunk-edge bug passes verify
    phase, most = ["scan_equivalence"], {}
    true_forward, true_check = ssm.ssm_forward_sequential, training.grad_check

    def spy_forward(params, h0, xs):
        ys, hf, cache = true_forward(params, h0, xs)
        L, D = cache.xs.shape
        n = len(ssm._chunks(L, D, params.d_state))
        most[phase[0]] = max(most.get(phase[0], 0), n)
        return ys, hf, cache

    def spy_check(*args, **kwargs):
        phase[0] = "grad_check"
        try:
            return true_check(*args, **kwargs)
        finally:
            phase[0] = "scan_equivalence"

    monkeypatch.setattr(ssm, "ssm_forward_sequential", spy_forward)
    monkeypatch.setattr(training, "grad_check", spy_check)
    rc = run(["verify", "--mdps", "1", "--scan-seeds", "1", "--seed", "0"])
    assert rc == 0, capsys.readouterr().out
    assert most["grad_check"] > 1 and most["scan_equivalence"] > 1, most


def test_verify_overtight_decomposition_tolerance_fails(capsys,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "DECOMPOSITION_TOL", 1e-16)
    rc = run(["verify", "--mdps", "10", "--scan-seeds", "1", "--seed", "0"])
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
