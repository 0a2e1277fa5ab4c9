"""Offline trajectory collection and on-disk dataset format.

A dataset is a mu-mixed batch of episodes: ``round(mu * D)`` come from an
exploitation behavior (a scripted DE schedule, a calibrated pool of fixed
parameter settings filtered by return, or random episodes filtered by
return) and the rest from uniform-random control.  The policies and the
episode job that plays them live in ``rollouts``; this module picks,
filters and stores their episodes.  Episodes cycle over the training
problem instances and every episode derives its own seed from the
master seed, so collection is reproducible and runs its episodes in
worker processes without changing content.

On disk a dataset is a directory with ``trajectories.jsonl`` (one episode
per line, UTF-8, floats printed as shortest round-trip decimals) and a
sibling ``manifest.json`` carrying counts, parameters, and a sha256 of the
trajectory file.  One rule reads every stored record, ``read_record``:
each field of a manifest, a trajectory line, a checkpoint header and its
model config is checked against its dataclass's declared type.  A
manifest must agree with its lines; the reader re-validates every
invariant and names the line that breaks one.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import algorithms, env, problems, rollouts
from .env import DEFAULT_BINS, StepRecord, Trajectory

#: bump when the serialized layout changes incompatibly
FORMAT_VERSION = 1

TRAJECTORY_FILE = "trajectories.jsonl"
MANIFEST_FILE = "manifest.json"

EXPLOITATION_KINDS = ("scripted_de_schedule", "scripted_constant",
                      "filtered_random")

#: ``filtered_random`` gives up after this many attempts per episode it keeps
MAX_ATTEMPT_FACTOR = 50

#: the two filtered kinds first play this many calibration episodes and
#: keep only what beats this quantile of their returns; no dataset records
#: either, so they are fixed here
CALIBRATION_EPISODES = 100
FILTER_QUANTILE = 0.5


# ---------------------------------------------------------------------------
# stored records: manifests, trajectory lines, checkpoint headers
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return type(v) is int   # a JSON true is a bool, not an int


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


#: a stored field's annotation -> (test of its JSON value, wording)
_JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "dict[str, int]": (lambda v: isinstance(v, dict)
                       and all(map(_is_int, v.values())),
                       "an object of integer counts"),
    "list[int]": (_is_int_list, "a list of integers"),
    "list[float]": (lambda v: isinstance(v, list) and all(
        type(x) in (int, float) for x in v), "a list of numbers"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "int | list[int]": (lambda v: _is_int(v) or _is_int_list(v),
                        "an integer or a list of integers"),
    "list[tuple[str, list[int]]]": (lambda v: isinstance(v, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
        and _is_int_list(e[1]) and min(e[1], default=0) >= 0 for e in v),
        "a list of [name, shape] pairs"),
}


def _field(obj: dict, key: str, json_type: str):
    """obj[key] if it is present and of json_type (a key of
    ``_JSON_TYPES``); else a ValueError that names the field."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    ok, wording = _JSON_TYPES[json_type]
    if not ok(obj[key]):
        raise ValueError(f"field {key!r} must be {wording}, "
                         f"got {obj[key]!r}")
    return obj[key]


def read_record(cls, obj, what: str):
    """cls(**obj) for the JSON value obj of a stored record: each field of
    the dataclass cls present and of its annotation's JSON type, and no
    other key; else a ValueError that names the record and the field."""
    try:
        if not isinstance(obj, dict):
            raise ValueError(f"not a JSON object: {obj!r}")
        for f in fields(cls):
            _field(obj, f.name, f.type)
        return cls(**obj)
    except (TypeError, ValueError) as exc:   # TypeError: an unknown key
        raise ValueError(f"bad {what}: {exc}") from None


@dataclass
class DatasetManifest:
    format_version: int
    alg_id: int
    K: int
    M: int
    T: int
    D: int
    mu: float
    seed: int
    n_exploitation: int
    n_exploration: int
    policy_counts: dict[str, int]
    checksum: str
    train_ids: list[int]

    def validate(self):
        if self.format_version != FORMAT_VERSION:
            raise ValueError(f"format version {self.format_version} != "
                             f"supported {FORMAT_VERSION}")
        if not 0.0 <= self.mu <= 1.0:   # also false for NaN
            raise ValueError(f"bad manifest: field 'mu' must be in [0, 1], "
                             f"got {self.mu!r}")
        if self.n_exploitation != int(round(self.mu * self.D)):
            raise ValueError("exploitation count does not match round(mu*D)")
        if self.n_exploitation + self.n_exploration != self.D:
            raise ValueError("exploitation + exploration != D")
        if sum(self.policy_counts.values()) != self.D:
            raise ValueError("per-policy counts do not sum to D")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        """Parse a manifest through ``read_record``."""
        return read_record(cls, json.loads(text), "manifest")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def trajectory_to_obj(traj: Trajectory) -> dict:
    """Flat JSON-ready object: the fields of ``Trajectory``, each step an
    object of its state ``s``, bins ``a``, reward ``r`` and best ``bsf``."""
    obj = {f.name: getattr(traj, f.name) for f in fields(Trajectory)}
    obj["steps"] = [{"s": st.state.tolist(), "a": st.actions.tolist(),
                     "r": float(st.reward), "bsf": float(st.best_so_far_f)}
                    for st in traj.steps]
    return obj


def trajectory_from_obj(obj) -> Trajectory:
    """A parsed line's Trajectory: fields by read_record, steps by _field."""
    traj = read_record(Trajectory, obj, "trajectory")
    for name in ("f_best_init", "f_star"):
        try:   # OverflowError: an integer beyond float range
            setattr(traj, name, float(getattr(traj, name)))
        except OverflowError as exc:
            raise ValueError(f"field {name!r}: {exc}") from None
    steps = []
    for t, st in enumerate(traj.steps):
        if not isinstance(st, dict):
            raise ValueError(f"step {t} is not a JSON object: {st!r}")
        try:
            steps.append(StepRecord(
                state=np.asarray(_field(st, "s", "list[float]"), float),
                actions=np.asarray(_field(st, "a", "list[int]"), np.int64),
                reward=float(_field(st, "r", "float")),
                best_so_far_f=float(_field(st, "bsf", "float"))))
        # OverflowError: an integer beyond int64 ('a') or float range
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"step {t}: {exc}") from None
    traj.steps = steps
    return traj


def serialize_trajectory(traj: Trajectory) -> str:
    """One canonical JSON line (no trailing newline).  Python's float repr
    already emits the shortest decimal that round-trips a 64-bit float."""
    return json.dumps(trajectory_to_obj(traj),
                      separators=(",", ":"), sort_keys=True)


def validate_trajectory(traj: Trajectory, where: str = "trajectory"):
    """Re-check structural and reward invariants of a stored episode."""
    def fail(msg):
        raise ValueError(f"{where}: {msg}")

    if traj.T < 1 or len(traj.steps) != traj.T:
        fail(f"has {len(traj.steps)} steps, expected T={traj.T}")
    try:
        specs = algorithms.alg_spec(traj.alg_id)
    except ValueError as exc:
        fail(str(exc))
    if traj.K != len(specs):
        fail(f"K={traj.K} does not match algorithm {traj.alg_id} "
             f"({len(specs)} dims)")
    for name in ("f_best_init", "f_star"):
        if not math.isfinite(getattr(traj, name)):
            fail(f"field '{name}' is not finite")
    masks = env.bin_masks(traj.alg_id, traj.M).tolist()

    prev = traj.f_best_init
    for t, st in enumerate(traj.steps):
        if st.state.shape != (9,):
            fail(f"step {t}: state has shape {st.state.shape}")
        if not all(map(math.isfinite, st.state.tolist())):
            fail(f"step {t}: field 's' is not finite")
        for name, v in (("r", st.reward), ("bsf", st.best_so_far_f)):
            if not math.isfinite(v):
                fail(f"step {t}: field '{name}' is not finite")
        if st.actions.shape != (traj.K,):
            fail(f"step {t}: action vector has length {st.actions.shape}")
        for i, (b, m) in enumerate(zip(st.actions.tolist(), masks)):
            if not 0 <= b < m:
                fail(f"step {t}: bin {b} out of range [0, {m}) "
                     f"for {specs[i].name}")
        try:
            expect = env.reward(prev, st.best_so_far_f,
                                traj.f_best_init, traj.f_star)
        except ValueError as exc:
            fail(f"step {t}: {exc}")
        if abs(st.reward - expect) > 1e-9:
            fail(f"step {t}: reward {st.reward!r} inconsistent with "
                 f"best-so-far sequence (expected {expect!r})")
        prev = st.best_so_far_f
    if traj.perf > 1.0 + 1e-9:
        fail(f"cumulative reward {traj.perf!r} exceeds 1")


def _jsonl(trajs) -> bytes:
    """The canonical ``trajectories.jsonl`` bytes of trajs."""
    return "".join(serialize_trajectory(t) + "\n" for t in trajs) \
        .encode("utf-8")


def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _policy_counts(trajs) -> dict:
    return dict(collections.Counter(t.policy_id for t in trajs))


def _write_files(out_dir, payload: bytes, manifest: DatasetManifest):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / TRAJECTORY_FILE).write_bytes(payload)
    (out / MANIFEST_FILE).write_text(manifest.to_json(), encoding="utf-8")


def write_dataset(out_dir, trajs, manifest: DatasetManifest):
    """Write trajs and manifest, setting the manifest's checksum."""
    payload = _jsonl(trajs)
    manifest.checksum = _checksum(payload)
    _write_files(out_dir, payload, manifest)
    return manifest


def load_dataset(dataset_dir, validate: bool = True):
    """Read (trajectories, manifest), verifying checksum, version, counts
    and that each line has the manifest's alg_id, K, M, T and train_ids
    (and, if ``validate``, ``validate_trajectory``); errors name the line.

    The trajectory file is read once; the parsed lines are the bytes
    whose checksum was verified."""
    root = Path(dataset_dir)
    manifest = DatasetManifest.from_json(
        (root / MANIFEST_FILE).read_text(encoding="utf-8"))
    manifest.validate()
    payload = (root / TRAJECTORY_FILE).read_bytes()
    digest = _checksum(payload)
    if digest != manifest.checksum:
        raise ValueError(f"checksum mismatch: manifest {manifest.checksum} "
                         f"!= file {digest}")
    agreed = {k: getattr(manifest, k) for k in ("alg_id", "K", "M", "T")}
    trajs = []
    with io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                traj = trajectory_from_obj(json.loads(line.strip()))
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") \
                    from None
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if validate:
                validate_trajectory(traj, where=f"line {lineno}")
            for key, want in agreed.items():
                if getattr(traj, key) != want:
                    raise ValueError(f"line {lineno}: field {key!r} is "
                                     f"{getattr(traj, key)!r}, manifest "
                                     f"says {want!r}")
            if traj.function_id not in manifest.train_ids:
                raise ValueError(f"line {lineno}: field 'function_id' is "
                                 f"{traj.function_id!r}, not one of the "
                                 f"manifest's train_ids {manifest.train_ids}")
            trajs.append(traj)
    if len(trajs) != manifest.D:
        raise ValueError(f"{len(trajs)} trajectories on disk, "
                         f"manifest says {manifest.D}")
    counts = _policy_counts(trajs)
    if counts != manifest.policy_counts:
        raise ValueError(f"policy counts {counts} do not match manifest "
                         f"{manifest.policy_counts}")
    return trajs, manifest


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

# episode-seed namespaces, so calibration/filter attempts never collide
# with regular episodes under one master seed
_NS_MAIN, _NS_CAL, _NS_FILTER = 0, 1, 2


def filter_threshold(perfs, quantile: float) -> float:
    """Return threshold below/at which calibration episodes are discarded."""
    perfs = np.asarray(perfs, dtype=float)
    if perfs.size == 0:
        raise ValueError("cannot calibrate a threshold on zero episodes")
    return float(np.quantile(perfs, quantile))


def _above(threshold, job):
    traj = job()
    return traj if traj.perf > threshold else None


def collect(alg_id: int, split: problems.ProblemSplit, policies, mu: float,
            D: int, T: int, seed: int, out_dir=None,
            n_bins: int = DEFAULT_BINS, instance_seed: int = 0,
            workers=None):
    """Collect a mu-mixed offline dataset.

    ``policies`` is ``(exploitation_kind, "random")``.  The first
    ``round(mu*D)`` episodes use the exploitation policy, the rest are
    uniform random; problems cycle over the split's training instances in
    order.  Returns (trajectories, manifest); also writes
    ``trajectories.jsonl`` + ``manifest.json`` when out_dir is given.

    The two filtered kinds first run ``CALIBRATION_EPISODES`` calibration
    episodes and take the ``FILTER_QUANTILE`` of their returns as the
    threshold.
    ``filtered_random`` calibrates on random episodes, then keeps the
    first ``round(mu*D)`` fresh random episodes whose return is strictly
    above the threshold, out of at most
    ``MAX_ATTEMPT_FACTOR * round(mu*D)`` attempts.  ``scripted_constant``
    calibrates one seeded ``constant_setting`` per episode, keeps the
    settings whose return is strictly above the threshold as its pool,
    and gives exploitation episode ``e`` the setting
    ``pool[e % len(pool)]`` in calibration order.  Either kind raises
    RuntimeError when it cannot fill its episodes (an empty pool, or too
    few kept random episodes); it never falls back to unfiltered ones.
    ``scripted_de_schedule`` plays ``rollouts.exploitation_policy``, whose
    jitter is ``rollouts.SCHEDULE_JITTER``.

    Episodes run through ``env.run_episodes`` on ``workers`` processes
    (None: every CPU this process may use); the result does not depend on
    ``workers``.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    if not split.train_ids:
        raise ValueError("no training problems in split")
    exploit_kind, explore_kind = policies
    if exploit_kind not in EXPLOITATION_KINDS:
        raise ValueError(
            f"unknown exploitation policy kind: {exploit_kind!r}")
    if explore_kind != "random":
        raise ValueError(f"exploration policy must be 'random', "
                         f"got {explore_kind!r}")

    instances = [problems.make_instance(fid, split.dims[fid],
                                        seed=instance_seed)
                 for fid in split.train_ids]
    n_exploit = int(round(mu * D))

    def job(ns, e, make_policy, policy_id):
        """Episode e of seed namespace ns on the e-th instance in cycle
        order; the job builds its policy when it runs."""
        return functools.partial(
            rollouts.episode, alg_id, instances[e % len(instances)],
            make_policy, T, [seed, ns, e], n_bins, policy_id)

    def random_job(ns, e, policy_id):
        return job(ns, e, functools.partial(rollouts.random_policy, alg_id,
                                            [seed, ns, e, 1], n_bins),
                   policy_id)

    explore = [random_job(_NS_MAIN, e, "random") for e in range(n_exploit, D)]
    if n_exploit == 0:
        trajs = env.run_episodes(explore, workers)
    elif exploit_kind == "scripted_de_schedule":
        trajs = env.run_episodes(
            [job(_NS_MAIN, e, functools.partial(
                     rollouts.exploitation_policy, alg_id,
                     seed=[seed, _NS_MAIN, e, 1], T=T, n_bins=n_bins),
                 exploit_kind)
             for e in range(n_exploit)] + explore, workers)
    elif exploit_kind == "scripted_constant":
        specs = algorithms.alg_spec(alg_id)
        cands = [rollouts.constant_setting(
                     np.random.default_rng([seed, _NS_CAL, i, 1]),
                     specs, n_bins)
                 for i in range(CALIBRATION_EPISODES)]
        perfs = [t.perf for t in env.run_episodes(
                     [job(_NS_CAL, i, functools.partial(rollouts.hold, c),
                          exploit_kind) for i, c in enumerate(cands)],
                     workers)]
        threshold = filter_threshold(perfs, FILTER_QUANTILE)
        pool = [c for c, f in zip(cands, perfs) if f > threshold]
        if not pool:
            raise RuntimeError(
                f"scripted_constant pool is empty: no setting of "
                f"{CALIBRATION_EPISODES} calibration episodes beat the "
                f"quantile {FILTER_QUANTILE} threshold {threshold}")
        trajs = env.run_episodes(
            [job(_NS_MAIN, e,
                 functools.partial(rollouts.hold, pool[e % len(pool)]),
                 exploit_kind) for e in range(n_exploit)] + explore, workers)
    else:
        # filtered_random: the random episodes do not depend on the
        # threshold, so they share the calibration's map
        ran = env.run_episodes(
            [random_job(_NS_CAL, i, "random")
             for i in range(CALIBRATION_EPISODES)] + explore, workers)
        threshold = filter_threshold(
            [t.perf for t in ran[:CALIBRATION_EPISODES]], FILTER_QUANTILE)
        max_attempts = MAX_ATTEMPT_FACTOR * n_exploit
        passed = 0

        def enough(batch):
            nonlocal passed
            passed += sum(t is not None for t in batch)
            return passed >= n_exploit

        # an attempt returns its episode if it passes, else None
        attempts = env.run_episodes(
            [functools.partial(_above, threshold,
                               random_job(_NS_FILTER, k, "filtered_random"))
             for k in range(max_attempts)], workers, stop=enough)
        kept = [t for t in attempts if t is not None][:n_exploit]
        if len(kept) < n_exploit:
            raise RuntimeError(
                f"filtered_random kept only {len(kept)}/{n_exploit} "
                f"episodes after {max_attempts} attempts "
                f"(threshold {threshold})")
        trajs = kept + ran[CALIBRATION_EPISODES:]

    payload = _jsonl(trajs)
    manifest = DatasetManifest(
        format_version=FORMAT_VERSION, alg_id=alg_id,
        K=len(algorithms.alg_spec(alg_id)), M=n_bins, T=T, D=D, mu=float(mu),
        seed=seed, n_exploitation=n_exploit, n_exploration=D - n_exploit,
        policy_counts=_policy_counts(trajs), checksum=_checksum(payload),
        train_ids=list(split.train_ids))
    manifest.validate()
    if out_dir is not None:
        _write_files(out_dir, payload, manifest)
    return trajs, manifest
