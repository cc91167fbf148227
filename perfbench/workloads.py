"""The benchmark's three workloads.

Each workload builds its inputs from the seed, sets itself up several times
(``setup_s`` is the median), runs its timed phase and checks its own
outputs.  Every timing is taken at a fixed host pace (:func:`timed`) and is
a median over repeats.  The amount of timed work follows from ``--seconds`` through a
nominal rate measured on a 2-CPU x86 box (:func:`work_units`), never from
the measured speed, so a faster program does the same work in less time
and every metric, peak memory included, describes the same work.  It returns an
:class:`Outcome` with every end-to-end metric, the operation counts and the
per-layer counters that come from the program's own telemetry.

* ``cip_silo``: the paper's defended federation.  Four CIP clients train a
  dual-channel MiniResNet on synthetic CH-MNIST with the batched engine on
  the accelerated float32 backend.  Conv2d and CIP Steps I/II do nearly all
  the work.
* ``cohort_virtual``: a cross-device federation.  A 2,000-client virtual
  registry samples 100 clients a round.  States spill through a small LRU
  store, updates go through the top-k codec, FedAvg runs through a 4-shard
  tree and a checkpoint is written every 5 rounds.  Local training is only a
  quarter of the round here.
* ``mia_audit``: the privacy verdict.  A small CIP federation is trained in
  set-up, then the passive internal attack and the Table IV attack suite
  are timed on the numpy float64 reference backend.

Every workload reports every end-to-end metric.  Where a metric is not the
workload's subject it still measures the workload's own work: the round
workloads end with a light audit (passive internal attack and Ob-Label)
that gives ``audit_s`` and ``mia_acc_max``, and ``mia_audit`` takes its
round metrics from the federation it trains in set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.attacks import (
    AttackData,
    CIPTarget,
    ObBlindMIAttack,
    ObLabelAttack,
    ObMALTAttack,
    ObNNAttack,
    PassiveServerAttack,
    PbBayesAttack,
    PlainTarget,
    ShadowConfig,
    StateEvaluator,
    cip_zero_blend_forward,
    evaluate_attack,
    plain_forward,
)
from repro.core.cip_client import CIPClient
from repro.core.config import CheckpointConfig
from repro.data.benchmarks import CHMNIST_SPEC, load_attacker_pool
from repro.data.dataset import Dataset
from repro.data.partition import partition_iid
from repro.data.synthetic import ImageSpec, generate_image_dataset
from repro.experiments.common import make_cip_config
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import make_executor
from repro.fl.registry import ClientRegistry, LRUStateStore
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation, FLHistory, peak_memory_bytes
from repro.nn import diagnostics
from repro.nn.backend import use_backend
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

#: Ops whose counters the traced run reports, each a sum of the profiler's
#: op names: the conv kernels, dense GEMMs, and three elementwise ops.
NN_OPS: Dict[str, Tuple[str, ...]] = {
    "conv2d": ("conv2d", "conv2d_grouped", "fused_conv2d_relu"),
    "matmul": ("matmul", "fused_linear_relu"),
    "add": ("add",),
    "mul": ("mul",),
    "relu": ("relu",),
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    #: Name of the metric the tracing overhead is judged on.
    primary: str
    #: Timed units (rounds or audits); per-layer values are per unit.
    units: int
    setups: int
    #: Per-layer values taken from the program's own telemetry.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Engine, nn backend and dtype of the workload.
    config: Dict[str, str] = field(default_factory=dict)


class Phases:
    """Marks the phases of a run; a traced run also profiles nn ops.

    Per-layer metrics count only spans of the ``timed`` phase, except
    ``data.generate_s``, which belongs to set-up.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op_stats: Dict[str, diagnostics.OpStat] = {}
        self._profile: Optional[diagnostics.profile_ops] = None

    def enter(self, name: str) -> None:
        if self.tracer is None:
            return
        self.tracer.phase = name
        if name == "timed" and self._profile is None:
            self._profile = diagnostics.profile_ops()
            self._profile.__enter__()
        elif name != "timed" and self._profile is not None:
            self._profile.__exit__(None, None, None)
            self.op_stats = diagnostics.merge_op_stats(self.op_stats, self._profile.stats)
            self._profile = None


def state_digest(state: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Timing at a fixed host pace
# ----------------------------------------------------------------------
#: Seconds :func:`probe` takes on the reference box (2-vCPU x86) while the
#: host runs the vCPU at full speed.  Every timing is reported at this pace.
PROBE_NOMINAL_S = 0.006
#: The probe's operands and outputs.  It allocates nothing, so its speed
#: does not depend on the allocator state the program leaves behind.
_PROBE_MATRIX = np.random.default_rng(0).random((2, 160, 160), dtype=np.float32)
_PROBE_VECTOR = np.random.default_rng(1).random((2, 1 << 16))
#: Larger than a core's private caches: the streaming part of the probe.
_PROBE_STREAM = np.random.default_rng(2).random((2, 1 << 19))
#: Seconds of every probe of the run, for the environment record.
PROBES: List[float] = []


def probe() -> float:
    """Seconds a fixed mix of float32 GEMM, float64 elementwise, memory
    streaming and interpreter work takes right now; benchmark code, never
    the program's.  Host contention slows these parts by different amounts,
    so the probe holds some of each."""
    matrix, product = _PROBE_MATRIX
    vector, scratch = _PROBE_VECTOR
    start = time.perf_counter()
    for _ in range(15):
        np.matmul(matrix, matrix, out=product)
        np.multiply(vector, vector, out=scratch)
        np.add(scratch, 1.0, out=scratch)
        np.sqrt(scratch, out=scratch)
    for _ in range(2):
        np.add(_PROBE_STREAM[0], 1.0, out=_PROBE_STREAM[1])
    total = 0
    for i in range(30000):
        total += i
    seconds = time.perf_counter() - start
    PROBES.append(seconds)
    return seconds


@dataclass
class Timing:
    #: Wall-clock seconds of the unit.
    seconds: float = 0.0
    #: Nominal over measured host pace around the unit.
    scale: float = 1.0

    @property
    def paced(self) -> float:
        """The unit's seconds at the nominal host pace."""
        return self.seconds * self.scale


@contextmanager
def timed() -> Iterator[Timing]:
    """Time one unit of work at the nominal host pace.

    The shared host runs the vCPU up to about 2x slower, for anything from
    a fraction of a second to minutes, with steal time near zero and CPU
    time equal to wall time.  Bracketing each unit with a fixed probe and
    scaling by the probe's slowdown cancels that: on the reference box a
    ``cip_silo`` round took 1.0 s in a fast stretch and 1.5 s in a slow
    one, while round time over probe time stayed within about 4 %.
    """
    timing = Timing()
    before = probe()
    start = time.perf_counter()
    yield timing
    timing.seconds = time.perf_counter() - start
    timing.scale = 2.0 * PROBE_NOMINAL_S / (before + probe())


def paced_total(repeats: List[Dict[object, float]]) -> float:
    """Paced seconds of one pass over every part of a repeated unit.

    ``repeats`` holds one ``{part: paced seconds}`` record per repeat of the
    same work; each part counts with its median over the repeats.
    """
    parts: Dict[object, List[float]] = {}
    for record in repeats:
        for part, seconds in record.items():
            parts.setdefault(part, []).append(seconds)
    return sum(statistics.median(samples) for samples in parts.values())


def work_units(seconds: float, size: dict) -> int:
    """Timed units (rounds, episodes or audits) for a run of ``seconds``."""
    return max(size["min_units"], round(seconds * size["units_per_s"]))


def _finite_state(state: Dict[str, np.ndarray]) -> bool:
    return all(np.all(np.isfinite(value)) for value in state.values())


def _peak_rss_mb() -> float:
    return peak_memory_bytes()[0] / 1e6


def _round_accounting(history: FLHistory, selected: int) -> Tuple[int, int, bool]:
    """(attempted, failed, balanced) over every round of ``history``.

    A round balances when selected = accepted + dropped + rejected + stale.
    """
    attempted = failed = 0
    balanced = True
    for losses, metrics in zip(history.train_losses, history.round_metrics):
        lost = (
            len(metrics.dropped_clients)
            + len(metrics.rejected_clients)
            + len(metrics.stale_clients)
        )
        attempted += selected
        failed += lost
        balanced &= selected == len(losses) + lost
    return attempted, failed, balanced


def _split_pools(members: Dataset, nonmembers: Dataset, seed: int) -> AttackData:
    """Equal member and non-member pools; a quarter calibrates, the rest is
    scored, so the attack accuracies rest on as many samples as possible."""
    size = min(len(members), len(nonmembers))
    return AttackData.from_pools(
        members.shuffled(seed=derive_rng(seed, "bench-pool-m")).take(size),
        nonmembers.shuffled(seed=derive_rng(seed, "bench-pool-n")).take(size),
        calibration_fraction=0.25,
        seed=derive_rng(seed, "bench-pool-split"),
    )


def _light_audit(target, evaluator, snapshots, pools: AttackData, victim_id):
    """Passive internal attack plus Ob-Label: the paced seconds each attack
    took and each attack's (accuracy, AUC)."""
    with timed() as passive_time:
        passive = PassiveServerAttack(evaluator, victim_id=victim_id).run(
            snapshots,
            pools.known_members,
            pools.known_nonmembers,
            pools.eval_members,
            pools.eval_nonmembers,
        )
    with timed() as label_time:
        label = evaluate_attack(ObLabelAttack(), target, pools)
    seconds = {passive.attack: passive_time.paced, label.attack: label_time.paced}
    return seconds, {
        passive.attack: (passive.accuracy, passive.auc),
        label.attack: (label.accuracy, label.auc),
    }


def _verdict_metrics(verdict: Dict[str, Tuple[float, float]]) -> Tuple[float, bool]:
    """(highest attack accuracy, every accuracy and AUC finite)."""
    finite = all(math.isfinite(acc) and math.isfinite(auc) for acc, auc in verdict.values())
    return max(acc for acc, _ in verdict.values()), finite


# ----------------------------------------------------------------------
# CIP federations (cip_silo and mia_audit)
# ----------------------------------------------------------------------
#: The synthetic CH-MNIST stand-in is one fixed dataset, as a real dataset
#: file would be: train and test pools drawn once from ``DATASET_SEED``.  The
#: run seed draws which training images take part, how they are split among
#: clients, each client's secret ``t`` and every training stream.
DATASET_SEED = 0
POOL_PER_CLASS = 60
#: The initial global model is fixed as well.  With seed-drawn initial
#: models, two in eight stalled near 0.27 accuracy while the rest reached
#: about 0.55, which would make ``test_accuracy`` measure the draw rather
#: than the code.
MODEL_SEED = 0
CIP_ALPHA = 0.5
SNAPSHOT_TAIL = 3


def _cip_federation(seed: int, tag: str, clients: int, samples_per_class: int,
                    snapshot_rounds: range, engine: str, batch_size: int = 32):
    """A CIP federation on a seed-drawn sample of the fixed CH-MNIST pool.

    Snapshots ``snapshot_rounds``, as a passive server would.  Returns the
    simulation, the training sample, the test pool, the CIP config and the
    model factory.
    """
    pool = generate_image_dataset(CHMNIST_SPEC, POOL_PER_CLASS, DATASET_SEED, "train")
    test = generate_image_dataset(CHMNIST_SPEC, POOL_PER_CLASS, DATASET_SEED, "test")
    picked = derive_rng(seed, f"bench-{tag}-sample").permutation(len(pool))
    train = pool.subset(picked[: samples_per_class * CHMNIST_SPEC.num_classes])
    shards = partition_iid(train, clients, seed=derive_rng(seed, f"bench-{tag}-part"))
    config = make_cip_config("chmnist", CIP_ALPHA)

    def factory():
        return build_model(
            "resnet", CHMNIST_SPEC.num_classes, dual_channel=True,
            in_channels=CHMNIST_SPEC.channels, seed=derive_rng(MODEL_SEED, "bench-cip-model"),
        )

    members = [
        CIPClient(i, shards[i], factory, cip_config=config,
                  config=ClientConfig(lr=5e-2, batch_size=batch_size),
                  seed=derive_rng(seed, f"bench-{tag}-client", i))
        for i in range(clients)
    ]
    simulation = FederatedSimulation(
        FLServer(factory), members, executor=make_executor(backend=engine),
        snapshot_rounds=snapshot_rounds,
    )
    return simulation, train, test, config, factory


# ----------------------------------------------------------------------
# cip_silo
# ----------------------------------------------------------------------
AUDIT_EVERY = 2
CIP_SIZES = {
    "full": dict(clients=4, samples_per_class=24, rounds=12, eval_from=9, setups=9,
                 audits=5, accuracy_floor=0.2, min_units=12, units_per_s=0.6),
    "tiny": dict(clients=2, samples_per_class=4, rounds=3, eval_from=2, setups=2,
                 audits=1, accuracy_floor=0.0, min_units=3, units_per_s=0.0),
}


def cip_silo(seed: int, seconds: float, workdir: str, size_name: str, phases: Phases) -> Outcome:
    """A fixed round budget for the accuracy, then more rounds for longer runs.

    ``test_accuracy`` is the mean per-client accuracy, each client blending
    queries with its own ``t``, over rounds ``eval_from`` to ``rounds`` of the
    fixed budget: single rounds swing by up to 0.2 in this regime.

    On a shared box the same work runs faster or slower by tens of percent
    for seconds at a time, so repeated measurements are spread over the run
    instead of taken back to back: the extra set-ups are built between the
    first timed rounds, and the light audit attacks the global model after
    every ``AUDIT_EVERY``-th round up to ``rounds``, each audit the same
    amount of work.  ``mia_acc_max`` is the verdict on the final model, which
    is audited twice to check that the verdict repeats.
    """
    size = CIP_SIZES[size_name]
    rounds = size["rounds"]
    audit_rounds = range(rounds, 0, -AUDIT_EVERY)[: size["audits"]]
    snapshot_rounds = range(max(0, min(audit_rounds) - SNAPSHOT_TAIL), rounds)
    setup_times: List[float] = []
    round_times: List[Dict[int, float]] = []
    round_p50: List[float] = []
    audit_times: List[Dict[str, float]] = []
    with use_backend("accelerated", compute_dtype="float32"):

        def build():
            phases.enter("setup")
            with timed() as setup_time:
                built = _cip_federation(seed, "cip", size["clients"], size["samples_per_class"],
                                        snapshot_rounds, engine="batched")
            setup_times.append(setup_time.paced)
            return built

        simulation, train, test, config, factory = build()
        pools = _split_pools(train, test, seed)
        evaluator = StateEvaluator(factory(), forward=cip_zero_blend_forward(config))

        def audit():
            """Light audit of the current global model and the snapshots
            of the rounds that led to it."""
            phases.enter("check")
            model = factory()
            model.load_state_dict(simulation.server.global_state())
            seconds_taken, verdict = _light_audit(
                CIPTarget(model, test.num_classes, config), evaluator,
                simulation.history.snapshots[-SNAPSHOT_TAIL:], pools, victim_id=None,
            )
            audit_times.append(seconds_taken)
            return verdict

        with simulation:
            # The first round warms the backend's workspaces; it still
            # counts towards the fixed round budget.
            phases.enter("warmup")
            simulation.run(1)
            accuracies: List[float] = []
            while simulation.server.round < work_units(seconds, size):
                phases.enter("timed")
                with timed() as round_time:
                    simulation.run(1)
                # Every round is the same work: one part, repeated.
                round_times.append({0: round_time.paced})
                round_p50.append(
                    simulation.history.round_metrics[-1].wall_clock_seconds * round_time.scale
                )
                done = simulation.server.round
                if size["eval_from"] <= done <= rounds:
                    phases.enter("check")
                    accuracies.append(float(np.mean(simulation.evaluate_clients(test))))
                if done in audit_rounds:
                    verdict = audit()
                if done == rounds:
                    repeated = audit()
                if len(setup_times) < size["setups"]:
                    build()
            phases.enter("done")
            history = simulation.history
            timed_metrics = history.round_metrics[1:]
            final_state = simulation.server.global_state()
    accuracy = float(np.mean(accuracies))
    acc_max, audit_ok = _verdict_metrics(verdict)
    attempted, failed, balanced = _round_accounting(history, size["clients"])
    timed_rounds = len(timed_metrics)
    return Outcome(
        metrics={
            "setup_s": statistics.median(setup_times),
            "rounds_per_s": 1.0 / paced_total(round_times),
            "round_p50_s": statistics.median(round_p50),
            "peak_rss_mb": _peak_rss_mb(),
            "upload_mb_per_round": sum(m.bytes_aggregated for m in timed_metrics)
            / timed_rounds / 1e6,
            "test_accuracy": accuracy,
            "audit_s": paced_total(audit_times),
            "mia_acc_max": acc_max,
        },
        attempted=attempted,
        failed=failed,
        checks={
            "global_state_finite": _finite_state(final_state),
            "test_accuracy_above_floor": accuracy > size["accuracy_floor"],
            "rounds_balanced": balanced,
            "audit_finite": audit_ok,
            "audit_repeatable": repeated == verdict,
        },
        primary="rounds_per_s",
        units=timed_rounds,
        setups=len(setup_times),
        counters=_round_counters(timed_metrics),
        config={"engine": "batched", "nn_backend": "accelerated", "dtype": "float32",
                "codec": "none", "state_store": "eager"},
    )


def _round_counters(timed_metrics) -> Dict[str, float]:
    participants = sum(len(m.client_compute_seconds) for m in timed_metrics)
    dense = sum(m.bytes_aggregated_dense for m in timed_metrics)
    wire = sum(m.bytes_aggregated for m in timed_metrics)
    return {
        "participants": float(participants),
        "communication.compression_ratio": dense / wire if wire else 0.0,
    }


# ----------------------------------------------------------------------
# cohort_virtual
# ----------------------------------------------------------------------
COHORT_SPEC = ImageSpec(num_classes=4, channels=1, height=8, width=8, noise_scale=0.1)
COHORT_SIZES = {
    "full": dict(population=2000, cohort=100, per_client=8, holdout=800, rounds=10, lr=0.2, batch=4,
                 checkpoint_every=5, capacity=32, shards=4, audit_repeats=5,
                 min_units=2, units_per_s=0.25),
    "tiny": dict(population=40, cohort=8, per_client=4, holdout=32, rounds=3, lr=0.2, batch=4,
                 checkpoint_every=2, capacity=4, shards=2, audit_repeats=2,
                 min_units=2, units_per_s=0.0),
}
TOPK_FRACTION = 0.1


def _build_cohort(seed: int, size: dict, workdir: str, episode: int):
    per_client = size["per_client"]
    population = size["population"]
    pool_size = population * per_client + size["holdout"]
    pool = generate_image_dataset(
        COHORT_SPEC, -(-pool_size // COHORT_SPEC.num_classes), seed, "train"
    )
    shard_bounds = per_client * population
    holdout = pool.subset(range(shard_bounds, shard_bounds + size["holdout"]))

    def model_factory():
        return build_model(
            "vgg", COHORT_SPEC.num_classes, in_channels=COHORT_SPEC.channels,
            stage_channels=(8, 16), convs_per_stage=1,
            seed=derive_rng(seed, "bench-cohort-model"),
        )

    def client_factory(cid: int) -> FLClient:
        shard = Dataset(
            pool.inputs[cid * per_client:(cid + 1) * per_client],
            pool.labels[cid * per_client:(cid + 1) * per_client],
            pool.num_classes,
        )
        return FLClient(cid, shard, model_factory, ClientConfig(lr=size["lr"], batch_size=size["batch"]),
                        seed=derive_rng(seed, "bench-cohort-client", cid))

    episode_dir = os.path.join(workdir, f"cohort-{episode}")
    store = LRUStateStore(capacity=size["capacity"], spill_dir=os.path.join(episode_dir, "spill"))
    registry = ClientRegistry(client_factory, population=population, store=store,
                              spec={"bench": "cohort_virtual", "seed": seed})
    server = FLServer(model_factory)
    server.set_aggregator("fedavg", shards=size["shards"])
    rounds = size["rounds"]
    simulation = FederatedSimulation(
        server,
        registry=registry,
        clients_per_round=size["cohort"],
        sampling_seed=seed,
        executor=make_executor(backend="batched", codec="topk", topk_fraction=TOPK_FRACTION),
        checkpoint=CheckpointConfig(
            directory=os.path.join(episode_dir, "checkpoints"),
            every=size["checkpoint_every"], keep=0,
        ),
        snapshot_rounds=range(rounds - SNAPSHOT_TAIL, rounds),
    )
    return simulation, holdout, model_factory, episode_dir


def cohort_virtual(seed: int, seconds: float, workdir: str, size_name: str,
                   phases: Phases) -> Outcome:
    """Identical episodes, each a fresh federation run for a fixed number of
    rounds; at least two, so each run checks its own replay.

    The checkpoint holds every client touched so far, so round cost grows
    within an episode; fixed-length episodes keep a faster program from
    measuring a different mix of rounds.

    Each episode's light audit is repeated after every other timed round of
    the next episode (the last one's after it), so the audit repeats are spread
    over the run as the rounds are.  Every episode ends in the same model,
    which the replay checks confirm.
    """
    size = COHORT_SIZES[size_name]
    cohort = size["cohort"]
    setup_times: List[float] = []
    round_p50: List[float] = []
    #: Per episode, the paced time of each round, checkpoint included.
    episode_times: List[Dict[int, float]] = []
    digests: List[str] = []
    accuracies: List[float] = []
    audit_times: List[Dict[str, float]] = []
    verdicts = []
    attempted = failed = 0
    checks = {"max_live_within_cohort": True, "rounds_balanced": True}
    totals = dict.fromkeys(("participants", "registry.materialized_total", "store.evictions",
                            "store.rehydrations", "checkpoint.saves", "checkpoint.bytes",
                            "bytes_dense", "bytes_wire"), 0)
    store_lookups = {"hits": 0, "lookups": 0}
    #: The previous episode's light-audit inputs.
    audit_inputs = None

    def audit():
        phases.enter("check")
        seconds_taken, verdict = _light_audit(*audit_inputs, victim_id=None)
        audit_times.append(seconds_taken)
        verdicts.append(verdict)

    with use_backend("numpy", compute_dtype="float64"):
        for episode in range(work_units(seconds, size)):
            phases.enter("setup")
            with timed() as setup_time:
                simulation, holdout, model_factory, episode_dir = _build_cohort(
                    seed, size, workdir, episode
                )
            setup_times.append(setup_time.paced)
            registry = simulation.registry
            store = registry.store
            if phases.tracer is not None:
                _count_store_lookups(store, store_lookups)
            with simulation:
                positions: Dict[int, float] = {}
                for position in range(size["rounds"]):
                    phases.enter("timed")
                    with timed() as round_time:
                        simulation.run(1)
                    positions[position] = round_time.paced
                    round_p50.append(
                        simulation.history.round_metrics[-1].wall_clock_seconds
                        * round_time.scale
                    )
                    if audit_inputs is not None and position % 2:
                        audit()
                episode_times.append(positions)
                phases.enter("check")
                history = simulation.history
                checkpoints = [entry.path for entry in os.scandir(simulation.checkpoint.directory)]
                for key, value in (
                    ("participants", sum(len(losses) for losses in history.train_losses)),
                    ("registry.materialized_total", registry.materialized_total),
                    ("store.evictions", store.evictions),
                    ("store.rehydrations", store.rehydrations),
                    ("checkpoint.saves", len(checkpoints)),
                    ("checkpoint.bytes", sum(os.path.getsize(path) for path in checkpoints)),
                    ("bytes_dense", sum(m.bytes_aggregated_dense for m in history.round_metrics)),
                    ("bytes_wire", sum(m.bytes_aggregated for m in history.round_metrics)),
                ):
                    totals[key] += value
                digests.append(state_digest(simulation.server.global_state()))
                accuracies.append(simulation.evaluate_global(holdout).accuracy)
                # Members: the shards of the last round's cohort.
                members = Dataset.concatenate([
                    registry.materialize_for_read(cid).dataset
                    for cid in sorted(history.train_losses[-1])
                ])
                audit_inputs = (
                    PlainTarget(simulation.server.model, COHORT_SPEC.num_classes),
                    StateEvaluator(model_factory(), forward=plain_forward),
                    history.snapshots,
                    _split_pools(members, holdout, seed),
                )
                ep_attempted, ep_failed, balanced = _round_accounting(history, cohort)
                attempted += ep_attempted
                failed += ep_failed
                checks["rounds_balanced"] &= balanced
                checks["max_live_within_cohort"] &= registry.max_live <= cohort
                registry.close()
            shutil.rmtree(episode_dir, ignore_errors=True)
        for _ in range(size["audit_repeats"]):
            audit()
        phases.enter("done")
    rounds = size["rounds"] * len(episode_times)
    checks["replay_digest_equal"] = len(set(digests)) == 1
    # Repeats within an episode and replays across episodes must agree.
    checks["audit_repeatable"] = all(v == verdicts[0] for v in verdicts)
    checks["accuracy_replay_equal"] = len(set(accuracies)) == 1
    acc_max, checks["audit_finite"] = _verdict_metrics(verdicts[0])
    saves = totals["checkpoint.saves"]
    counters = {
        key: float(totals[key])
        for key in ("participants", "registry.materialized_total", "store.evictions",
                    "store.rehydrations", "checkpoint.saves")
    }
    counters.update({
        "checkpoint.bytes": totals["checkpoint.bytes"] / saves if saves else 0.0,
        "communication.compression_ratio": totals["bytes_dense"] / totals["bytes_wire"],
        "store.hit_ratio": (store_lookups["hits"] / store_lookups["lookups"]
                            if store_lookups["lookups"] else 0.0),
    })
    return Outcome(
        metrics={
            "setup_s": statistics.median(setup_times),
            # Round costs differ within an episode (checkpoints, a growing
            # spilled set), so each round of the episode is a part of its own.
            "rounds_per_s": size["rounds"] / paced_total(episode_times),
            "round_p50_s": statistics.median(round_p50),
            "peak_rss_mb": _peak_rss_mb(),
            "upload_mb_per_round": totals["bytes_wire"] / rounds / 1e6,
            "test_accuracy": accuracies[0],
            "audit_s": paced_total(audit_times),
            "mia_acc_max": acc_max,
        },
        attempted=attempted,
        failed=failed,
        checks=checks,
        primary="rounds_per_s",
        units=rounds,
        setups=len(setup_times),
        counters=counters,
        config={"engine": "batched", "nn_backend": "numpy", "dtype": "float64",
                "codec": f"topk({TOPK_FRACTION})", "state_store": "lru",
                "aggregation": f"fedavg/{size['shards']}-shard"},
    )


def _count_store_lookups(store: LRUStateStore, counts: Dict[str, int]) -> None:
    """Count checkout lookups of dirty states and those served from memory.

    Shadows ``pop`` on this one store object; the class method, and any
    span wrapped around it, still runs underneath.
    """
    pop = store.pop

    def counted_pop(client_id):
        rehydrated = store.rehydrations
        state = pop(client_id)
        if state is not None:
            counts["lookups"] += 1
            counts["hits"] += store.rehydrations == rehydrated
        return state

    store.pop = counted_pop


# ----------------------------------------------------------------------
# mia_audit
# ----------------------------------------------------------------------
MIA_SIZES = {
    "full": dict(clients=2, samples_per_class=12, rounds=8, batch=16, setups=3, shadow_per_class=12,
                 shadow_epochs=6, whitebox_pool=48, eval_per_class=20, acc_bound=0.75,
                 min_units=2, units_per_s=0.3),
    "tiny": dict(clients=2, samples_per_class=3, rounds=3, batch=32, setups=2, shadow_per_class=3,
                 shadow_epochs=1, whitebox_pool=4, eval_per_class=2, acc_bound=1.0,
                 min_units=1, units_per_s=0.0),
}
MIA_ALPHA = 0.5


def _float64(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {name: value.astype(np.float64) if np.issubdtype(value.dtype, np.floating)
            else value for name, value in state.items()}


#: The audited federation is the same for every run seed: the workload is
#: an audit of one given model.  The run seed draws the attacker's side:
#: the member and non-member pools, the shadow data and every attack's
#: randomness.
TARGET_SEED = 0


def _train_audit_target(size: dict):
    """Train the audited federation on the accelerated float32 backend.

    The audit runs on the float64 reference backend, so it gets float64
    copies of the snapshots and of the final global state.  ``test_accuracy``
    is the mean per-client accuracy over the snapshot rounds.  Each round
    after the first, which warms the backend's workspaces, is timed.
    """
    with use_backend("accelerated", compute_dtype="float32"):
        simulation, train, test, config, factory = _cip_federation(
            TARGET_SEED, "mia", size["clients"], size["samples_per_class"],
            range(size["rounds"] - SNAPSHOT_TAIL, size["rounds"]),
            engine="batched", batch_size=size["batch"],
        )
        accuracies = []
        round_times: List[Timing] = []
        eval_set = test.take(size["eval_per_class"] * test.num_classes)
        with simulation:
            simulation.run(1)
            while simulation.server.round < size["rounds"]:
                with timed() as round_time:
                    simulation.run(1)
                round_times.append(round_time)
                if simulation.server.round > size["rounds"] - SNAPSHOT_TAIL:
                    accuracies.append(float(np.mean(simulation.evaluate_clients(eval_set))))
    snapshots = [
        replace(snapshot,
                global_state_before=_float64(snapshot.global_state_before),
                global_state_after=_float64(snapshot.global_state_after),
                client_states={cid: _float64(state)
                               for cid, state in snapshot.client_states.items()})
        for snapshot in simulation.history.snapshots
    ]
    return AuditTarget(
        simulation=simulation,
        snapshots=snapshots,
        global_state=_float64(simulation.server.global_state()),
        train=train,
        test=test,
        config=config,
        factory=factory,
        accuracy=float(np.mean(accuracies)),
        round_times=round_times,
    )


@dataclass
class AuditTarget:
    simulation: FederatedSimulation
    snapshots: list
    global_state: Dict[str, np.ndarray]
    train: Dataset
    test: Dataset
    config: object
    factory: object
    accuracy: float
    #: Timing of each round after the first, snapshots included.
    round_times: List[Timing]


def _full_audit(seed: int, size: dict, audited: AuditTarget):
    """The passive internal attack on the snapshots of the global model,
    then the Table IV suite against the final global model.  Returns each
    attack's (accuracy, AUC) and the paced seconds of each stage."""
    verdict: Dict[str, Tuple[float, float]] = {}
    seconds: Dict[str, float] = {}
    train, test, config, factory = audited.train, audited.test, audited.config, audited.factory
    with timed() as stage:
        pools = _split_pools(train, test, seed)
        evaluator = StateEvaluator(factory(), forward=cip_zero_blend_forward(config))
        passive = PassiveServerAttack(evaluator, victim_id=None).run(
            audited.snapshots, pools.known_members, pools.known_nonmembers,
            pools.eval_members, pools.eval_nonmembers,
        )
    verdict[passive.attack] = (passive.accuracy, passive.auc)
    seconds[passive.attack] = stage.paced
    with timed() as stage:
        # The attacker samples its own data from the target's distribution.
        attacker_pool = load_attacker_pool("chmnist", seed=DATASET_SEED,
                                           samples_per_class=POOL_PER_CLASS)
        picked = derive_rng(seed, "bench-shadow-sample").permutation(len(attacker_pool))
        attacker_data = attacker_pool.subset(
            picked[: size["shadow_per_class"] * CHMNIST_SPEC.num_classes]
        )
        # A fresh config per audit, so each audit trains its shadow model.
        shadow = ShadowConfig(
            model_factory=lambda: build_model(
                "resnet", CHMNIST_SPEC.num_classes, in_channels=CHMNIST_SPEC.channels,
                seed=derive_rng(seed, "bench-shadow-model"),
            ),
            epochs=size["shadow_epochs"],
            lr=5e-2,
            seed=derive_rng(seed, "bench-shadow-train"),
            attacker_data=attacker_data,
        )
        attacks = {
            "Ob-Label": ObLabelAttack(),
            "Ob-MALT": ObMALTAttack(calibration="shadow", shadow=shadow),
            "Ob-NN": ObNNAttack(epochs=40, seed=seed, calibration="shadow", shadow=shadow),
            "Ob-BlindMI": ObBlindMIAttack(num_generated=30, max_iterations=4, seed=seed),
            "Pb-Bayes": PbBayesAttack(),
        }
        pool = size["whitebox_pool"]
        whitebox_pools = _split_pools(train.take(pool), test.take(pool), seed)
        # Pb-Bayes takes per-sample gradients in train mode, which moves the
        # BatchNorm running statistics of the model it attacks.  Each audit
        # therefore attacks its own copy of the trained global model.
        model = factory()
        model.load_state_dict(audited.global_state)
        target = CIPTarget(model, test.num_classes, config)
    seconds["attacker set-up"] = stage.paced
    for name, attack in attacks.items():
        data = whitebox_pools if name == "Pb-Bayes" else pools
        with timed() as stage:
            report = evaluate_attack(attack, target, data)
        verdict[name] = (report.accuracy, report.auc)
        seconds[name] = stage.paced
    return verdict, seconds


def mia_audit(seed: int, seconds: float, workdir: str, size_name: str, phases: Phases) -> Outcome:
    size = MIA_SIZES[size_name]
    audits = work_units(seconds, size)
    setup_times: List[float] = []
    setup_rounds = []
    round_times: List[Dict[int, float]] = []
    round_p50: List[float] = []
    accuracies = set()
    audit_times: List[Dict[str, float]] = []
    verdicts = []
    with use_backend("numpy", compute_dtype="float64"):
        # Set-ups and audits alternate, so every kind of repeat is spread
        # over the whole run rather than one stretch of it: the timing on a
        # shared box drifts by tens of percent over a few seconds.
        for setup in range(size["setups"]):
            phases.enter("setup")
            audited = None  # drop the previous target before building the next
            # Includes the probes around the set-up's own timed rounds,
            # about 2 % of it.
            with timed() as setup_time:
                audited = _train_audit_target(size)
            setup_times.append(setup_time.paced)
            setup_rounds += audited.simulation.history.round_metrics
            # Every round after the first is the same work.
            for timing, metrics in zip(audited.round_times,
                                       audited.simulation.history.round_metrics[1:]):
                round_times.append({0: timing.paced})
                round_p50.append(metrics.wall_clock_seconds * timing.scale)
            accuracies.add(audited.accuracy)
            share = audits * (setup + 1) // size["setups"] - audits * setup // size["setups"]
            for _ in range(share):
                phases.enter("timed")
                verdict, seconds_taken = _full_audit(seed, size, audited)
                verdicts.append(verdict)
                audit_times.append(seconds_taken)
        phases.enter("done")
    acc_max, finite = _verdict_metrics(verdicts[0])
    attempted = len(verdicts) * len(verdicts[0])
    failed = sum(
        not (math.isfinite(acc) and math.isfinite(auc))
        for verdict in verdicts for acc, auc in verdict.values()
    )
    return Outcome(
        metrics={
            "setup_s": statistics.median(setup_times),
            "rounds_per_s": 1.0 / paced_total(round_times),
            "round_p50_s": statistics.median(round_p50),
            "peak_rss_mb": _peak_rss_mb(),
            "upload_mb_per_round": sum(m.bytes_aggregated for m in setup_rounds)
            / len(setup_rounds) / 1e6,
            "test_accuracy": audited.accuracy,
            "audit_s": paced_total(audit_times),
            "mia_acc_max": acc_max,
        },
        attempted=attempted,
        failed=failed,
        checks={
            "attacks_finite": finite,
            "mia_acc_max_within_bound": acc_max < size["acc_bound"],
            "verdict_repeatable": all(v == verdicts[0] for v in verdicts),
            "setup_repeatable": len(accuracies) == 1,
        },
        primary="audit_s",
        units=len(audit_times),
        setups=len(setup_times),
        counters={"participants": 0.0, "communication.compression_ratio": 1.0},
        config={"engine": "batched (set-up federation)",
                "nn_backend": "numpy (set-up: accelerated)",
                "dtype": "float64 (set-up: float32)", "codec": "none", "state_store": "eager"},
    )


WORKLOADS = {
    "cip_silo": cip_silo,
    "cohort_virtual": cohort_virtual,
    "mia_audit": mia_audit,
}
