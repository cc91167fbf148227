"""Backend/dtype selection across the federated stack.

Pins the refactor's headline guarantees at the system level:

* **Pinned digest** — a fixed-seed 2-round FedAvg+CIP simulation under the
  default numpy/float64 configuration produces the byte-identical final
  global ``state_dict`` it produced before the backend layer existed.  If
  this digest moves, the "default backend is bitwise-identical" contract
  is broken (or the model/data/seed derivations changed — regenerate only
  after ruling that out).
* **Executor equivalence** — sequential and process-pool execution stay
  bit-identical to each other under *both* backends: the worker-pool
  initializer activates the coordinator's backend/dtype before unpickling
  clients.
* **Checkpoint compatibility** — checkpoints record the backend/dtype that
  wrote them; restoring under any other configuration fails loudly, a
  matched restore stays bit-identical, and pre-backend checkpoints (no
  metadata) load under the default configuration.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.cip_client import CIPClient
from repro.core.config import CheckpointConfig, CIPConfig
from repro.data.partition import partition_iid
from repro.data.synthetic import ImageSpec, generate_image_dataset
from repro.fl.batched import BatchedExecutor
from repro.fl.checkpoint import latest_checkpoint, load_checkpoint
from repro.fl.client import ClientConfig, FLClient
from repro.fl.executor import ParallelExecutor, SequentialExecutor
from repro.fl.server import FLServer
from repro.fl.simulation import FederatedSimulation
from repro.nn.backend import use_backend
from repro.nn.models import build_model
from repro.utils.rng import derive_rng

#: Final-global-state digest of the reference simulation below, computed on
#: the pre-backend tree.  The numpy/float64 configuration must reproduce it
#: byte for byte.
PINNED_DIGEST = "20467a59840fdafe72fa3bdaaaa4005994cc983e212096645c74aa5654df7676"

_SPEC = ImageSpec(num_classes=3, channels=1, height=8, width=8, noise_scale=0.1)


def _state_dict_digest(state):
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _conv_factory(seed=1234):
    return build_model(
        "vgg", _SPEC.num_classes, dual_channel=True, in_channels=_SPEC.channels,
        stage_channels=(4,), convs_per_stage=1, seed=derive_rng(seed, "digest-m"),
    )


def _run_reference_simulation(executor=None, seed=1234):
    """The exact fixed-seed 2-round FedAvg+CIP run the digest was taken from."""
    dataset = generate_image_dataset(_SPEC, samples_per_class=6, seed=seed)
    shards = partition_iid(dataset, 3, seed=derive_rng(seed, "digest-p"))

    def factory():
        return _conv_factory(seed)

    server = FLServer(factory)
    cip = CIPConfig(alpha=0.5, perturbation_steps=1)
    clients = [
        CIPClient(
            i, shards[i], factory, cip_config=cip,
            config=ClientConfig(lr=5e-2, batch_size=6, local_epochs=1),
            seed=derive_rng(seed, "digest-c", i),
        )
        for i in range(3)
    ]
    with FederatedSimulation(server, clients, executor=executor) as sim:
        sim.run(2)
    return server.global_state()


class TestPinnedDigest:
    def test_default_backend_reproduces_the_pre_refactor_digest(self):
        with use_backend("numpy", compute_dtype="float64"):
            state = _run_reference_simulation()
        assert _state_dict_digest(state) == PINNED_DIGEST

    def test_batched_executor_reproduces_the_pinned_digest(self):
        # CIP clients are not stackable (their local_update override owns
        # extra RNG draws), so the batched executor must route them through
        # its per-client fallback and still land on the pinned bytes.
        with use_backend("numpy", compute_dtype="float64"):
            state = _run_reference_simulation(BatchedExecutor())
        assert _state_dict_digest(state) == PINNED_DIGEST


def _run_plain_conv_federation(
    executor=None, seed=4321, stage_channels=(4,), convs_per_stage=1
):
    """A genuinely batchable federation: plain FLClients, shared config."""
    dataset = generate_image_dataset(_SPEC, samples_per_class=6, seed=seed)
    shards = partition_iid(dataset, 3, seed=derive_rng(seed, "plain-p"))

    def factory():
        return build_model(
            "vgg", _SPEC.num_classes, in_channels=_SPEC.channels,
            stage_channels=stage_channels, convs_per_stage=convs_per_stage,
            seed=derive_rng(seed, "plain-m"),
        )

    server = FLServer(factory)
    clients = [
        FLClient(
            i, shards[i], factory,
            config=ClientConfig(
                lr=5e-2, momentum=0.9, weight_decay=1e-4,
                batch_size=6, local_epochs=2,
            ),
            seed=derive_rng(seed, "plain-c", i),
        )
        for i in range(3)
    ]
    with FederatedSimulation(server, clients, executor=executor) as sim:
        history = sim.run(2)
    return server.global_state(), history.train_losses


def _assert_batched_matches_sequential(backend, dtype, **model):
    with use_backend(backend, compute_dtype=dtype):
        seq_state, seq_losses = _run_plain_conv_federation(
            SequentialExecutor(), **model
        )
        bat_state, bat_losses = _run_plain_conv_federation(BatchedExecutor(), **model)
    assert seq_losses == bat_losses  # per-round mean train losses
    assert seq_state.keys() == bat_state.keys()
    for key in seq_state:
        assert seq_state[key].dtype == bat_state[key].dtype, key
        assert np.array_equal(seq_state[key], bat_state[key]), key


class TestExecutorEquivalenceUnderBackends:
    @pytest.mark.parametrize("backend", ["numpy", "accelerated"])
    def test_sequential_matches_process_bitwise(self, backend):
        with use_backend(backend):
            seq_state = _run_reference_simulation(SequentialExecutor())
            par_state = _run_reference_simulation(ParallelExecutor(num_workers=2))
        assert seq_state.keys() == par_state.keys()
        for key in seq_state:
            assert seq_state[key].dtype == par_state[key].dtype, key
            assert np.array_equal(seq_state[key], par_state[key]), key

    @pytest.mark.parametrize("backend", ["numpy", "accelerated"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sequential_matches_batched_bitwise(self, backend, dtype):
        # Unlike the CIP reference run (which exercises the fallback), this
        # federation actually stacks: identical architectures and
        # hyperparameters across all three clients.
        _assert_batched_matches_sequential(backend, dtype)

    @pytest.mark.parametrize("backend", ["numpy", "accelerated"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_multichannel_sequential_matches_batched_bitwise(self, backend, dtype):
        # With one input channel the (C, KH, KW) and (KH, KW, C) column
        # orders coincide, so only convs over several channels catch a
        # layout split between the per-client and the grouped kernels.
        _assert_batched_matches_sequential(
            backend, dtype, stage_channels=(4, 8), convs_per_stage=2
        )

    def test_float32_run_tracks_float64_closely(self):
        with use_backend("numpy", compute_dtype="float64"):
            reference = _run_reference_simulation()
        with use_backend("accelerated", compute_dtype="float32"):
            fast = _run_reference_simulation()
        for key in reference:
            assert fast[key].dtype == np.float32, key
            np.testing.assert_allclose(
                fast[key], reference[key], rtol=1e-2, atol=1e-3, err_msg=key
            )


def _build_checkpointed_sim(dataset, directory, every=1):
    def factory():
        return build_model("mlp", 3, in_features=10, hidden=(16,), seed=0)

    shards = partition_iid(dataset, 2, seed=0)
    server = FLServer(factory)
    clients = [
        FLClient(
            i, shards[i], factory, config=ClientConfig(lr=0.05),
            seed=derive_rng(7, "bi", i),
        )
        for i in range(2)
    ]
    return FederatedSimulation(
        server, clients,
        checkpoint=CheckpointConfig(directory=directory, every=every),
    )


class TestCheckpointBackendCompatibility:
    def test_mismatched_backend_or_dtype_refuses_restore(
        self, tiny_vector_dataset, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)

        for backend, dtype in [
            ("accelerated", "float64"),
            ("numpy", "float32"),
            ("accelerated", "float32"),
        ]:
            fresh = _build_checkpointed_sim(tiny_vector_dataset, directory)
            with use_backend(backend, compute_dtype=dtype):
                with pytest.raises(ValueError, match="incompatible checkpoint"):
                    fresh.resume(3)

    def test_matched_restore_is_bit_identical(self, tiny_vector_dataset, tmp_path):
        reference = _build_checkpointed_sim(tiny_vector_dataset, str(tmp_path / "a"))
        reference.run(4)

        directory = str(tmp_path / "b")
        _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)
        resumed = _build_checkpointed_sim(tiny_vector_dataset, directory)
        resumed.resume(4)

        ref_state = reference.server.global_state()
        res_state = resumed.server.global_state()
        for key in ref_state:
            assert np.array_equal(ref_state[key], res_state[key]), key

    def test_non_default_configuration_round_trips(
        self, tiny_vector_dataset, tmp_path
    ):
        directory = str(tmp_path / "accel")
        with use_backend("accelerated", compute_dtype="float32"):
            _build_checkpointed_sim(tiny_vector_dataset, directory).run(2)
            resumed = _build_checkpointed_sim(tiny_vector_dataset, directory)
            resumed.resume(3)
            assert resumed.server.round == 3

    def test_checkpoint_records_active_configuration(
        self, tiny_vector_dataset, tmp_path
    ):
        directory = str(tmp_path / "meta")
        with use_backend("accelerated", compute_dtype="float32"):
            sim = _build_checkpointed_sim(tiny_vector_dataset, directory)
            sim.run(1)
        payload = load_checkpoint(latest_checkpoint(directory))
        assert payload["nn_backend"] == "accelerated"
        assert payload["compute_dtype"] == "float32"

    def test_pre_backend_checkpoint_loads_under_defaults(
        self, tiny_vector_dataset, tmp_path
    ):
        # Checkpoints written before the backend layer carry no metadata;
        # they were all produced by the numpy/float64 reference path.
        directory = str(tmp_path / "legacy")
        sim = _build_checkpointed_sim(tiny_vector_dataset, directory)
        sim.run(2)
        path = latest_checkpoint(directory)
        payload = load_checkpoint(path)
        del payload["nn_backend"], payload["compute_dtype"]
        # Rewritten headerless, exactly as pre-digest builds wrote it.
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

        resumed = _build_checkpointed_sim(tiny_vector_dataset, directory)
        resumed.resume(3)
        assert resumed.server.round == 3
