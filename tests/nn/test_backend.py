"""The pluggable array-backend layer: registry, dtype policy, equivalence.

Three guarantees are pinned here:

1. Registry/policy semantics — activation is scoped (``use_backend``
   restores), unknown names fail fast, and the two shipped policies coerce
   leaves exactly as documented.
2. ``AcceleratedBackend`` is a drop-in: forward *and* backward results
   match ``NumpyBackend`` within dtype-appropriate tolerances on the
   conv/pool/matmul shapes the model zoo actually uses, and its workspace
   pool reaches a steady state (no per-step growth) that
   ``clear_workspaces()`` empties.
3. The float64-upcast leaks fixed in this refactor stay fixed: ``one_hot``
   honours an explicit dtype, losses follow their logits' dtype, and under
   the float32 policy only the reduced loss is float64.

Plus the dispatch hygiene lint: no ``np.matmul``/``np.einsum``/
``as_strided`` outside ``backend.py``.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import layers as L
from repro.nn.backend import (
    AcceleratedBackend,
    NumpyBackend,
    active_backend_name,
    active_compute_dtype,
    available_backends,
    available_dtype_policies,
    get_backend,
    get_dtype_policy,
    get_policy,
    set_backend,
    use_backend,
)
from repro.nn.losses import cross_entropy, nll_loss
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# Registry / activation semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_backends_and_policies(self):
        assert "numpy" in available_backends()
        assert "accelerated" in available_backends()
        assert set(available_dtype_policies()) == {"float64", "float32"}

    def test_default_configuration(self):
        if os.environ.get("REPRO_NN_BACKEND") or os.environ.get(
            "REPRO_NN_COMPUTE_DTYPE"
        ):
            pytest.skip("ambient backend overridden via the environment")
        assert active_backend_name() == "numpy"
        assert active_compute_dtype() == "float64"
        assert isinstance(get_backend(), NumpyBackend)

    def test_unknown_names_fail_fast(self):
        with pytest.raises(ValueError, match="unknown"):
            set_backend("tpu")
        with pytest.raises(ValueError, match="unknown"):
            get_policy("float16")

    def test_use_backend_scopes_and_restores(self):
        ambient = (active_backend_name(), active_compute_dtype())
        with use_backend("accelerated", compute_dtype="float32"):
            assert active_backend_name() == "accelerated"
            assert active_compute_dtype() == "float32"
            assert isinstance(get_backend(), AcceleratedBackend)
        assert (active_backend_name(), active_compute_dtype()) == ambient

    def test_use_backend_restores_on_exception(self):
        ambient = active_backend_name()
        with pytest.raises(RuntimeError):
            with use_backend("accelerated"):
                raise RuntimeError("boom")
        assert active_backend_name() == ambient

    def test_partial_activation_leaves_other_axis(self):
        ambient_backend = active_backend_name()
        ambient_dtype = active_compute_dtype()
        with use_backend(compute_dtype="float32"):
            assert active_backend_name() == ambient_backend
            assert active_compute_dtype() == "float32"
        with use_backend("accelerated"):
            assert active_compute_dtype() == ambient_dtype

    def test_backend_instances_are_singletons(self):
        with use_backend("accelerated"):
            first = get_backend()
        with use_backend("accelerated"):
            assert get_backend() is first


class TestDtypePolicy:
    def test_float64_policy_matches_seed_coercion(self):
        policy = get_policy("float64")
        # Differentiable int data is promoted (the seed rule) ...
        assert policy.coerce_leaf(
            np.arange(4), requires_grad=True, is_leaf=True
        ).dtype == np.float64
        # ... but float32 leaves keep their dtype.
        leaf = np.ones(3, dtype=np.float32)
        assert policy.coerce_leaf(leaf, True, True).dtype == np.float32
        assert policy.grad_dtype(np.dtype(np.float32)) == np.float64
        assert policy.loss_dtype == np.float64

    def test_float32_policy_casts_leaves_and_keeps_grads(self):
        policy = get_policy("float32")
        assert policy.coerce_leaf(np.ones(3), True, True).dtype == np.float32
        assert policy.grad_dtype(np.dtype(np.float32)) == np.float32
        # Loss accumulation stays float64 under every policy.
        assert policy.loss_dtype == np.float64

    def test_float32_policy_applies_to_tensor_leaves(self):
        with use_backend(compute_dtype="float32"):
            leaf = Tensor(np.ones((2, 2)), requires_grad=True)
            assert leaf.dtype == np.float32
            out = leaf * 2.0
            assert out.dtype == np.float32
            out.sum().backward()
            assert leaf.grad.dtype == np.float32

    def test_float32_policy_does_not_cast_op_outputs(self):
        # The astype op deliberately produces a float64 output under the
        # float32 policy (loss accumulation); policy coercion must not
        # squash non-leaf tensors back down.
        with use_backend(compute_dtype="float32"):
            leaf = Tensor(np.ones(3), requires_grad=True)
            wide = leaf.astype(np.float64)
            assert wide.dtype == np.float64
            wide.sum().backward()
            assert leaf.grad.dtype == np.float32

    def test_parameters_follow_policy(self):
        assert L.Parameter(np.zeros(3)).dtype == np.float64
        with use_backend(compute_dtype="float32"):
            assert L.Parameter(np.zeros(3)).dtype == np.float32


# ----------------------------------------------------------------------
# Accelerated vs numpy equivalence on model-zoo shapes
# ----------------------------------------------------------------------
def _run_conv(stride, padding, dtype="float64", channels=3, kernel=3):
    rng = np.random.default_rng(5)
    x_data = rng.normal(size=(4, channels, 8, 8))
    w_data = rng.normal(size=(8, channels, kernel, kernel)) * 0.1
    b_data = rng.normal(size=(8,)) * 0.1
    with use_backend(active_backend_name(), compute_dtype=dtype):
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        out.sum().backward()
        return out.data, x.grad, w.grad, b.grad


def _run_pool(op, dtype="float64"):
    rng = np.random.default_rng(6)
    x_data = rng.normal(size=(4, 3, 8, 8))
    with use_backend(active_backend_name(), compute_dtype=dtype):
        x = Tensor(x_data, requires_grad=True)
        out = op(x, 2, 2)
        out.sum().backward()
        return out.data, x.grad


def _run_matmul(shapes, dtype="float64"):
    rng = np.random.default_rng(7)
    datas = [rng.normal(size=shape) for shape in shapes]
    with use_backend(active_backend_name(), compute_dtype=dtype):
        tensors = [Tensor(d, requires_grad=True) for d in datas]
        out = tensors[0] @ tensors[1]
        out.sum().backward()
        return (out.data,) + tuple(t.grad for t in tensors)


CASES = [
    ("conv-s1-p1", lambda d: _run_conv(1, 1, d)),  # VGG body
    ("conv-s2-p0", lambda d: _run_conv(2, 0, d)),
    # MiniResNet: 1-channel stem, strided 3x3 and 1x1 shortcut convs.
    ("conv-stem-1ch", lambda d: _run_conv(1, 1, d, channels=1)),
    ("conv-k3-s2-p1", lambda d: _run_conv(2, 1, d)),
    ("conv-k1-s2-p0", lambda d: _run_conv(2, 0, d, kernel=1)),
    ("max-pool", lambda d: _run_pool(F.max_pool2d, d)),
    ("avg-pool", lambda d: _run_pool(F.avg_pool2d, d)),
    ("matmul-2d", lambda d: _run_matmul([(16, 10), (10, 4)], d)),  # Linear
    ("matmul-batched", lambda d: _run_matmul([(2, 5, 7), (2, 7, 3)], d)),
]


class TestAcceleratedEquivalence:
    @pytest.mark.parametrize("name,case", CASES, ids=[c[0] for c in CASES])
    def test_float64_matches_numpy(self, name, case):
        with use_backend("numpy"):
            reference = case("float64")
        with use_backend("accelerated"):
            accelerated = case("float64")
        for ref, acc in zip(reference, accelerated):
            assert acc.dtype == ref.dtype
            np.testing.assert_allclose(acc, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name,case", CASES, ids=[c[0] for c in CASES])
    def test_float32_matches_float64_reference(self, name, case):
        with use_backend("numpy"):
            reference = case("float64")
        with use_backend("accelerated"):
            accelerated = case("float32")
        for ref, acc in zip(reference, accelerated):
            assert acc.dtype == np.float32
            np.testing.assert_allclose(acc, ref, rtol=1e-3, atol=1e-4)

    def test_second_backward_raises_on_accelerated_conv(self):
        # The accelerated conv recycles its column cache inside backward;
        # a second backward over the same graph must fail loudly rather
        # than silently reuse poisoned scratch.  (Training loops never
        # re-run a backward; this is a guard, not a supported pattern.)
        rng = np.random.default_rng(8)
        with use_backend("accelerated"):
            x = Tensor(rng.normal(size=(4, 3, 8, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            out = F.conv2d(x, w, None, stride=1, padding=1)
            out.sum().backward()
            with pytest.raises(RuntimeError):
                out.sum().backward()


class TestWorkspacePool:
    def _step(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, None, stride=1, padding=1)
        out.sum().backward()

    def test_pool_reaches_steady_state_and_clears(self):
        with use_backend("accelerated"):
            backend = get_backend()
            backend.clear_workspaces()
            assert backend.workspace_stats() == (0, 0, 0, 0)
            self._step()
            after_one = backend.workspace_stats()
            assert after_one.buffers > 0
            assert after_one.misses > 0  # a cold pool can only miss
            for _ in range(3):
                self._step()
            steady = backend.workspace_stats()
            # Steady state: later steps recycle, they do not grow the pool.
            assert (steady.buffers, steady.resident_bytes) == (
                after_one.buffers,
                after_one.resident_bytes,
            )
            # Pooled shapes now hit; buffers under the pooling threshold
            # still count misses on every acquisition, so misses may grow.
            assert steady.hits > after_one.hits
            backend.clear_workspaces()
            assert backend.workspace_stats() == (0, 0, 0, 0)

    def test_small_buffers_are_not_pooled(self):
        backend = AcceleratedBackend()
        small = np.ones(16)
        backend._release(small)
        assert backend.workspace_stats() == (0, 0, 0, 0)

    def test_views_are_never_pooled(self):
        backend = AcceleratedBackend()
        base = np.ones(2 * backend._MIN_POOLED_ELEMENTS)
        view = base[: backend._MIN_POOLED_ELEMENTS + 1]
        backend._release(view)
        assert backend.workspace_stats() == (0, 0, 0, 0)

    def test_numpy_backend_is_stateless(self):
        backend = NumpyBackend()
        assert backend.workspace_stats() == (0, 0, 0, 0)
        backend.clear_workspaces()  # no-op, must not raise


# ----------------------------------------------------------------------
# float64-upcast leak regressions (satellite)
# ----------------------------------------------------------------------
class TestDtypeLeaks:
    def test_one_hot_default_stays_float64(self):
        assert F.one_hot(np.array([0, 2]), 3).dtype == np.float64

    def test_one_hot_honours_dtype(self):
        hot = F.one_hot(np.array([0, 2]), 3, dtype=np.float32)
        assert hot.dtype == np.float32
        np.testing.assert_array_equal(hot.sum(axis=1), [1.0, 1.0])

    def test_cross_entropy_per_sample_follows_logits_dtype(self):
        logits = Tensor(
            np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32),
            requires_grad=True,
        )
        labels = np.array([0, 1, 2, 1, 0])
        per_sample = cross_entropy(logits, labels, reduction="none")
        assert per_sample.dtype == np.float32

    def test_cross_entropy_weighted_no_upcast(self):
        logits = Tensor(
            np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32),
            requires_grad=True,
        )
        weighted = cross_entropy(
            logits, np.array([0, 1, 2, 0]), reduction="none",
            weights=np.ones(4),
        )
        assert weighted.dtype == np.float32

    def test_nll_loss_follows_log_probs_dtype(self):
        log_probs = F.log_softmax(
            Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        )
        assert nll_loss(log_probs, np.array([0, 1, 2]), reduction="none").dtype == np.float32

    def test_float32_policy_loss_accumulates_in_float64(self):
        with use_backend(compute_dtype="float32"):
            logits = Tensor(
                np.random.default_rng(1).normal(size=(6, 3)), requires_grad=True
            )
            assert logits.dtype == np.float32
            loss = cross_entropy(logits, np.array([0, 1, 2, 0, 1, 2]))
            # The reduced loss is float64 (accurate accumulation) but the
            # gradient flowing back to the graph is float32 again.
            assert loss.dtype == np.float64
            loss.backward()
            assert logits.grad.dtype == np.float32

    def test_float32_policy_end_to_end_training_step(self):
        with use_backend("accelerated", compute_dtype="float32"):
            from repro.nn.models import build_model
            from repro.nn.optim import SGD

            model = build_model(
                "vgg", 3, in_channels=1, stage_channels=(4,), convs_per_stage=1, seed=0
            )
            for param in model.parameters():
                assert param.dtype == np.float32
            for _, buffer in model.named_buffers():
                assert buffer.dtype == np.float32
            x = Tensor(np.random.default_rng(2).normal(size=(4, 1, 8, 8)))
            labels = np.array([0, 1, 2, 0])
            optimizer = SGD(model.parameters(), lr=0.05)
            loss = cross_entropy(model(x), labels)
            loss.backward()
            optimizer.step()
            for param in model.parameters():
                assert param.dtype == np.float32, "optimizer step upcast a parameter"

    def test_state_dict_round_trip_preserves_policy_dtype(self):
        with use_backend(compute_dtype="float32"):
            layer = L.Linear(4, 3, seed=0)
            state = layer.state_dict()
            layer.load_state_dict(state)
            assert layer.weight.dtype == np.float32


# ----------------------------------------------------------------------
# Dispatch hygiene lint (satellite)
# ----------------------------------------------------------------------
_FORBIDDEN = (
    re.compile(r"\bnp\.matmul\b"),
    re.compile(r"\bnp\.einsum\b"),
    re.compile(r"\bas_strided\b"),
)
_DISPATCHED_MODULES = ("tensor.py", "functional.py", "layers.py", "losses.py")


@pytest.mark.parametrize("module", _DISPATCHED_MODULES)
def test_no_direct_kernel_calls_outside_backend(module):
    """Array kernels live in backend.py; ops must go through dispatch."""
    import repro.nn

    path = os.path.join(os.path.dirname(repro.nn.__file__), module)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    offenders = [
        f"{module}:{lineno}: {line.strip()}"
        for lineno, line in enumerate(source.splitlines(), 1)
        for pattern in _FORBIDDEN
        if pattern.search(line)
    ]
    assert not offenders, (
        "direct kernel calls bypass the backend dispatch layer:\n"
        + "\n".join(offenders)
    )
