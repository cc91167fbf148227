"""Step I: the perturbation and its optimizer (Eq. 3)."""

import numpy as np
import pytest

from repro.core.config import CIPConfig
from repro.core.perturbation import Perturbation, optimize_perturbation_for_model
from repro.nn.backend import use_backend
from repro.nn.losses import cross_entropy, l1_norm
from repro.nn.models import build_model
from repro.nn.serialization import state_dicts_allclose


def dual_factory():
    return build_model("mlp", 4, in_features=64, hidden=(32,), dual_channel=True, seed=0)


@pytest.fixture
def flat_images(tiny_image_dataset):
    """Flatten the image fixture for the MLP dual-channel model."""
    from repro.data.dataset import Dataset

    flat = tiny_image_dataset.inputs.reshape(len(tiny_image_dataset), -1)
    return Dataset(flat, tiny_image_dataset.labels, tiny_image_dataset.num_classes)


class TestPerturbation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CIPConfig(alpha=1.5)
        with pytest.raises(ValueError):
            CIPConfig(lambda_t=-1.0)
        with pytest.raises(ValueError):
            CIPConfig(perturbation_lr=0.0)

    def test_random_init_in_clip_range(self):
        p = Perturbation((8,), CIPConfig(), seed=0)
        assert p.value.min() >= 0.0 and p.value.max() <= 1.0
        assert p.shape == (8,)

    def test_explicit_init(self):
        init = np.full((8,), 0.25)
        p = Perturbation((8,), CIPConfig(), initial=init)
        np.testing.assert_allclose(p.value, init)

    def test_explicit_init_shape_checked(self):
        with pytest.raises(ValueError):
            Perturbation((8,), CIPConfig(), initial=np.zeros(9))

    def test_value_is_a_copy(self):
        p = Perturbation((4,), CIPConfig(), seed=0)
        p.value[:] = 77.0
        assert not np.allclose(p.value, 77.0)

    def test_seeded_init_deterministic(self):
        a = Perturbation((6,), CIPConfig(), seed=5)
        b = Perturbation((6,), CIPConfig(), seed=5)
        np.testing.assert_array_equal(a.value, b.value)

    def test_step_reduces_objective(self, flat_images):
        model = dual_factory()
        config = CIPConfig(alpha=0.5, perturbation_lr=0.1)
        p = Perturbation((64,), config, seed=0)
        inputs, labels = flat_images.inputs[:16], flat_images.labels[:16]
        first = p.step(model, inputs, labels)
        for _ in range(15):
            last = p.step(model, inputs, labels)
        assert last < first

    def test_step_moves_t_not_model(self, flat_images):
        model = dual_factory()
        before = model.state_dict()
        p = Perturbation((64,), CIPConfig(alpha=0.5, perturbation_lr=0.1), seed=0)
        t_before = p.value
        p.step(model, flat_images.inputs[:8], flat_images.labels[:8])
        assert state_dicts_allclose(model.state_dict(), before)
        assert not np.allclose(p.value, t_before)

    def test_step_leaves_model_grads_clean(self, flat_images):
        model = dual_factory()
        p = Perturbation((64,), CIPConfig(alpha=0.5), seed=0)
        p.step(model, flat_images.inputs[:8], flat_images.labels[:8])
        assert all(param.grad is None for param in model.parameters())
        assert model.training  # restored to train mode

    def test_optimize_runs_configured_steps(self, flat_images):
        model = dual_factory()
        config = CIPConfig(alpha=0.5, perturbation_steps=3)
        p = Perturbation((64,), config, seed=0)
        t0 = p.value
        p.optimize(model, flat_images.inputs[:8], flat_images.labels[:8])
        assert not np.allclose(p.value, t0)

    def test_zero_steps_is_noop(self, flat_images):
        model = dual_factory()
        p = Perturbation((64,), CIPConfig(alpha=0.5, perturbation_steps=0), seed=0)
        t0 = p.value
        result = p.optimize(model, flat_images.inputs[:8], flat_images.labels[:8])
        np.testing.assert_array_equal(p.value, t0)
        assert np.isnan(result)

    def test_l1_regularizer_shrinks_t(self, flat_images):
        """With a huge lambda_t the L1 term dominates and |t| decreases."""
        model = dual_factory()
        config = CIPConfig(alpha=0.5, lambda_t=10.0, perturbation_lr=0.01)
        p = Perturbation((64,), config, seed=0)
        before = np.abs(p.value).sum()
        for _ in range(10):
            p.step(model, flat_images.inputs[:8], flat_images.labels[:8])
        assert np.abs(p.value).sum() < before


def _step_with_parameter_grads(perturbation, model, inputs, labels):
    """Step I as it ran before the parameters were frozen for it."""
    model.eval()
    perturbation.t.zero_grad()
    logits = model(perturbation.blend_batch(inputs))
    objective = cross_entropy(logits, labels) + perturbation.config.lambda_t * l1_norm(
        perturbation.t
    )
    objective.backward()
    perturbation._optimizer.step()
    model.train()
    return objective.item()


class TestStepComputesNoParameterGradients:
    """Step I freezes the parameters for its pass and restores their flags."""

    @pytest.mark.parametrize(
        "backend,dtype", [("numpy", "float64"), ("accelerated", "float32")]
    )
    def test_t_is_bitwise_equal_to_a_run_with_parameter_grads(
        self, tiny_image_dataset, backend, dtype
    ):
        inputs, labels = tiny_image_dataset.inputs[:12], tiny_image_dataset.labels[:12]
        config = CIPConfig(alpha=0.5, perturbation_lr=0.1)
        with use_backend(backend, dtype):
            frozen_model = build_model(
                "resnet", 4, dual_channel=True, in_channels=1, seed=0
            )
            graded_model = build_model(
                "resnet", 4, dual_channel=True, in_channels=1, seed=0
            )
            frozen = Perturbation((1, 8, 8), config, seed=3)
            graded = Perturbation((1, 8, 8), config, seed=3)
            for _ in range(3):
                objective = frozen.step(frozen_model, inputs, labels)
                reference = _step_with_parameter_grads(
                    graded, graded_model, inputs, labels
                )
                assert objective == reference
                np.testing.assert_array_equal(frozen.value, graded.value)
        assert all(param.grad is not None for param in graded_model.parameters())
        assert all(param.grad is None for param in frozen_model.parameters())

    def test_requires_grad_flags_are_restored(self, flat_images):
        model = dual_factory()
        params = list(model.parameters())
        params[0].requires_grad = False  # a caller's own frozen layer
        flags = [param.requires_grad for param in params]
        Perturbation((64,), CIPConfig(alpha=0.5), seed=0).step(
            model, flat_images.inputs[:8], flat_images.labels[:8]
        )
        assert [param.requires_grad for param in params] == flags

    def test_requires_grad_flags_are_restored_when_the_forward_raises(
        self, flat_images, monkeypatch
    ):
        model = dual_factory()
        params = list(model.parameters())
        params[-1].requires_grad = False
        flags = [param.requires_grad for param in params]

        def failing_forward(*args, **kwargs):
            assert not any(param.requires_grad for param in params)
            raise RuntimeError("forward failed")

        monkeypatch.setattr(model, "forward", failing_forward)
        perturbation = Perturbation((64,), CIPConfig(alpha=0.5), seed=0)
        t_before = perturbation.value
        with pytest.raises(RuntimeError, match="forward failed"):
            perturbation.step(model, flat_images.inputs[:8], flat_images.labels[:8])
        assert [param.requires_grad for param in params] == flags
        assert model.training
        np.testing.assert_array_equal(perturbation.value, t_before)


class TestOptimizeForFixedModel:
    def test_returns_fitted_perturbation(self, flat_images):
        model = dual_factory()
        config = CIPConfig(alpha=0.5, perturbation_lr=0.05)
        p = optimize_perturbation_for_model(
            model, flat_images.inputs, flat_images.labels, config, steps=5, seed=0
        )
        assert p.shape == (64,)

    def test_initial_seed_respected(self, flat_images):
        model = dual_factory()
        config = CIPConfig(alpha=0.5, perturbation_lr=1e-6)  # tiny steps
        init = np.full((64,), 0.5)
        p = optimize_perturbation_for_model(
            model, flat_images.inputs, flat_images.labels, config, steps=2, seed=0, initial=init
        )
        np.testing.assert_allclose(p.value, init, atol=1e-3)
