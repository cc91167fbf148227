"""The five external MI attacks: signal on an overfit target, collapse on CIP."""

import numpy as np
import pytest

from repro.attacks import (
    ObBlindMIAttack,
    ObLabelAttack,
    ObMALTAttack,
    ObNNAttack,
    PbBayesAttack,
    evaluate_attack,
)
from repro.attacks.base import AttackData, PlainTarget
from repro.attacks.ob_blindmi import gaussian_mmd
from repro.attacks.ob_nn import posterior_features
from repro.attacks.pb_bayes import whitebox_features
from repro.data.dataset import Dataset
from repro.nn.models import build_model


ALL_ATTACKS = [
    ("Ob-Label", lambda: ObLabelAttack()),
    ("Ob-MALT", lambda: ObMALTAttack()),
    ("Ob-NN", lambda: ObNNAttack(epochs=30, seed=0)),
    ("Ob-BlindMI", lambda: ObBlindMIAttack(num_generated=20, max_iterations=3, seed=0)),
    ("Pb-Bayes", lambda: PbBayesAttack()),
]


class TestAttacksOnOverfitTarget:
    @pytest.mark.parametrize("name,make", ALL_ATTACKS)
    def test_beats_random_guessing(self, name, make, overfit_target, attack_data):
        report = evaluate_attack(make(), overfit_target, attack_data)
        assert report.accuracy > 0.6, f"{name} failed to exploit overfitting"
        assert report.attack == name

    @pytest.mark.parametrize("name,make", ALL_ATTACKS)
    def test_scores_in_unit_interval(self, name, make, overfit_target, attack_data):
        attack = make()
        attack.fit(overfit_target, attack_data)
        scores = attack.score(overfit_target, attack_data.eval_members)
        assert scores.min() >= 0.0 and scores.max() <= 1.0


class TestAttacksCollapseUnderCIP:
    @pytest.mark.parametrize(
        "name,make", [a for a in ALL_ATTACKS if a[0] != "Pb-Bayes"]
    )
    def test_near_random_on_cip(self, name, make, cip_target, attack_data):
        report = evaluate_attack(make(), cip_target, attack_data)
        assert report.accuracy < 0.65, f"{name} should collapse under CIP"

    def test_pb_bayes_weakened_on_cip(self, cip_target, overfit_target, attack_data):
        strong = evaluate_attack(PbBayesAttack(), overfit_target, attack_data)
        weak = evaluate_attack(PbBayesAttack(), cip_target, attack_data)
        assert weak.accuracy < strong.accuracy


class TestPbBayesLeavesTargetUnchanged:
    """Per-sample gradients run in train mode; BatchNorm running statistics
    must not drift, or a second audit of the same model reads differently."""

    def _bn_target_and_data(self):
        rng = np.random.default_rng(0)
        model = build_model(
            "vgg", 3, in_channels=1, stage_channels=(4,), convs_per_stage=1, seed=0
        )
        model.eval()

        def pool(n):
            return Dataset(rng.random((n, 1, 6, 6)), rng.integers(0, 3, n), 3)

        data = AttackData(pool(8), pool(8), pool(6), pool(6))
        return PlainTarget(model, 3), data

    def test_state_and_mode_unchanged(self):
        target, data = self._bn_target_and_data()
        assert any("running_mean" in name for name in target.state())
        before = target.state()
        target.per_sample_grad_norms(data.known_members.inputs, data.known_members.labels)
        after = target.state()
        assert before.keys() == after.keys()
        for key in before:
            assert np.array_equal(before[key], after[key]), key
        assert not any(module.training for module in target.module.modules())
        target.module.train()
        target.per_sample_grad_norms(data.known_members.inputs[:2], data.known_members.labels[:2])
        assert all(module.training for module in target.module.modules())

    def test_repeated_evaluation_is_identical(self):
        target, data = self._bn_target_and_data()
        features = whitebox_features(target, data.eval_members)
        first = evaluate_attack(PbBayesAttack(), target, data)
        second = evaluate_attack(PbBayesAttack(), target, data)
        assert first == second
        assert np.array_equal(whitebox_features(target, data.eval_members), features)


class TestObMALT:
    def test_threshold_between_pool_means(self, overfit_target, attack_data):
        attack = ObMALTAttack()
        attack.fit(overfit_target, attack_data)
        member_losses = overfit_target.per_sample_loss(
            attack_data.known_members.inputs, attack_data.known_members.labels
        )
        nonmember_losses = overfit_target.per_sample_loss(
            attack_data.known_nonmembers.inputs, attack_data.known_nonmembers.labels
        )
        assert member_losses.mean() < attack.threshold < nonmember_losses.mean()


class TestObNN:
    def test_requires_fit(self, overfit_target, attack_data):
        with pytest.raises(RuntimeError):
            ObNNAttack().score(overfit_target, attack_data.eval_members)

    def test_feature_shape(self, overfit_target, attack_data):
        feats = posterior_features(overfit_target, attack_data.eval_members, top_k=3)
        assert feats.shape == (len(attack_data.eval_members), 5)

    def test_top_k_clamped_to_classes(self, overfit_target, attack_data):
        feats = posterior_features(overfit_target, attack_data.eval_members, top_k=10)
        assert feats.shape[1] == 12


class TestBlindMI:
    def test_mmd_zero_for_identical_sets(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        assert abs(gaussian_mmd(x, x)) < 1e-9

    def test_mmd_positive_for_different_sets(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, size=(20, 3))
        y = rng.normal(5, 1, size=(20, 3))
        assert gaussian_mmd(x, y) > 0.1

    def test_mmd_empty_set(self):
        assert gaussian_mmd(np.zeros((0, 3)), np.zeros((5, 3))) == 0.0


class TestPbBayes:
    def test_whitebox_features_shape(self, overfit_target, attack_data):
        feats = whitebox_features(overfit_target, attack_data.eval_members.take(5))
        assert feats.shape == (5, 3)
        assert np.isfinite(feats).all()
