"""Membership-inference attack framework.

**Target APIs.**  Attacks never touch models directly; they query a
:class:`TargetModel`, which defines what the adversary can observe:

* :class:`PlainTarget` — a legacy single-channel model queried with raw
  inputs (the no-defense / baseline-defense case).
* :class:`CIPTarget` — a CIP dual-channel model.  The adversary does not
  know the client's secret ``t``, so its queries are blended with its own
  guess (``guess_t``, default zero) — exactly the information asymmetry the
  defense relies on.

Both expose white-box extras (``module``, per-sample gradient norms) used by
parameter-based attacks; output-based attacks only call ``predict`` /
``per_sample_loss``.

**Protocol.**  An attack ``fit``\\ s on calibration pools of *known* members
and non-members (the standard evaluation protocol: the adversary can always
construct such pools from its own data or shadow models), then ``score``\\ s
evaluation samples — higher score = more member-like — and
:func:`evaluate_attack` thresholds at 0.5 and reports the Table-IV metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.blending import blend
from repro.core.config import CIPConfig
from repro.data.dataset import Dataset
from repro.fl.training import predict_logits
from repro.metrics.classification import BinaryMetrics, binary_metrics, roc_auc
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy, per_sample_cross_entropy
from repro.nn.tensor import Tensor, no_grad

StateDict = Dict[str, np.ndarray]


class TargetModel:
    """What the adversary can query.  Subclasses define the observation."""

    def __init__(self, module: Module, num_classes: int) -> None:
        self.module = module
        self.num_classes = num_classes
        self.query_count = 0

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Raw logits for attacker-supplied inputs."""
        raise NotImplementedError

    def per_sample_loss(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-sample cross-entropy of the attacker's queries."""
        logits = self.predict(inputs)
        return per_sample_cross_entropy(logits, labels)

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Softmax probabilities (what output-based attacks consume)."""
        logits = self.predict(inputs)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    # -- white-box surface -------------------------------------------------
    def state(self) -> StateDict:
        return self.module.state_dict()

    def per_sample_grad_norms(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """L2 norm of the loss gradient w.r.t. model parameters, per sample.

        The core feature of parameter-based attacks (Nasr, Leino-Fredrikson):
        members sit near loss minima, so their gradients are systematically
        smaller.

        The gradients are taken in train mode, which updates BatchNorm
        running statistics as a side effect; the buffers and every
        submodule's mode are restored afterwards, so the attacked model is
        unchanged.  Train-mode BatchNorm normalizes with batch statistics,
        so the restore changes no norm.
        """
        labels = np.asarray(labels, dtype=np.int64)
        norms = np.empty(len(inputs), dtype=np.float64)
        buffers = {name: buffer.copy() for name, buffer in self.module.named_buffers()}
        modes = [(module, module.training) for module in self.module.modules()]
        self.module.train()
        for i in range(len(inputs)):
            self.module.zero_grad()
            logits = self._forward_tensor(inputs[i : i + 1])
            loss = cross_entropy(logits, labels[i : i + 1])
            loss.backward()
            total = 0.0
            for param in self.module.parameters():
                if param.grad is not None:
                    total += float(np.sum(param.grad**2))
            norms[i] = np.sqrt(total)
        self.module.zero_grad()
        self.module.load_state_dict(buffers, strict=False)
        for module, training in modes:
            object.__setattr__(module, "training", training)
        return norms

    def _forward_tensor(self, inputs: np.ndarray) -> Tensor:
        raise NotImplementedError


class PlainTarget(TargetModel):
    """Legacy single-channel model, queried with raw inputs."""

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        self.query_count += len(inputs)
        return predict_logits(self.module, inputs)

    def _forward_tensor(self, inputs: np.ndarray) -> Tensor:
        return self.module(Tensor(inputs))


class CIPTarget(TargetModel):
    """CIP dual-channel model queried without knowledge of the true ``t``.

    ``guess_t=None`` is the uninformed adversary (zero-perturbation blend);
    adaptive attacks pass their optimized/stolen guess.
    """

    def __init__(
        self,
        module: Module,
        num_classes: int,
        config: CIPConfig,
        guess_t: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(module, num_classes)
        self.config = config
        self.guess_t = None if guess_t is None else np.asarray(guess_t, dtype=np.float64)

    def with_guess(self, guess_t: Optional[np.ndarray]) -> "CIPTarget":
        """Same model, different perturbation guess (for adaptive attacks)."""
        return CIPTarget(self.module, self.num_classes, self.config, guess_t)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        self.query_count += len(inputs)
        self.module.eval()
        outputs = []
        with no_grad():
            for start in range(0, len(inputs), 128):
                chunk = inputs[start : start + 128]
                blended = blend(chunk, self.guess_t, self.config.alpha, self.config.clip_range)
                outputs.append(self.module(blended).data)
        return np.concatenate(outputs, axis=0)

    def _forward_tensor(self, inputs: np.ndarray) -> Tensor:
        blended = blend(inputs, self.guess_t, self.config.alpha, self.config.clip_range)
        return self.module(blended)


@dataclass
class AttackData:
    """The attacker's calibration pools and the evaluation pools.

    ``known_*`` are used by ``fit`` (shadow/calibration knowledge);
    ``eval_*`` are the disjoint samples on which the attack is scored.
    """

    known_members: Dataset
    known_nonmembers: Dataset
    eval_members: Dataset
    eval_nonmembers: Dataset

    @staticmethod
    def from_pools(
        members: Dataset, nonmembers: Dataset, calibration_fraction: float = 0.5, seed=None
    ) -> "AttackData":
        """Split member/non-member pools into calibration and evaluation halves."""
        known_m, eval_m = members.split(calibration_fraction, seed=seed)
        known_n, eval_n = nonmembers.split(calibration_fraction, seed=seed)
        return AttackData(known_m, known_n, eval_m, eval_n)


class MIAttack:
    """Base class: fit on calibration pools, score evaluation samples."""

    name = "base"

    def fit(self, target: TargetModel, data: AttackData) -> None:
        """Calibrate the attack.  Default: no calibration."""

    def score(self, target: TargetModel, dataset: Dataset) -> np.ndarray:
        """Membership scores in [0, 1]; >= 0.5 predicts member."""
        raise NotImplementedError


@dataclass
class AttackReport:
    """Outcome of one attack evaluation (a Table-IV row)."""

    attack: str
    metrics: BinaryMetrics
    auc: float

    @property
    def accuracy(self) -> float:
        return self.metrics.accuracy


def evaluate_attack(attack: MIAttack, target: TargetModel, data: AttackData) -> AttackReport:
    """Fit on the calibration pools, evaluate on the held-out pools."""
    attack.fit(target, data)
    member_scores = attack.score(target, data.eval_members)
    nonmember_scores = attack.score(target, data.eval_nonmembers)
    scores = np.concatenate([member_scores, nonmember_scores])
    labels = np.concatenate(
        [np.ones(len(member_scores), dtype=int), np.zeros(len(nonmember_scores), dtype=int)]
    )
    predictions = scores >= 0.5
    return AttackReport(
        attack=attack.name,
        metrics=binary_metrics(predictions, labels),
        auc=roc_auc(scores, labels),
    )


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (score calibration helper)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_v = np.exp(values[~positive])
    out[~positive] = exp_v / (1.0 + exp_v)
    return out
