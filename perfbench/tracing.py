"""In-memory span tracing of ``repro`` layers, applied from outside ``src/``.

The tracer wraps public functions and methods of the ``repro`` modules with
timing shims.  Each call becomes a span with a name, start and end times,
the span that was open when it began (its parent) and the run id.  Spans stay
in memory until :meth:`Tracer.write` saves them at the end of a run.

A span's self time is its duration minus the time covered by its direct
children.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, span name)``.  An attribute path ``Class.method``
#: wraps the method on that class; a bare name wraps a module-level function
#: in every ``repro`` or benchmark module that bound it by value.
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.trainer", "CIPTrainer.train_epoch", "core.train_epoch"),
    ("repro.core.perturbation", "Perturbation.step", "core.perturbation_step"),
    ("repro.fl.client", "FLClient.local_update", "client.local_update"),
    ("repro.core.cip_client", "CIPClient.local_update", "client.local_update"),
    ("repro.fl.executor", "SequentialExecutor.execute", "executor.execute"),
    ("repro.fl.batched", "BatchedExecutor.execute", "executor.execute"),
    ("repro.fl.registry", "ClientRegistry.checkout_many", "registry.checkout"),
    ("repro.fl.registry", "ClientRegistry.release", "registry.release"),
    ("repro.fl.registry", "LRUStateStore.put", "store.put"),
    ("repro.fl.registry", "LRUStateStore.pop", "store.pop"),
    ("repro.fl.communication", "NoneCodec.encode_update", "communication.encode"),
    ("repro.fl.communication", "TopKCodec.encode_update", "communication.encode"),
    ("repro.fl.communication", "QSGDCodec.encode_update", "communication.encode"),
    ("repro.fl.communication", "DeltaCodec.encode_update", "communication.encode"),
    # The executor resolves decode_update through its own module globals.
    ("repro.fl.executor", "decode_update", "communication.decode"),
    ("repro.fl.simulation", "FederatedSimulation.save_checkpoint", "checkpoint.save"),
    ("repro.fl.server", "FLServer.aggregate", "server.aggregate"),
    ("repro.fl.server", "FLServer.broadcast", "server.broadcast"),
    ("repro.fl.simulation", "FederatedSimulation.run_round", "simulation.round"),
    ("repro.fl.simulation", "FederatedSimulation.evaluate_clients", "simulation.evaluate"),
    ("repro.attacks.internal", "PassiveServerAttack.run", "attacks.passive"),
    ("repro.attacks.shadow", "train_shadow", "attacks.shadow_train"),
    ("repro.fl.training", "train_supervised", "training.train_supervised"),
    ("repro.data.synthetic", "generate_image_dataset", "data.generate"),
)


class Tracer:
    """Records nested spans around wrapped callables of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``(span_id, parent_id, name, phase, start, end)`` of every closed
        #: span; ``phase`` is the run phase current when the span opened.
        self.spans: List[Tuple[int, Optional[int], str, str, float, float]] = []
        self.phase = "setup"
        self._open: List[Tuple[int, str]] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------
    def _shim(self, func: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # A layer that calls itself (an override delegating to its base,
            # both wrapped under one name) is one span, not two.
            if tracer._open and tracer._open[-1][1] == name:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1][0] if tracer._open else None
            tracer._open.append((span_id, name))
            phase = tracer.phase
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                tracer.spans.append((span_id, parent, name, phase, start, end))

        return traced

    def _patch(self, owner: object, attr: str, name: str) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, self._shim(getattr(owner, attr), name))
        self._patches.append((owner, attr, original, had_own))

    def install(self) -> None:
        """Wrap every trace point and each external attack's fit/score."""
        from repro.attacks import EXTERNAL_ATTACKS

        points = list(TRACE_POINTS)
        for attack_name, cls in EXTERNAL_ATTACKS.items():
            for method in ("fit", "score"):
                points.append((cls.__module__, f"{cls.__name__}.{method}",
                               f"attacks.{attack_name}.{method}"))
        for module_name, path, name in points:
            __import__(module_name)
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                self._patch(getattr(module, class_name), attr, name)
                continue
            target = getattr(module, path)
            # By-value importers (``from x import f``) hold their own binding.
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith(("repro", "perfbench")) and other is not None:
                    if vars(other).get(path) is target:
                        self._patch(other, path, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------
    def summary(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds of
        the spans that opened in ``phase``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _span_id, parent, _name, _phase, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, _parent, name, span_phase, start, end in self.spans:
            if span_phase != phase:
                continue
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return dict(table)

    def write(self, path) -> None:
        """Save every span as one JSON line."""
        with open(path, "w") as handle:
            for span_id, parent, name, phase, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "phase": phase, "start": start, "end": end,
                }) + "\n")
