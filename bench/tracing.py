"""Span tracing of puriscope's layers, installed from outside the package.

A :class:`Tracer` replaces each traced function with a timing wrapper in
every ``puriscope`` module namespace that binds it (``tomography`` is
imported into four modules, ``eigh`` into three), so no call escapes the
count.  ``DensityMatrix`` and ``Observable`` validation is traced by
wrapping the class's ``__post_init__``.  Spans stay in memory; the
caller aggregates them, or writes them out, after the traced pass ends.
The originals are restored on exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional


def _arg(position: int, name: str) -> Callable:
    def extract(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return extract


def _cube_of_dim(args, kwargs):
    return len(_arg(0, "matrix")(args, kwargs)) ** 3


def _state_dim(args, kwargs):
    return _arg(0, "state")(args, kwargs).dim


# Work counters recorded at the call boundary: stat -> (combine, extractor).
_SHOTS_AT_1 = {"shots": (sum, _arg(1, "shots"))}
_SHOTS_AT_2 = {"shots": (sum, _arg(2, "shots"))}

# (module, attribute, label, counters).  An attribute "Class.method"
# wraps the method on the class itself.
TRACED = (
    ("ensembles", "sample_ensemble", "ensembles.sample_ensemble", {}),
    ("ensembles", "purify", "ensembles.purify", {}),
    ("core", "eigh", "core.eigh", {"d3_sum": (sum, _cube_of_dim)}),
    ("core", "partial_trace", "core.partial_trace", {}),
    ("core", "DensityMatrix.__post_init__", "core.DensityMatrix.validate", {}),
    ("core", "Observable.__post_init__", "core.Observable.validate", {}),
    ("measurement", "tomography", "measurement.tomography", _SHOTS_AT_1),
    ("measurement", "bootstrap_stderr", "measurement.bootstrap_stderr", {}),
    (
        "measurement",
        "measure_observable_with_stderr",
        "measurement.measure_observable_with_stderr",
        {**_SHOTS_AT_2, "dim_max": (max, _state_dim)},
    ),
    ("measurement", "measure_in_basis", "measurement.measure_in_basis", _SHOTS_AT_2),
    ("estimators", "estimate_moment", "estimators.estimate_moment", {}),
    ("estimators", "estimate_virtual_cooling", "estimators.estimate_virtual_cooling", {}),
    ("estimators", "estimate_pca", "estimators.estimate_pca", {}),
    ("estimators", "estimate_qfi", "estimators.estimate_qfi", {}),
    ("estimators", "qfi_oracle", "estimators.qfi_oracle", {}),
    ("baselines", "single_copy_purity_attack", "baselines.single_copy_purity_attack", {}),
    ("baselines", "swap_test_moment", "baselines.swap_test_moment", {}),
    ("baselines", "distinguish_experiment", "baselines.distinguish_experiment", {}),
    ("channels", "random_channel", "channels.random_channel", {}),
    ("channels", "canonicalize", "channels.canonicalize", {}),
    ("channels", "unitarity_estimate", "channels.unitarity_estimate", {}),
    ("channels", "virtual_distillation_estimate", "channels.virtual_distillation_estimate", {}),
    ("channels", "channel_pca_estimate", "channels.channel_pca_estimate", {}),
    ("crypto", "run_verification", "crypto.run_verification", {}),
    ("crypto", "run_blind_estimation", "crypto.run_blind_estimation", {}),
)

LABELS = tuple(label for _, _, label, _ in TRACED)
COUNTER_STATS = {label: tuple(counters) for _, _, label, counters in TRACED}


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "puriscope" or name.startswith("puriscope."))
    ]


class Tracer:
    """Records one span per traced call: name, start, end, parent, op id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counters = {
            label: {stat: 0 for stat in COUNTER_STATS[label]} for label in LABELS
        }
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, fn: Callable, counters: dict) -> Callable:
        totals = self.counters[label]
        extractors = tuple((stat, combine, extract) for stat, (combine, extract) in counters.items())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for stat, combine, extract in extractors:
                totals[stat] = combine((totals[stat], extract(args, kwargs)))
            index = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for module_name, attribute, label, counters in TRACED:
            module = sys.modules[f"puriscope.{module_name}"]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrap(label, original, counters))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(label, original, counters)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        """Per span: its duration, and the time its direct children cover.

        Spans nest strictly because the program is single threaded, so a
        span's children never overlap.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[index]
        return durations, child

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_ms, total_ms and the work counters of every span name.

        Self time is a span's duration minus the time its direct children
        cover.
        """
        durations, child = self._durations()
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += 1e3 * (durations[index] - child[index])
            row["total_ms"] += 1e3 * durations[index]
        for label in LABELS:
            row = out.setdefault(label, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            row.update(self.counters[label])
        return out

    def self_ms_by_caller(self, label: str) -> dict[str, float]:
        """Self time of ``label``'s spans, split by the name of the enclosing span."""
        durations, child = self._durations()
        out: dict[str, float] = {}
        for index, name in enumerate(self.names):
            if name == label:
                parent = self.parents[index]
                caller = self.names[parent] if parent >= 0 else "(none)"
                out[caller] = out.get(caller, 0.0) + 1e3 * (durations[index] - child[index])
        return out

    def write_spans(self, path: Optional[str]) -> None:
        if not path:
            return
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                record = {
                    "name": name,
                    "start": self.starts[index],
                    "end": self.ends[index],
                    "parent": self.parents[index],
                    "op": self.op_ids[index],
                }
                handle.write(json.dumps(record) + "\n")
