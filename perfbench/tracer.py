"""Span recorder that wraps the public functions each hecsim layer exports.

Nothing in the package changes: ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back. Spans are kept in memory as ``[name, start, end, parent]``
and written out once, at the end of a run.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested on one thread, so the self times of
every span under a root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from time import perf_counter

# (layer.span, [(module, attribute), ...]) for plain functions. A name is
# wrapped both where it is defined and where another module imported it,
# because a `from x import f` binding is looked up in the importer.
FUNCTION_SPANS = (
    ("harness.run", [("hecsim.harness", "run_scenario_with_logs")]),
    ("harness.metrics", [("hecsim.harness", "compute_metrics")]),
    ("signals.synth", [("hecsim.signals", "synth_rumble_stream"),
                       ("hecsim.harness", "synth_rumble_stream")]),
    ("signals.stft", [("hecsim.detection", "compute_stft"),
                      ("hecsim.deterrent", "compute_stft")]),
    ("detection.score", [("hecsim.detection", "detect_stream"),
                         ("hecsim.harness", "detect_stream")]),
    ("detection.oracle", [("hecsim.detection", "stft_oracle_detect")]),
    ("detection.match", [("hecsim.detection", "match_and_recall")]),
    ("deterrent.modify", [("hecsim.deterrent", "pick_modification"),
                          ("hecsim.deterrent", "apply_modification")]),
    ("deterrent.similarity", [("hecsim.deterrent", "stft_similarity")]),
    ("deterrent.l2", [("hecsim.deterrent", "l2_delta")]),
    ("peripheral.step", [("hecsim.harness", "pn_step")]),
    ("central.step", [("hecsim.harness", "cn_step")]),
    ("central.decide", [("hecsim.harness", "detect_frame")]),
    ("sigio.write", [("hecsim.sigio", "write_jsonl"),
                     ("hecsim.harness", "write_jsonl")]),
)

# (layer.span, method name) on hecsim.mesh.MeshNetwork
METHOD_SPANS = (
    ("mesh.loop", "run_until"),
    ("mesh.publish", "publish"),
    ("mesh.trace_write", "write_trace_jsonl"),
)


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Work counts read from a wrapped call's arguments and result."""
    if name == "signals.synth":
        counts["signals.samples"] += len(result.samples)
    elif name == "signals.stft":
        counts["signals.stft_frames"] += len(result.frame_times_s)
    elif name == "detection.score":
        counts["detection.windows"] += len(result)
        counts["detection.hits"] += sum(1 for d in result if d.ds >= 1)
    elif name == "detection.oracle":
        counts["detection.oracle_events"] += len(result)
    elif name == "deterrent.similarity":
        counts["deterrent.draws"] += 1
    elif name == "peripheral.step":
        counts["peripheral.steps"] += 1
    elif name == "central.step":
        counts["central.steps"] += 1
    elif name == "central.decide":
        counts["central.decisions"] += 1
    elif name == "mesh.publish":
        counts["mesh.publishes"] += 1
    elif name == "sigio.write":
        counts["sigio.bytes_written"] += os.path.getsize(args[1])


class Tracer:
    """Records spans and counts around the layer boundaries listed above."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ---- recording ----

    def _wrap(self, name: str, fn, self_arg: bool = False):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            _count_result(counts, name, args[1:] if self_arg else args, result)
            return result
        return wrapper

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span and return its result."""
        return self._wrap(name, fn)(*args)

    # ---- installing the wrappers ----

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, targets in FUNCTION_SPANS:
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        mesh_cls = importlib.import_module("hecsim.mesh").MeshNetwork
        for name, attr in METHOD_SPANS:
            original = getattr(mesh_cls, attr)
            self._saved.append((mesh_cls, attr, original))
            setattr(mesh_cls, attr, self._wrap(name, original, self_arg=True))
        # scheduling is counted, not timed: it runs once per simulated event
        schedule = mesh_cls.schedule
        self._saved.append((mesh_cls, "schedule", schedule))
        counts = self.counts

        def counted_schedule(net, t_s, fn):
            counts["mesh.events_scheduled"] += 1
            return schedule(net, t_s, fn)
        mesh_cls.schedule = counted_schedule

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---- reduction ----

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of every span from index first on."""
        own = [s[2] - s[1] for s in self.spans[first:]]
        for i, span in enumerate(self.spans[first:]):
            parent = span[3] - first
            if parent >= 0:
                own[parent] -= span[2] - span[1]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracer: Tracer, first: int) -> dict:
    """Per-layer times of one job whose root span is at index first.

    Checks the recorder first: no span's children may cover more than the
    span itself, and for every span (the job root and harness.run among
    them) the self times of its subtree must add up to its duration.
    """
    spans = tracer.spans[first:]
    own = tracer.self_times(first)
    if min(own) < -1e-9:
        raise RuntimeError("child spans overlap their parent")
    subtree = list(own)
    for i in range(len(spans) - 1, 0, -1):  # a child always follows its parent
        subtree[spans[i][3] - first] += subtree[i]
    for span, total in zip(spans, subtree):
        if abs(total - (span[2] - span[1])) > 1e-6:
            raise RuntimeError(f"self times under {span[0]} do not add up")
    self_by = Counter()
    total_by = Counter()
    for span, self_s in zip(spans, own):
        self_by[span[0]] += self_s
        total_by[span[0]] += span[2] - span[1]
    return {
        "signals.synth_s": self_by["signals.synth"],
        "signals.stft_s": self_by["signals.stft"],
        "detection.score_s": self_by["detection.score"],
        "detection.oracle_self_s": self_by["detection.oracle"],
        "detection.match_s": self_by["detection.match"],
        "deterrent.modify_s": self_by["deterrent.modify"],
        "deterrent.similarity_self_s": self_by["deterrent.similarity"],
        "deterrent.l2_s": self_by["deterrent.l2"],
        "peripheral.step_s": self_by["peripheral.step"],
        "central.step_s": self_by["central.step"],
        "central.decide_s": self_by["central.decide"],
        "mesh.loop_s": total_by["mesh.loop"],
        "mesh.loop_self_s": self_by["mesh.loop"],
        "mesh.publish_s": self_by["mesh.publish"],
        "mesh.trace_write_s": self_by["mesh.trace_write"],
        "harness.run_s": total_by["harness.run"],
        "harness.self_s": self_by["harness.run"],
        "harness.metrics_s": self_by["harness.metrics"],
        "sigio.write_s": self_by["sigio.write"],
        "job.self_s": self_by[spans[0][0]],
    }
