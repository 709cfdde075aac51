"""Each numeric config field admits exactly its interval.

TABLE is written by hand from the range checks the dataclasses made by hand
before each field declared its interval in its type. Every edge value must
be accepted exactly when it lies in the field's interval: by direct
construction, and through from_json for a class read from a file.
"""

import dataclasses
import math
import typing

import pytest

from hecsim import codec
from hecsim.central import (LabeledFrame, LabeledFrameSet,
                            StochasticDetectorParams)
from hecsim.detection import Algorithm1Params
from hecsim.errors import InvalidConfigError
from hecsim.harness import (ElephantEvent, EventOutcome, MetricsReport,
                            PnPlacement, Scenario, SimConfig)
from hecsim.mesh import BrokerFailure, FailoverConfig, LinkModel, NetworkConfig
from hecsim.peripheral import PnConfig
from hecsim.signals import RumbleSpec

EDGES = (-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 1e308, math.inf, math.nan)
INT_EDGES = (-1, 0, 1, 2, 10 ** 308)  # a count field holds integers only

INTERVALS = {
    "(0, inf)": lambda v: 0 < v < math.inf,
    "[0, inf)": lambda v: 0 <= v < math.inf,
    "[0, inf]": lambda v: 0 <= v <= math.inf,
    "[0, 1]": lambda v: 0 <= v <= 1,
    "[1, inf)": lambda v: 1 <= v < math.inf,
}

TABLE = {
    (Algorithm1Params, "window_s"): "(0, inf)",
    (Algorithm1Params, "subsegment_s"): "(0, inf)",
    (StochasticDetectorParams, "tpr"): "[0, 1]",
    (StochasticDetectorParams, "fpr"): "[0, 1]",
    (LabeledFrame, "width"): "[1, inf)",
    (LabeledFrame, "height"): "[1, inf)",
    (PnConfig, "decision_timeout_s"): "(0, inf)",
    (PnConfig, "repel_cooldown_s"): "[0, inf]",
    (RumbleSpec, "duration_s"): "(0, inf)",
    (LinkModel, "latency_s"): "[0, inf)",
    (LinkModel, "jitter_s"): "[0, inf)",
    (LinkModel, "loss_prob"): "[0, 1]",
    (FailoverConfig, "heartbeat_interval_s"): "(0, inf)",
    (FailoverConfig, "miss_threshold"): "[1, inf)",
    (BrokerFailure, "t_s"): "[0, inf)",
    (NetworkConfig, "max_retries"): "[0, inf)",
    (NetworkConfig, "retry_interval_s"): "(0, inf)",
    (NetworkConfig, "buffer_cap"): "[1, inf)",
    (ElephantEvent, "t_onset_s"): "[0, inf]",
    (Scenario, "duration_s"): "(0, inf)",
    (SimConfig, "seismic_rate_hz"): "(0, inf)",
    (SimConfig, "match_horizon_s"): "[0, inf]",
    (EventOutcome, "latency_s"): "[0, inf]",
    (MetricsReport, "recall"): "[0, 1]",
}

# numeric fields with no interval: a rule that joins fields, a set, a seed
# or a plain record
UNBOUNDED = {
    (Algorithm1Params, "band_low_hz"), (Algorithm1Params, "band_high_hz"),
    (Algorithm1Params, "run_low"), (Algorithm1Params, "run_high"),
    (PnConfig, "ds_threshold"), (RumbleSpec, "snr_db"),
    (NetworkConfig, "seed"), (Scenario, "master_seed"),
    (EventOutcome, "t_onset_s"), (MetricsReport, "duration_s"),
    (MetricsReport, "false_warning_count"), (MetricsReport, "seed"),
}

CLASSES = {cls for cls, _ in TABLE}

# the required fields of each class, for direct construction
REQUIRED = {
    LabeledFrame: {"frame_id": "a", "boxes": ()},
    RumbleSpec: {"duration_s": 1.0},
    BrokerFailure: {"broker_id": "a", "t_s": 0.0},
    ElephantEvent: {"t_onset_s": 0.0, "pn_ids": ("pn-1",),
                    "rumble": RumbleSpec(1.0)},
    Scenario: {"name": "s", "duration_s": 1.0,
               "pns": (PnPlacement("pn-1"),)},
    EventOutcome: {"t_onset_s": 0.0, "pn_ids": ("pn-1",), "detected": True,
                   "latency_s": None},
    MetricsReport: {"scenario": "s", "duration_s": 1.0, "events": (),
                    "recall": None, "false_warning_count": 0,
                    "ir_duty_cycle": {}, "message_counts": {}, "seed": 0},
}

# the 1e308 s scenario holds an event at any finite onset
SCENARIO = {"name": "s", "duration_s": 1e308, "pns": [{"node_id": "pn-1"}]}
EVENT = {"t_onset_s": 0.0, "pn_ids": ["pn-1"], "rumble": {"duration_s": 1.0}}
NESTED = {Algorithm1Params: (SimConfig, "alg1"),
          StochasticDetectorParams: (SimConfig, "detector_params"),
          PnConfig: (SimConfig, "pn"),
          LinkModel: (NetworkConfig, "default_link"),
          FailoverConfig: (NetworkConfig, "failover")}


def in_file(cls, fields):
    """(root class, file data, dotted path of cls) with fields in place."""
    if cls in (SimConfig, NetworkConfig):
        return cls, fields, cls.__name__
    if cls is Scenario:
        return Scenario, {**SCENARIO, **fields}, "Scenario"
    if cls is ElephantEvent:
        return (Scenario, {**SCENARIO, "events": [{**EVENT, **fields}]},
                "Scenario.events[0]")
    if cls is RumbleSpec:
        return (Scenario, {**SCENARIO, "events": [{**EVENT, "rumble": fields}]},
                "Scenario.events[0].rumble")
    if cls is LabeledFrame:
        return (LabeledFrameSet,
                {"frames": [{"frame_id": "a", "boxes": [], **fields}]},
                "LabeledFrameSet.frames[0]")
    if cls is BrokerFailure:
        return (NetworkConfig, {"brokers": ["a"], "broker_failures": [
            {"broker_id": "a", **fields}]}, "NetworkConfig.broker_failures[0]")
    root, key = NESTED[cls]
    return root, {key: fields}, f"{root.__name__}.{key}"


def with_value(cls, name, value):
    """The fields that set name to value. A window and its sub-segment are
    set alike when value is in range, so their ratio rule holds."""
    fields = {name: value}
    if cls is Algorithm1Params:
        other = ({"window_s", "subsegment_s"} - {name}).pop()
        fields[other] = value if INTERVALS["(0, inf)"](value) else \
            getattr(Algorithm1Params(), other)
    return fields


def edges(cls, name):
    return INT_EDGES if typing.get_type_hints(cls)[name] is int else EDGES


def numeric_fields(cls):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        members = typing.get_args(tp) if typing.get_origin(tp) is \
            typing.Union else (tp,)
        if f.init and (int in members or float in members):
            yield f.name


def test_every_numeric_field_declares_its_range_or_none():
    assert len(CLASSES) == 14 and not UNBOUNDED & TABLE.keys()
    numeric = {(cls, name) for cls in CLASSES for name in numeric_fields(cls)}
    assert numeric == TABLE.keys() | UNBOUNDED
    declared = {(cls, r[0], r[1]) for cls in CLASSES
                for r in codec._ranges(cls)}
    assert declared == {(cls, name, i) for (cls, name), i in TABLE.items()}


def ids(key):
    return f"{key[0].__name__}.{key[1]}"


@pytest.mark.parametrize("cls, name", TABLE, ids=map(ids, TABLE))
def test_construction_admits_exactly_the_interval(cls, name):
    interval = TABLE[cls, name]
    for value in edges(cls, name):
        kwargs = {**REQUIRED.get(cls, {}), **with_value(cls, name, value)}
        if INTERVALS[interval](value):
            cls(**kwargs)
            continue
        with pytest.raises(InvalidConfigError) as exc:
            cls(**kwargs)
        assert str(exc.value) == f"{name} {value} is not in {interval}"


FILE_KEYS = [key for key in TABLE if key[0] not in (EventOutcome,
                                                    MetricsReport)]


@pytest.mark.parametrize("cls, name", FILE_KEYS, ids=map(ids, FILE_KEYS))
def test_a_file_admits_exactly_the_finite_interval(cls, name):
    interval = TABLE[cls, name]
    for value in edges(cls, name):
        root, data, path = in_file(cls, with_value(cls, name, value))
        if INTERVALS[interval](value) and math.isfinite(value):
            root.from_json(data)
            continue
        with pytest.raises(InvalidConfigError) as exc:
            root.from_json(data)
        # a number in a file is finite, whichever field it fills
        assert str(exc.value) == (
            f"{path}: {name} {value} is not in {interval}"
            if math.isfinite(value) else
            f"{path}.{name}: expected a finite number, got {value}")
