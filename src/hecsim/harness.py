"""Scenario runner: seismic synthesis, node state machines, mesh, metrics.

A Scenario says where the peripheral nodes stand, when elephants pass
which of them and which network joins them; a SimConfig says how the nodes
behave.
run_scenario_with_logs finds every node's seismic windows that a rumble
touches and that score ds >= 1 in one call to detection.trigger_windows,
which never holds a whole trace; every other window scores 0 by rule. It
drives the peripheral and central state machines through the simulated
mesh in a single discrete-event loop. Every random
choice descends from the scenario's master seed through labeled
sub-seeds, so the same scenario and seed produce byte-identical outputs.

Outputs per run: delivery_trace.jsonl, actions.jsonl, detections.jsonl,
warnings.jsonl, metrics.json.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .central import (CnConfig, CnState, OracleDetector, StochasticDetector,
                      StochasticDetectorParams, WarningKind, WarningRecord,
                      cn_step, detect_frame)
from .codec import (JsonConfig, NonNegativeOrInf, Positive, Probability,
                    check_ranges, encode)
# detect_stream is not called here; perfbench's tracer wraps this binding
from .detection import (Algorithm1Params, WindowDetection,  # noqa: F401
                        detect_stream, trigger_windows)
from .errors import InvalidConfigError, InvalidInputError
from .mesh import (MeshNetwork, NetworkConfig, QoS, check_segment,
                   heartbeat_and_failover, trace_fields)
from .peripheral import (IR_POWERED_STATES, CaptureFrame, NegativeDecision,
                         PnConfig, PnState, RepelCommand, ThermalFrame,
                         TimerExpired, pn_step)
from .seeds import derive_seed
# synth_rumble_stream is not called here; perfbench's tracer wraps it
from .signals import RumbleSpec, synth_rumble_stream  # noqa: F401
from .sigio import write_jsonl

CAPTURE_DELAY_S = 0.05  # from a trigger to the publish of its frame
DETECTOR_DELAY_S = 0.1  # from a frame's arrival to its decision
THERMAL_HOLD_S = 30.0  # a visible elephant stays in view after its rumble
# a seen elephant fills the central half of the frame: (8, 6, 24, 18)
SEEN_BOX = (ThermalFrame.width / 4, ThermalFrame.height / 4,
            ThermalFrame.width * 3 / 4, ThermalFrame.height * 3 / 4)


# ---- scenario model ----

@dataclass(frozen=True)
class PnPlacement:
    """A peripheral node; its id is one level of its topics."""

    node_id: str

    def __post_init__(self):
        check_segment("node id", self.node_id)


@dataclass(frozen=True)
class ElephantEvent:
    """One approach: a rumble heard by the listed nodes from t_onset_s.

    thermal_visible controls whether a frame captured while the animal is
    near carries a positive ground truth; a seismically audible but
    thermally hidden event exercises the negative-decision path.
    """

    t_onset_s: NonNegativeOrInf
    pn_ids: tuple[str, ...]
    rumble: RumbleSpec
    thermal_visible: bool = True

    def __post_init__(self):
        check_ranges(self)
        object.__setattr__(self, "pn_ids", tuple(self.pn_ids))
        if not self.pn_ids:
            raise InvalidInputError("event must touch at least one node")
        for i, node in enumerate(self.pn_ids):
            if node in self.pn_ids[:i]:
                raise InvalidInputError(f"event lists node {node!r} twice")


@dataclass(frozen=True)
class Scenario(JsonConfig):
    name: str
    duration_s: Positive
    pns: tuple[PnPlacement, ...]
    events: tuple[ElephantEvent, ...] = ()
    detector: str = "oracle"
    master_seed: int = 0
    network: NetworkConfig = NetworkConfig()

    def __post_init__(self):
        check_ranges(self)
        object.__setattr__(self, "pns", tuple(self.pns))
        object.__setattr__(self, "events", tuple(self.events))
        if not self.pns:
            raise InvalidConfigError("scenario needs at least one node")
        ids = [p.node_id for p in self.pns]
        if len(set(ids)) != len(ids):
            raise InvalidConfigError("duplicate node ids")
        if self.detector not in ("oracle", "stochastic"):
            raise InvalidConfigError(f"unknown detector {self.detector!r}")
        for i, node in enumerate(ids):
            if node in self.network.brokers:
                raise InvalidConfigError(f"pns[{i}].node_id {node!r} is also "
                                         "a broker in network.brokers")
        known = set(ids)
        for ev in self.events:
            # the same tolerance seismic synthesis applies to the stream end
            if ev.t_onset_s + ev.rumble.duration_s > self.duration_s + 1e-9:
                raise InvalidConfigError("event rumble runs past the end of the scenario")
            missing = set(ev.pn_ids) - known
            if missing:
                raise InvalidConfigError(f"event references unknown nodes {sorted(missing)}")
        if self.network.seed != 0:
            raise InvalidConfigError(
                "network seed must be 0: the mesh seed comes from master_seed")


@dataclass(frozen=True)
class SimConfig(JsonConfig):
    alg1: Algorithm1Params = Algorithm1Params()
    seismic_rate_hz: Positive = 1000.0
    pn: PnConfig = PnConfig()
    cn: CnConfig = CnConfig()
    detector_params: StochasticDetectorParams = StochasticDetectorParams()
    topic_prefix: str = "hec"
    match_horizon_s: NonNegativeOrInf = 30.0

    def __post_init__(self):
        check_ranges(self)
        check_segment("topic prefix", self.topic_prefix)


# ---- metrics ----

@dataclass(frozen=True)
class EventOutcome:
    t_onset_s: float
    pn_ids: tuple[str, ...]
    detected: bool
    latency_s: NonNegativeOrInf | None

    __post_init__ = check_ranges


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    duration_s: float
    events: tuple[EventOutcome, ...]
    recall: Probability | None
    false_warning_count: int
    ir_duty_cycle: dict
    message_counts: dict
    seed: int

    __post_init__ = check_ranges

    def to_json(self) -> dict:
        return encode(self)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


@dataclass
class RunLogs:
    """Everything one run produced, as plain JSON-able rows. A run's
    delivery trace is the mesh's read-only trace view, which builds each
    row's dict when it is read; the other streams are lists."""

    delivery_trace: Iterable[dict]
    actions: list
    warnings: list
    detections: list


def compute_metrics(logs: RunLogs, scenario: Scenario,
                    config: SimConfig) -> MetricsReport:
    """Reduce one run's logs to the summary report.

    An event counts as detected when an officer warning lands inside
    [onset, onset + match_horizon_s]; a warning inside no event's horizon is
    false. A node's duty cycle is its share of the run in IR_POWERED_STATES,
    read from the state_to of its action rows.
    """
    for name in ("delivery_trace", "actions", "warnings", "detections"):
        if getattr(logs, name) is None:
            raise InvalidInputError(f"missing log stream {name}")

    officer = sorted((w for w in logs.warnings
                      if w["kind"] == WarningKind.OFFICER_MESSAGE.value),
                     key=lambda w: w["t"])
    outcomes = []
    matched_any = [False] * len(officer)
    for ev in scenario.events:
        lo, hi = ev.t_onset_s, ev.t_onset_s + config.match_horizon_s
        latency = None
        for i, w in enumerate(officer):
            if lo <= w["t"] <= hi:
                matched_any[i] = True
                if latency is None:
                    latency = w["t"] - ev.t_onset_s
        outcomes.append(EventOutcome(
            t_onset_s=ev.t_onset_s, pn_ids=ev.pn_ids,
            detected=latency is not None, latency_s=latency))
    false_count = matched_any.count(False)
    recall = None
    if scenario.events:
        recall = sum(o.detected for o in outcomes) / len(scenario.events)

    end = scenario.duration_s
    powered = {p.node_id: 0.0 for p in scenario.pns}
    last = dict.fromkeys(powered, 0.0)
    since = {}  # start of each node's open powered stretch
    for row in logs.actions:
        node, t = row["node"], row["t"]
        if node not in powered:
            continue  # the central node
        if not last[node] <= t <= end:
            raise InvalidInputError(f"action row of {node} at t={t} is out "
                                    f"of time order or outside [0, {end}]")
        last[node] = t
        if row["state_to"] in IR_POWERED_STATES:
            since.setdefault(node, t)
        elif node in since:
            powered[node] += t - since.pop(node)
    for node, t in since.items():
        powered[node] += end - t
    duty = {node: on / end for node, on in powered.items()}

    counts: dict[str, dict] = {}
    for msg_id, event, topic in trace_fields(logs.delivery_trace):
        if not msg_id or event not in ("publish", "deliver"):
            continue
        slot = counts.setdefault(topic, {"published": 0, "delivered": 0})
        slot["published" if event == "publish" else "delivered"] += 1

    return MetricsReport(
        scenario=scenario.name, duration_s=scenario.duration_s,
        events=tuple(outcomes), recall=recall,
        false_warning_count=false_count, ir_duty_cycle=duty,
        message_counts=counts, seed=scenario.master_seed)


# ---- orchestration ----

class _Run:
    """One run's mesh, node states and logs.

    pn_dispatch and cn_dispatch step a node's state machine, then log and
    perform each action it returns: schedule timers, captures and detector
    runs, and publish the state machines' own objects as mesh payloads.
    """

    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.config = config
        network = scenario.network
        cn_id, ids = config.cn.node_id, [p.node_id for p in scenario.pns]
        if cn_id in ids:
            raise InvalidConfigError(f"Scenario.pns[{ids.index(cn_id)}].node_id"
                                     f" and SimConfig.cn.node_id are both {cn_id!r}")
        if cn_id in network.brokers:
            raise InvalidConfigError(f"SimConfig.cn.node_id {cn_id!r} is also "
                                     "a broker in Scenario.network.brokers")
        stray = set(network.link_overrides) - set(ids) - {cn_id}
        if stray:
            raise InvalidConfigError(
                "Scenario.network.link_overrides: unknown clients "
                f"{sorted(stray)}")
        # a partition may also cut a broker off
        known = {*ids, cn_id, *network.brokers}
        for i, part in enumerate(network.partitions):
            if stray := part.nodes - known:
                raise InvalidConfigError(
                    f"Scenario.network.partitions[{i}].nodes: unknown nodes "
                    f"{sorted(stray)}")
        self.net = MeshNetwork(replace(
            network, seed=derive_seed(scenario.master_seed, "mesh")))
        self.actions: list[dict] = []
        self.warnings: list[dict] = []
        self.detections: list[dict] = []
        prefix = config.topic_prefix

        if scenario.detector == "oracle":
            self.detector = OracleDetector()
        else:
            self.detector = StochasticDetector(
                derive_seed(scenario.master_seed, "detector"),
                config.detector_params)
        self.cn = CnState()
        # the central node registers first so it re-subscribes first after
        # a failover, before any node re-sends buffered frames
        self.net.add_client(
            config.cn.node_id,
            on_message=lambda _, msg, t: self.cn_dispatch(msg.payload))
        self.net.subscribe(config.cn.node_id, f"{prefix}/pn/+/frame")

        self.pns = {p.node_id: PnState() for p in scenario.pns}
        for node in self.pns:
            self.net.add_client(
                node, on_message=lambda pn, msg, t:
                self.pn_dispatch(pn, msg.payload))
            self.net.subscribe(node, f"{prefix}/cn/cmd/{node}")
        heartbeat_and_failover(self.net)

    def pn_dispatch(self, node: str, event) -> None:
        old = self.pns[node]
        if isinstance(event, WindowDetection):
            # only windows scoring ds >= 1 arrive here; each is recorded
            # whether or not it triggers, which lets the action log justify
            # every later repel command
            self.log_action(node, old.kind.value, old.kind.value,
                            f"seismic_score:ds={event.ds}:run={event.max_run}")
        new, actions = pn_step(old, event, self.config.pn, self.net.now)
        self.pns[node] = new
        if new != old:
            if new.until_s is not None and \
                    (new.kind, new.until_s) != (old.kind, old.until_s):
                self.net.schedule(new.until_s, lambda d=new.until_s:
                                  self.pn_dispatch(node, TimerExpired(d)))
            if new.kind != old.kind:
                self.publish(node, f"pn/{node}/status", new,
                             qos=QoS.AT_MOST_ONCE)
        log = partial(self.log_action, node, old.kind.value, new.kind.value)
        if new != old and not actions:
            log("")
        # playing, flashing and anomalies are fully described by their
        # action-log rows; nothing further runs in simulation
        for action in actions:
            if isinstance(action, CaptureFrame):
                # one frame per trigger; golden digests and benchmark
                # references pin the row text, ":1" included
                log("capture_frame:1")
                # only a seismic window triggers a capture
                fid = f"{node}-w{event.window_index:03d}"
                self.net.schedule(self.net.now + CAPTURE_DELAY_S,
                                  lambda f=fid: self.capture(node, f))
            elif isinstance(action, ThermalFrame):
                log(f"publish_frame:{action.frame_id}")
                self.publish(node, f"pn/{node}/frame", action)
            elif isinstance(action, RepelCommand):
                d = action.deterrent
                log(f"play_deterrent:{d.kind.value}:alpha={d.alpha:.4f}")
                log(f"flash:{action.flash_freq_hz}hz:{action.duration_s}s")
            else:  # LogAnomaly
                log(f"anomaly:{action.reason}")

    def capture(self, node: str, frame_id: str) -> None:
        now = self.net.now
        seen = any(
            ev.thermal_visible and node in ev.pn_ids and ev.t_onset_s <= now
            <= ev.t_onset_s + ev.rumble.duration_s + THERMAL_HOLD_S
            for ev in self.scenario.events)
        self.pn_dispatch(node, ThermalFrame(
            frame_id=frame_id, pn_id=node,
            sim_boxes=(SEEN_BOX,) if seen else ()))

    def cn_dispatch(self, event) -> None:
        before = len(self.cn.pending)
        actions = cn_step(self.cn, event, self.net.now)
        node = self.config.cn.node_id
        log = partial(self.log_action, node, f"pending={before}",
                      f"pending={len(self.cn.pending)}")
        for action in actions:
            if isinstance(action, ThermalFrame):
                log(f"run_detector:{action.frame_id}")
                self.net.schedule(self.net.now + DETECTOR_DELAY_S,
                                  lambda f=action: self.decide(f))
            elif isinstance(action, (RepelCommand, NegativeDecision)):
                kind = ("repel" if isinstance(action, RepelCommand)
                        else "negative")
                log(f"publish_{kind}:{action.frame_id}")
                self.publish(node, f"cn/cmd/{action.pn_id}", action)
            elif isinstance(action, WarningRecord):
                log(f"{action.kind.value}:{action.frame_id}")
                self.warnings.append(action.to_record())
                self.publish(node, "cn/warning", action)
            else:  # LogAnomaly
                log(f"anomaly:{action.reason}")

    def decide(self, frame: ThermalFrame) -> None:
        decision = detect_frame(frame, self.detector)
        self.detections.append({
            "t": self.net.now, "frame_id": decision.frame_id,
            "pn_id": frame.pn_id,
            "elephant_present": decision.elephant_present,
            "confidence": round(decision.confidence, 6)})
        self.cn_dispatch(decision)

    def log_action(self, node: str, state_from: str, state_to: str,
                   action: str) -> None:
        self.actions.append({"t": self.net.now, "node": node,
                             "state_from": state_from, "state_to": state_to,
                             "action": action})

    def publish(self, sender: str, topic: str, payload,
                qos: QoS = QoS.AT_LEAST_ONCE) -> None:
        self.net.publish(sender, f"{self.config.topic_prefix}/{topic}",
                         payload, qos=qos)


def run_scenario_with_logs(scenario: Scenario, config: SimConfig | None = None,
                           out_dir: str | Path | None = None
                           ) -> tuple[MetricsReport, RunLogs]:
    """Run one scenario end to end; returns the report plus the raw logs."""
    config = config if config is not None else SimConfig()
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

    run = _Run(scenario, config)

    # seismic synthesis and window scoring, for every node, up front; the
    # event loop consumes each score at its window's end time. A window
    # scoring 0 triggers nothing (ds_threshold is at least 1), so only the
    # windows a rumble touches that score ds >= 1 are found and scheduled
    ids = [p.node_id for p in scenario.pns]
    streams = [([(ev.t_onset_s, ev.rumble) for ev in scenario.events
                 if pn_id in ev.pn_ids], scenario.duration_s,
                derive_seed(scenario.master_seed, "seismic", pn_id))
               for pn_id in ids]
    for pn_id, hits in zip(ids, trigger_windows(
            streams, config.seismic_rate_hz, config.alg1)):
        for det in hits:
            t_ready = det.window_start_s + config.alg1.window_s
            run.net.schedule(t_ready, lambda n=pn_id, d=det:
                             run.pn_dispatch(n, d))

    run.net.run_until(scenario.duration_s)

    logs = RunLogs(
        delivery_trace=run.net.trace,
        actions=run.actions,
        warnings=run.warnings,
        detections=run.detections,
    )
    report = compute_metrics(logs, scenario, config)

    if out is not None:
        run.net.write_trace_jsonl(out / "delivery_trace.jsonl")
        write_jsonl(logs.actions, out / "actions.jsonl")
        write_jsonl(logs.warnings, out / "warnings.jsonl")
        write_jsonl(logs.detections, out / "detections.jsonl")
        (out / "metrics.json").write_text(report.dumps())
    return report, logs
