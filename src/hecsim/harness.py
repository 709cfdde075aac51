"""Scenario runner: seismic synthesis, node state machines, mesh, metrics.

A Scenario says where the peripheral nodes stand, when elephants pass
which of them and which network joins them; a SimConfig says how the nodes
behave.
run_scenario_with_logs synthesizes one seismic trace per node, scores every
window, and drives the peripheral and central state machines through the
simulated mesh in a single discrete-event loop. Every random choice descends
from the scenario's master seed through labeled sub-seeds, so the same
scenario and seed produce byte-identical outputs.

Outputs per run: delivery_trace.jsonl, actions.jsonl, detections.jsonl,
warnings.jsonl, metrics.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .central import (CnConfig, CnState, IssueWarning, OracleDetector,
                      PublishCommand, RunDetector, StochasticDetector,
                      StochasticDetectorParams, WarningKind, cn_step,
                      detect_frame)
from .codec import JsonConfig, encode, read_json
from .detection import Algorithm1Params, WindowDetection, detect_stream
from .errors import InvalidConfigError, InvalidInputError
from .mesh import (MeshNetwork, NetworkConfig, QoS, heartbeat_and_failover)
from .peripheral import (CaptureFrame, Flash, LogAnomaly, PlayDeterrent,
                         PnConfig, PnState, PnStateKind, PreArm, PublishFrame,
                         RepelCommand, ThermalFrame, TimerExpired,
                         ir_duty_cycle, pn_step)
from .seeds import derive_seed
from .signals import RumbleSpec, synth_rumble_stream
from .sigio import write_jsonl


# ---- scenario model ----

@dataclass(frozen=True)
class PnPlacement:
    """A peripheral node and the hotspot label it guards."""

    node_id: str
    position: str = ""


@dataclass(frozen=True)
class ElephantEvent:
    """One approach: a rumble heard by the listed nodes from t_onset_s.

    thermal_visible controls whether a frame captured while the animal is
    near carries a positive ground truth; a seismically audible but
    thermally hidden event exercises the negative-decision path.
    """

    t_onset_s: float
    pn_ids: tuple[str, ...]
    rumble: RumbleSpec
    thermal_visible: bool = True

    def __post_init__(self):
        object.__setattr__(self, "pn_ids", tuple(self.pn_ids))
        if not self.t_onset_s >= 0:
            raise InvalidInputError("event onset must be non-negative")
        if not self.pn_ids:
            raise InvalidInputError("event must touch at least one node")


@dataclass(frozen=True)
class Scenario(JsonConfig):
    name: str
    duration_s: float
    pns: tuple[PnPlacement, ...]
    events: tuple[ElephantEvent, ...] = ()
    detector: str = "oracle"
    master_seed: int = 0
    network: NetworkConfig = NetworkConfig()

    def __post_init__(self):
        object.__setattr__(self, "pns", tuple(self.pns))
        object.__setattr__(self, "events", tuple(self.events))
        if not 0 < self.duration_s < math.inf:
            raise InvalidConfigError("scenario duration must be positive and finite")
        if not self.pns:
            raise InvalidConfigError("scenario needs at least one node")
        ids = [p.node_id for p in self.pns]
        if len(set(ids)) != len(ids):
            raise InvalidConfigError("duplicate node ids")
        if self.detector not in ("oracle", "stochastic"):
            raise InvalidConfigError(f"unknown detector {self.detector!r}")
        known = set(ids)
        for ev in self.events:
            # the same tolerance synth_rumble_stream applies to the stream end
            if ev.t_onset_s + ev.rumble.duration_s > self.duration_s + 1e-9:
                raise InvalidConfigError("event rumble runs past the end of the scenario")
            missing = set(ev.pn_ids) - known
            if missing:
                raise InvalidConfigError(f"event references unknown nodes {sorted(missing)}")
        if self.network.seed != 0:
            raise InvalidConfigError(
                "network seed must be 0: the mesh seed comes from master_seed")

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        """Read a scenario file; a string network is a path to a network
        config file, relative to the scenario file itself."""
        path = Path(path)
        data = read_json(path, cls.__name__)
        if isinstance(data, dict) and isinstance(data.get("network"), str):
            data["network"] = read_json(path.parent / data["network"],
                                        f"{cls.__name__}.network")
        return cls.from_json(data)


@dataclass(frozen=True)
class SimConfig(JsonConfig):
    alg1: Algorithm1Params = Algorithm1Params()
    seismic_rate_hz: float = 1000.0
    noise_rms: float = 1.0
    pn: PnConfig = PnConfig()
    cn: CnConfig = CnConfig()
    detector_params: StochasticDetectorParams = StochasticDetectorParams()
    thermal_hold_s: float = 30.0
    capture_delay_s: float = 0.05
    detector_delay_s: float = 0.1
    topic_prefix: str = "hec"
    match_horizon_s: float = 30.0

    def __post_init__(self):
        if not 0 < self.seismic_rate_hz < math.inf or \
                not 0 < self.noise_rms < math.inf:
            raise InvalidConfigError(
                "rate and noise level must be positive and finite")
        if not self.capture_delay_s >= 0 or not self.detector_delay_s >= 0:
            raise InvalidConfigError("delays must be non-negative")
        if not self.thermal_hold_s >= 0 or not self.match_horizon_s >= 0:
            raise InvalidConfigError(
                "thermal hold and match horizon must be non-negative")
        if "/" in self.topic_prefix or "+" in self.topic_prefix \
                or not self.topic_prefix:
            raise InvalidConfigError("topic prefix must be one plain segment")


# ---- metrics ----

@dataclass(frozen=True)
class EventOutcome:
    t_onset_s: float
    pn_ids: tuple[str, ...]
    detected: bool
    latency_s: float | None

    def __post_init__(self):
        if self.latency_s is not None and self.latency_s < 0:
            raise InvalidInputError("latency cannot be negative")


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    duration_s: float
    events: tuple[EventOutcome, ...]
    recall: float | None
    false_warning_count: int
    ir_duty_cycle: dict
    message_counts: dict
    seed: int

    def __post_init__(self):
        if self.recall is not None and not 0.0 <= self.recall <= 1.0:
            raise InvalidInputError("recall must lie in [0, 1]")

    def to_json(self) -> dict:
        return encode(self)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


@dataclass
class RunLogs:
    """Everything one run produced, as plain JSON-able rows."""

    delivery_trace: list
    actions: list
    warnings: list
    detections: list


def compute_metrics(logs: RunLogs, scenario: Scenario,
                    config: SimConfig) -> MetricsReport:
    """Reduce one run's logs to the summary report.

    An event counts as detected when an officer warning lands inside
    [onset, onset + match_horizon_s]; a warning inside no event's horizon is
    false. Duty cycles come from the state each action row leaves its
    node in.
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

    duty = {}
    for placement in scenario.pns:
        node = placement.node_id
        history = [(0.0, PnState())] + [
            (row["t"], PnState(PnStateKind(row["state_to"])))
            for row in logs.actions if row["node"] == node]
        duty[node] = ir_duty_cycle(history, scenario.duration_s)

    counts: dict[str, dict] = {}
    for row in logs.delivery_trace:
        if not row["msg_id"] or row["event"] not in ("publish", "deliver"):
            continue
        slot = counts.setdefault(row["topic"], {"published": 0, "delivered": 0})
        slot["published" if row["event"] == "publish" else "delivered"] += 1

    return MetricsReport(
        scenario=scenario.name, duration_s=scenario.duration_s,
        events=tuple(outcomes), recall=recall,
        false_warning_count=false_count, ir_duty_cycle=duty,
        message_counts=counts, seed=scenario.master_seed)


# ---- orchestration ----

def _action_label(action) -> str:
    if isinstance(action, CaptureFrame):
        return f"capture_frame:{action.count}"
    if isinstance(action, PublishFrame):
        return f"publish_frame:{action.frame.frame_id}"
    if isinstance(action, PlayDeterrent):
        d = action.command.deterrent
        return f"play_deterrent:{d.kind.value}:alpha={d.alpha:.4f}"
    if isinstance(action, Flash):
        return f"flash:{action.freq_hz}hz:{action.duration_s}s"
    if isinstance(action, PreArm):
        return f"pre_arm:{action.ds}"
    if isinstance(action, LogAnomaly):
        return f"anomaly:{action.reason}"
    if isinstance(action, RunDetector):
        return f"run_detector:{action.frame.frame_id}"
    if isinstance(action, PublishCommand):
        kind = ("repel" if isinstance(action.command, RepelCommand)
                else "negative")
        return f"publish_{kind}:{action.command.frame_id}"
    if isinstance(action, IssueWarning):
        return f"{action.record.kind.value}:{action.record.frame_id}"
    return type(action).__name__


class _Run:
    """One run's mesh, node states and logs.

    pn_dispatch and cn_dispatch step a node's state machine, log the step
    and perform its actions: schedule timers, captures and detector runs,
    and publish the state machines' own objects as mesh payloads.
    """

    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.config = config
        network = scenario.network
        clients = {p.node_id for p in scenario.pns} | {config.cn.node_id}
        stray = set(network.link_overrides) - clients
        if stray:
            raise InvalidConfigError(
                "Scenario.network.link_overrides: unknown clients "
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
        if new != old or actions:
            for label in [_action_label(a) for a in actions] or [""]:
                self.log_action(node, old.kind.value, new.kind.value, label)
        for action in actions:
            if isinstance(action, CaptureFrame):
                # only a seismic window triggers a capture
                fid = f"{node}-w{event.window_index:03d}"
                for k in range(action.count):
                    suffix = f"-c{k}" if action.count > 1 else ""
                    self.net.schedule_in(
                        self.config.capture_delay_s,
                        lambda f=fid + suffix: self.capture(node, f))
            elif isinstance(action, PublishFrame):
                self.publish(node, f"pn/{node}/frame", action.frame)
            # PlayDeterrent / Flash / PreArm / LogAnomaly are fully described
            # by their action-log rows; nothing further runs in simulation

    def capture(self, node: str, frame_id: str) -> None:
        now = self.net.now
        hold = self.config.thermal_hold_s
        seen = any(
            ev.thermal_visible and node in ev.pn_ids
            and ev.t_onset_s <= now <= ev.t_onset_s + ev.rumble.duration_s + hold
            for ev in self.scenario.events)
        self.pn_dispatch(node, ThermalFrame(
            frame_id=frame_id, pn_id=node, timestamp_s=now,
            # a seen elephant fills the central half of the 32x24 frame
            sim_boxes=((8.0, 6.0, 24.0, 18.0),) if seen else ()))

    def cn_dispatch(self, event) -> None:
        old = self.cn
        new, actions = cn_step(old, event, self.config.cn, self.net.now)
        self.cn = new
        node = self.config.cn.node_id
        for action in actions:
            self.log_action(node, f"pending={len(old.pending)}",
                            f"pending={len(new.pending)}", _action_label(action))
            if isinstance(action, RunDetector):
                self.net.schedule_in(self.config.detector_delay_s,
                                     lambda f=action.frame: self.decide(f))
            elif isinstance(action, PublishCommand):
                self.publish(node, f"cn/cmd/{action.command.pn_id}",
                             action.command)
            elif isinstance(action, IssueWarning):
                self.warnings.append(action.record.to_record())
                self.publish(node, "cn/warning", action.record)

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

    # seismic synthesis and window scoring, per node, up front; the event
    # loop consumes each score at its window's end time. A window scoring 0
    # triggers nothing (ds_threshold is at least 1), so it is not scheduled.
    # No name holds a node's trace, so it is freed before the next is made
    for placement in scenario.pns:
        pn_id = placement.node_id
        events = [(ev.t_onset_s, ev.rumble) for ev in scenario.events
                  if pn_id in ev.pn_ids]
        for det in detect_stream(synth_rumble_stream(
                events, total_s=scenario.duration_s,
                sample_rate_hz=config.seismic_rate_hz,
                seed=derive_seed(scenario.master_seed, "seismic", pn_id),
                noise_rms=config.noise_rms), config.alg1):
            if det.ds >= 1:
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


def example_scenario() -> Scenario:
    """Three riverside nodes, two elephant approaches in one minute."""
    return Scenario(
        name="river-crossing",
        duration_s=60.0,
        pns=(PnPlacement("pn-1", "river-east"),
             PnPlacement("pn-2", "river-ford"),
             PnPlacement("pn-3", "river-west")),
        events=(
            ElephantEvent(t_onset_s=8.25, pn_ids=("pn-1",),
                          rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),
            ElephantEvent(t_onset_s=28.3, pn_ids=("pn-3",),
                          rumble=RumbleSpec(duration_s=3.5, snr_db=14.0)),
        ),
        detector="oracle",
        master_seed=42,
    )
