"""Seeded workloads for the hecsim benchmark.

Each workload has three parts:

- ``build(seed, size)`` makes the inputs and config objects from the seed.
  It is the only place that draws from the seed; the program receives only
  what it returns.
- ``job(inputs, out_dir)`` runs the program once on those inputs. This is
  the timed part.
- ``fingerprint``, ``counts`` and ``sim_metrics`` read the job's outputs
  from outside, after the timer has stopped.

Everything the program is called through is looked up as a module
attribute at call time (``detection.detect_stream``, not a bare name), so
that the tracer in ``tracer.py`` can wrap it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hecsim import detection, deterrent, harness, mesh, seeds, signals, sigio

DEFAULT_SEED = 1

FIELD_OUTPUTS = ("metrics.json", "delivery_trace.jsonl", "actions.jsonl",
                 "detections.jsonl", "warnings.jsonl")

# Mesh links used by field-hour and mesh-storm: 50 ms base latency, up to
# 20 ms of uniform jitter, 5% loss per transmission.
LOSSY_LINK = mesh.LinkModel(latency_s=0.05, jitter_s=0.02, loss_prob=0.05)
BROKERS = ("broker-a", "broker-b")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _median_or_none(values):
    return statistics.median(values) if values else None


def _percentile_or_none(values, q):
    return float(np.percentile(values, q)) if values else None


def mesh_trace_counts(trace: list[dict]) -> dict:
    """Event counts of one delivery trace; heartbeats are not applications."""
    drops = {reason: 0 for reason in ("loss", "session_gone", "disconnected",
                                      "unreachable", "buffer_overflow",
                                      "broker_dead")}
    publishes = deliveries = retries = failovers = heartbeat_rows = 0
    for row in trace:
        event = row["event"]
        if row["topic"].startswith("sys/heartbeat/"):
            heartbeat_rows += 1
            continue
        if event == "publish":
            publishes += 1
        elif event == "deliver":
            deliveries += 1
        elif event == "retry":
            retries += 1
        elif event == "failover":
            failovers += 1
        elif event == "drop":
            drops[row["reason"]] += 1
    dropped = sum(drops.values())
    rows = len(trace)
    return {
        "mesh.trace_rows": rows,
        "mesh.heartbeat_share": heartbeat_rows / rows if rows else 0.0,
        "mesh.app_publishes": publishes,
        "mesh.deliveries": deliveries,
        "mesh.retries": retries,
        "mesh.failovers": failovers,
        **{f"mesh.drops.{k}": v for k, v in drops.items()},
        "mesh.useful_ratio": (deliveries / (deliveries + dropped)
                              if deliveries + dropped else 0.0),
    }


def delivered_ratio(trace: list[dict], subscribers) -> float | None:
    """Application deliveries / (publishes x matching subscribers)."""
    expected = delivered = 0
    for row in trace:
        if row["topic"].startswith("sys/heartbeat/"):
            continue
        if row["event"] == "publish":
            expected += subscribers(row["topic"])
        elif row["event"] == "deliver":
            delivered += 1
    return delivered / expected if expected else None


# ---------------------------------------------------------------- field-hour

@dataclass(frozen=True)
class FieldSize:
    nodes: int
    duration_s: float
    events: int
    partition_s: float


FIELD_SIZES = {
    "full": FieldSize(nodes=3, duration_s=3600.0, events=12, partition_s=120.0),
    "smoke": FieldSize(nodes=2, duration_s=120.0, events=2, partition_s=20.0),
}


@dataclass(frozen=True)
class FieldInputs:
    scenario: harness.Scenario
    config: harness.SimConfig
    pattern_by_node: dict


def build_field_hour(seed: int, size: str) -> FieldInputs:
    """A few nodes for one simulated hour over a lossy two-broker mesh.

    Events last 3-6 s at -5..20 dB SNR and touch 1-3 nodes; 80% of them are
    thermally visible. Two nodes are cut off for one partition window, and
    the first broker dies halfway through.
    """
    sz = FIELD_SIZES[size]
    rng = np.random.default_rng(seeds.derive_seed(seed, "field-hour"))
    nodes = [f"pn-{i + 1}" for i in range(sz.nodes)]
    events = []
    for _ in range(sz.events):
        duration = round(float(rng.uniform(3.0, 6.0)), 3)
        onset = round(float(rng.uniform(1.0, sz.duration_s - duration - 1.0)), 3)
        touched = rng.choice(len(nodes), size=int(rng.integers(1, min(3, len(nodes)) + 1)),
                             replace=False)
        events.append(harness.ElephantEvent(
            t_onset_s=onset,
            pn_ids=tuple(nodes[i] for i in sorted(touched)),
            rumble=signals.RumbleSpec(duration_s=duration,
                                      snr_db=round(float(rng.uniform(-5.0, 20.0)), 3)),
            thermal_visible=bool(rng.random() < 0.8)))
    events.sort(key=lambda ev: ev.t_onset_s)
    cut_start = round(float(rng.uniform(0.1, 0.4)) * sz.duration_s, 3)
    cut = rng.choice(len(nodes), size=min(2, len(nodes)), replace=False)
    network = mesh.NetworkConfig(
        brokers=BROKERS,
        default_link=LOSSY_LINK,
        partitions=(mesh.Partition(t_start_s=cut_start,
                                   t_end_s=cut_start + sz.partition_s,
                                   nodes=frozenset(nodes[i] for i in cut)),),
        broker_failures=(mesh.BrokerFailure(BROKERS[0], sz.duration_s / 2),))
    scenario = harness.Scenario(
        name=f"field-hour-{size}-{seed}", duration_s=sz.duration_s,
        pns=tuple(harness.PnPlacement(n) for n in nodes),
        events=tuple(events), detector="stochastic",
        master_seed=int(seed), network=network)
    config = harness.SimConfig()
    # who subscribes to what, as wired by the harness: the central node to
    # every frame topic, each node to its own command topic
    prefix = config.topic_prefix
    patterns = {config.cn.node_id: f"{prefix}/pn/+/frame"}
    patterns.update({n: f"{prefix}/cn/cmd/{n}" for n in nodes})
    return FieldInputs(scenario=scenario, config=config,
                       pattern_by_node=patterns)


def run_field_hour(inputs: FieldInputs, out_dir: Path):
    return harness.run_scenario_with_logs(inputs.scenario, inputs.config,
                                          out_dir=out_dir)


def fingerprint_field_hour(result, out_dir: Path) -> dict:
    return {name: sha256_file(out_dir / name) for name in FIELD_OUTPUTS}


def counts_field_hour(inputs: FieldInputs, result) -> dict:
    _, logs = result
    return {
        **mesh_trace_counts(logs.delivery_trace),
        "harness.actions": len(logs.actions),
        "central.warnings": len(logs.warnings),
        "central.decisions": len(logs.detections),
    }


def sim_field_hour(inputs: FieldInputs, result) -> dict:
    report, logs = result
    sc = inputs.scenario
    patterns = list(inputs.pattern_by_node.values())
    latencies = [ev.latency_s for ev in report.events if ev.detected]
    return {
        "recall": report.recall,
        "false_warnings": report.false_warning_count,
        "warning_latency_p50_s": _median_or_none(latencies),
        "delivered_ratio": delivered_ratio(
            logs.delivery_trace,
            lambda topic: sum(mesh.topic_matches(p, topic) for p in patterns)),
        "sim_node_hours": len(sc.pns) * sc.duration_s / 3600.0,
    }


# ---------------------------------------------------------------- mesh-storm

@dataclass(frozen=True)
class StormSize:
    nodes: int
    dashboards: int
    duration_s: float
    partition_s: float


STORM_SIZES = {
    "full": StormSize(nodes=40, dashboards=10, duration_s=120.0, partition_s=30.0),
    "smoke": StormSize(nodes=6, dashboards=2, duration_s=30.0, partition_s=6.0),
}

STATUS_PERIOD_S = 1.0
FRAME_PERIOD_S = 10.0


@dataclass(frozen=True)
class StormInputs:
    config: mesh.NetworkConfig
    nodes: tuple[str, ...]
    dashboards: tuple[str, ...]
    status_phase_s: tuple[float, ...]
    frame_phase_s: tuple[float, ...]
    duration_s: float


def build_mesh_storm(seed: int, size: str) -> StormInputs:
    """Node status fan-out plus frame/command round trips on a lossy mesh."""
    sz = STORM_SIZES[size]
    rng = np.random.default_rng(seeds.derive_seed(seed, "mesh-storm"))
    nodes = tuple(f"pn-{i + 1:02d}" for i in range(sz.nodes))
    cut_start = round(float(rng.uniform(0.1, 0.3)) * sz.duration_s, 3)
    cut = rng.choice(len(nodes), size=max(1, len(nodes) // 10), replace=False)
    config = mesh.NetworkConfig(
        brokers=BROKERS,
        default_link=LOSSY_LINK,
        partitions=(mesh.Partition(t_start_s=cut_start,
                                   t_end_s=cut_start + sz.partition_s,
                                   nodes=frozenset(nodes[i] for i in cut)),),
        broker_failures=(mesh.BrokerFailure(BROKERS[0], sz.duration_s / 2),),
        seed=seeds.derive_seed(seed, "mesh-storm", "net"))
    return StormInputs(
        config=config, nodes=nodes,
        dashboards=tuple(f"dash-{i + 1:02d}" for i in range(sz.dashboards)),
        status_phase_s=tuple(round(float(x), 4) for x in
                             rng.uniform(0.0, STATUS_PERIOD_S, len(nodes))),
        frame_phase_s=tuple(round(float(x), 4) for x in
                            rng.uniform(0.0, FRAME_PERIOD_S, len(nodes))),
        duration_s=sz.duration_s)


def run_mesh_storm(inputs: StormInputs, out_dir: Path):
    net = mesh.MeshNetwork(inputs.config)
    most, least = mesh.QoS.AT_MOST_ONCE, mesh.QoS.AT_LEAST_ONCE
    end = inputs.duration_s

    def answer(client_id, msg, t):
        pn = msg.payload["pn_id"]
        net.publish("cn", f"hec/cn/cmd/{pn}",
                    {"kind": "negative", "pn_id": pn,
                     "frame_id": msg.payload["frame_id"], "issued_at_s": t},
                    qos=least)

    net.add_client("cn", on_message=answer)
    net.subscribe("cn", "hec/pn/+/frame")
    for node in inputs.nodes:
        net.add_client(node)
        net.subscribe(node, f"hec/cn/cmd/{node}")
    for dash in inputs.dashboards:
        net.add_client(dash)
        net.subscribe(dash, "hec/pn/+/status")
    mesh.heartbeat_and_failover(net)

    def status(node, k):
        net.publish(node, f"hec/pn/{node}/status",
                    {"kind": "status", "pn_id": node, "seq": k}, qos=most)

    def frame(node, k):
        net.publish(node, f"hec/pn/{node}/frame",
                    {"kind": "frame", "pn_id": node,
                     "frame_id": f"{node}-f{k:04d}"}, qos=least)

    for node, s_phase, f_phase in zip(inputs.nodes, inputs.status_phase_s,
                                      inputs.frame_phase_s):
        for period, phase, send in ((STATUS_PERIOD_S, s_phase, status),
                                    (FRAME_PERIOD_S, f_phase, frame)):
            k = 0
            while phase + k * period < end:
                net.schedule(phase + k * period,
                             lambda n=node, i=k, f=send: f(n, i))
                k += 1

    delivered = net.run_until(end)
    net.write_trace_jsonl(out_dir / "delivery_trace.jsonl")
    sigio.write_jsonl(net.broker_transitions, out_dir / "transitions.jsonl")
    return net, delivered


def fingerprint_mesh_storm(result, out_dir: Path) -> dict:
    return {name: sha256_file(out_dir / name)
            for name in ("delivery_trace.jsonl", "transitions.jsonl")}


def counts_mesh_storm(inputs: StormInputs, result) -> dict:
    net, delivered = result
    kinds = [row["kind"] for row in net.broker_transitions]
    return {
        **mesh_trace_counts(net.trace),
        "mesh.delivered_returned": len(delivered),
        "mesh.broker_kills": kinds.count("broker_killed"),
        "mesh.transition_failovers": kinds.count("failover"),
        "mesh.reconnects": kinds.count("reconnect"),
    }


def _storm_subscribers(inputs: StormInputs):
    def count(topic: str) -> int:
        parts = topic.split("/")
        if parts[1] == "pn" and parts[3] == "status":
            return len(inputs.dashboards)
        return 1  # frames go to the central node, commands to one node
    return count


def sim_mesh_storm(inputs: StormInputs, result) -> dict:
    net, _ = result
    published = {}
    latencies = []
    for row in net.trace:
        if row["topic"].startswith("sys/heartbeat/"):
            continue
        if row["event"] == "publish":
            published[row["msg_id"]] = row["t"]
        elif row["event"] == "deliver":
            latencies.append(row["t"] - published[row["msg_id"]])
    return {
        "delivered_ratio": delivered_ratio(net.trace, _storm_subscribers(inputs)),
        "msg_latency_p50_s": _percentile_or_none(latencies, 50),
        "msg_latency_p99_s": _percentile_or_none(latencies, 99),
        "app_publishes": len(published),
    }


# ---------------------------------------------------------------- eval-sweep

@dataclass(frozen=True)
class SweepSize:
    recordings: int
    recording_s: float
    events_per_recording: int
    draws: int
    clip_s: float


SWEEP_SIZES = {
    "full": SweepSize(recordings=2, recording_s=600.0, events_per_recording=6,
                      draws=16, clip_s=10.0),
    "smoke": SweepSize(recordings=1, recording_s=60.0, events_per_recording=2,
                       draws=3, clip_s=2.0),
}


@dataclass(frozen=True)
class SweepInputs:
    recordings: tuple  # (seed, total_s, ((onset, RumbleSpec), ...))
    clip: signals.AudioClip
    draw_seeds: tuple[int, ...]


def build_eval_sweep(seed: int, size: str) -> SweepInputs:
    """Multi-event recordings for the recall loop, a clip for the draws.

    Events in one recording do not overlap: each sits in its own slot of
    the recording at a random offset, lasting 3-5 s at 5..20 dB SNR.
    """
    sz = SWEEP_SIZES[size]
    rng = np.random.default_rng(seeds.derive_seed(seed, "eval-sweep"))
    slot = sz.recording_s / sz.events_per_recording
    recordings = []
    for r in range(sz.recordings):
        events = []
        for k in range(sz.events_per_recording):
            duration = round(float(rng.uniform(3.0, 5.0)), 3)
            onset = round(k * slot + float(rng.uniform(0.5, slot - duration - 0.5)), 3)
            events.append((onset, signals.RumbleSpec(
                duration_s=duration, snr_db=round(float(rng.uniform(5.0, 20.0)), 3))))
        recordings.append((seeds.derive_seed(seed, "recording", r),
                           sz.recording_s, tuple(events)))
    clip = signals.synth_bee_buzz(duration_s=sz.clip_s,
                                  seed=seeds.derive_seed(seed, "clip"))
    return SweepInputs(
        recordings=tuple(recordings), clip=clip,
        draw_seeds=tuple(seeds.derive_seed(seed, "draw", i)
                         for i in range(sz.draws)))


@dataclass
class SweepResult:
    detections: list    # per recording: [[window_index, ds, max_run], ...]
    intervals: list     # per recording: [[t_start_s, t_end_s], ...]
    matched: list       # per recording: matched event count
    draws: list         # per draw: [kind, alpha, similarity, lag, l2]


def run_eval_sweep(inputs: SweepInputs, out_dir: Path) -> SweepResult:
    params = detection.Algorithm1Params()
    result = SweepResult([], [], [], [])
    for rec_seed, total_s, events in inputs.recordings:
        trace = signals.synth_rumble_stream(list(events), total_s=total_s,
                                            seed=rec_seed)
        dets = detection.detect_stream(trace, params)
        found = detection.stft_oracle_detect(trace)
        report = detection.match_and_recall(dets, found, window_s=params.window_s)
        result.detections.append([[d.window_index, d.ds, d.max_run] for d in dets])
        result.intervals.append([[ev.t_start_s, ev.t_end_s] for ev in found])
        result.matched.append(report.matched_count)
    for draw_seed in inputs.draw_seeds:
        mod = deterrent.pick_modification(draw_seed)
        modified = deterrent.apply_modification(inputs.clip, mod)
        score = deterrent.stft_similarity(inputs.clip, modified)
        result.draws.append([mod.kind.value, mod.alpha, score.max_xcorr,
                             score.lag_frames,
                             deterrent.l2_delta(inputs.clip, modified)])
    return result


def fingerprint_eval_sweep(result: SweepResult, out_dir: Path) -> dict:
    return {
        "detections_sha256": sha256_json(result.detections),
        "intervals": result.intervals,
        "matched": result.matched,
        "draw_kinds": [d[0] for d in result.draws],
        "draw_lags": [d[3] for d in result.draws],
        "draw_alpha": [d[1] for d in result.draws],
        "similarity": [d[2] for d in result.draws],
        "l2_delta": [d[4] for d in result.draws],
    }


# float lists compared to a tolerance; every other field must be equal
SWEEP_TOLERANT = ("draw_alpha", "similarity", "l2_delta")
SWEEP_TOLERANCE = 1e-9


def counts_eval_sweep(inputs: SweepInputs, result: SweepResult) -> dict:
    return {
        "detection.windows": sum(len(d) for d in result.detections),
        "detection.hits": sum(1 for dets in result.detections
                              for _, ds, _ in dets if ds >= 1),
        "detection.oracle_events": sum(len(i) for i in result.intervals),
        "detection.matched": sum(result.matched),
        "deterrent.draws": len(result.draws),
    }


def sim_eval_sweep(inputs: SweepInputs, result: SweepResult) -> dict:
    oracle = sum(len(i) for i in result.intervals)
    return {
        "recall": sum(result.matched) / oracle if oracle else None,
        "similarity_min": min(d[2] for d in result.draws),
    }


# ---------------------------------------------------------------- registry

def outputs_match(got: dict, ref: dict) -> bool:
    """Exact equality, except float lists named in SWEEP_TOLERANT."""
    if got.keys() != ref.keys():
        return False
    for key, value in got.items():
        if key in SWEEP_TOLERANT:
            if len(value) != len(ref[key]) or any(
                    abs(a - b) > SWEEP_TOLERANCE for a, b in zip(value, ref[key])):
                return False
        elif value != ref[key]:
            return False
    return True


def corrupt_output(result, out_dir: Path) -> None:
    """Damage one output of a finished job, for the benchmark's own tests."""
    if isinstance(result, SweepResult):
        result.draws[0][2] += 1e3 * SWEEP_TOLERANCE
    else:
        with open(min(Path(out_dir).iterdir()), "ab") as fh:
            fh.write(b" ")


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    job: object
    fingerprint: object
    counts: object
    sim_metrics: object


WORKLOADS = {
    "field-hour": Workload("field-hour", build_field_hour, run_field_hour,
                           fingerprint_field_hour, counts_field_hour,
                           sim_field_hour),
    "mesh-storm": Workload("mesh-storm", build_mesh_storm, run_mesh_storm,
                           fingerprint_mesh_storm, counts_mesh_storm,
                           sim_mesh_storm),
    "eval-sweep": Workload("eval-sweep", build_eval_sweep, run_eval_sweep,
                           fingerprint_eval_sweep, counts_eval_sweep,
                           sim_eval_sweep),
}
