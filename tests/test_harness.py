import collections
import copy
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecsim.detection import Algorithm1Params
from hecsim.errors import InvalidConfigError, InvalidInputError
from hecsim.harness import (CAPTURE_DELAY_S, DETECTOR_DELAY_S, ElephantEvent,
                            EventOutcome, MetricsReport, PnPlacement, RunLogs,
                            Scenario, SimConfig, _Run, compute_metrics,
                            run_scenario_with_logs)
from hecsim.mesh import BrokerFailure, LinkModel, NetworkConfig, Partition
from hecsim.peripheral import PnConfig, ThermalFrame
from hecsim.signals import RumbleSpec
from oracles import naive_ir_duty

REPO = Path(__file__).resolve().parents[1]


def bundled_scenario():
    """The bundled example: three riverside nodes, two approaches."""
    return Scenario.load(REPO / "scenarios/example_scenario.json")


def tiny_scenario(**kwargs):
    defaults = dict(
        name="tiny", duration_s=20.0,
        pns=(PnPlacement("pn-1"),),
        events=(ElephantEvent(t_onset_s=4.25, pn_ids=("pn-1",),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),),
        master_seed=7)
    defaults.update(kwargs)
    return Scenario(**defaults)


# ---- validation ----

def test_scenario_validation():
    for duration_s in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidConfigError):
            tiny_scenario(duration_s=duration_s)
    with pytest.raises(InvalidConfigError):
        tiny_scenario(pns=())
    with pytest.raises(InvalidConfigError):
        tiny_scenario(pns=(PnPlacement("a"), PnPlacement("a")))
    with pytest.raises(InvalidConfigError):
        tiny_scenario(detector="psychic")
    with pytest.raises(InvalidConfigError):
        tiny_scenario(events=(ElephantEvent(
            t_onset_s=25.0, pn_ids=("pn-1",),
            rumble=RumbleSpec(duration_s=3.0)),))  # onset past the end
    with pytest.raises(InvalidConfigError):
        tiny_scenario(events=(ElephantEvent(
            t_onset_s=18.0, pn_ids=("pn-1",),
            rumble=RumbleSpec(duration_s=3.0)),))  # rumble runs past the end
    with pytest.raises(InvalidInputError):
        ElephantEvent(t_onset_s=float("nan"), pn_ids=("pn-1",),
                      rumble=RumbleSpec(duration_s=3.0))
    with pytest.raises(InvalidConfigError):
        tiny_scenario(events=(ElephantEvent(
            t_onset_s=1.0, pn_ids=("pn-9",), rumble=RumbleSpec(duration_s=3.0)),))
    # a node listed twice hears the event once but metrics.json echoes both
    with pytest.raises(InvalidInputError,
                       match=re.escape("event lists node 'pn-1' twice")):
        ElephantEvent(t_onset_s=1.0, pn_ids=("pn-1", "pn-2", "pn-1"),
                      rumble=RumbleSpec(duration_s=3.0))
    data = bundled_scenario().to_json()
    data["events"][0]["pn_ids"] = ["pn-1", "pn-1"]
    with pytest.raises(InvalidConfigError, match=re.escape(
            "Scenario.events[0]: event lists node 'pn-1' twice")):
        Scenario.from_json(data)


def test_event_must_touch_a_node():
    message = "event must touch at least one node"
    with pytest.raises(InvalidInputError, match=message):
        ElephantEvent(t_onset_s=1.0, pn_ids=(),
                      rumble=RumbleSpec(duration_s=3.0))
    data = bundled_scenario().to_json()
    data["events"][0]["pn_ids"] = []
    with pytest.raises(InvalidConfigError, match=re.escape(
            f"Scenario.events[0]: {message}")):
        Scenario.from_json(data)


def test_node_id_is_one_plain_topic_segment(tmp_path):
    # a '/' or '+' in a node id would change which topic patterns match it,
    # a '#' makes a topic the mesh rejects mid-run, and an empty one reads
    # in trace rows as the "to" of no broker
    path = tmp_path / "scenario.json"
    for bad in ("pn/1", "+", "", "pn#1"):
        message = f"node id must be one plain topic segment, got {bad!r}"
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            PnPlacement(bad)
        with pytest.raises(InvalidConfigError, match=re.escape(
                f"SimConfig.cn: {message}")):
            SimConfig.from_json({"cn": {"node_id": bad}})
        with pytest.raises(InvalidConfigError, match=re.escape(
                f"SimConfig: topic prefix must be one plain topic segment, "
                f"got {bad!r}")):
            SimConfig.from_json({"topic_prefix": bad})
        data = json.loads((REPO / "scenarios/example_scenario.json").read_text())
        data["pns"][0]["node_id"] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"Scenario.pns[0]: {message}")):
            Scenario.load(path)


def test_node_id_clashes_name_both_places():
    # a client id shared with a broker or the central node would fail deep
    # in the mesh as a bare duplicate id
    data = bundled_scenario().to_json()
    data["pns"][1]["node_id"] = "broker-a"
    data["events"] = []
    with pytest.raises(InvalidConfigError, match=re.escape(
            "Scenario: pns[1].node_id 'broker-a' is also a broker in "
            "network.brokers")):
        Scenario.from_json(data)
    with pytest.raises(InvalidConfigError, match=re.escape(
            "Scenario.pns[0].node_id and SimConfig.cn.node_id are both "
            "'pn-1'")):
        run_scenario_with_logs(tiny_scenario(),
                               SimConfig.from_json({"cn": {"node_id": "pn-1"}}))
    with pytest.raises(InvalidConfigError, match=re.escape(
            "SimConfig.cn.node_id 'broker-a' is also a broker in "
            "Scenario.network.brokers")):
        run_scenario_with_logs(tiny_scenario(), SimConfig.from_json(
            {"cn": {"node_id": "broker-a"}}))


def test_sim_config_validation():
    with pytest.raises(InvalidConfigError):
        SimConfig(topic_prefix="a/b")
    with pytest.raises(InvalidConfigError):
        SimConfig(topic_prefix="")
    # the constructors reject NaN and infinity, not only the file codec
    nan, inf = float("nan"), float("inf")
    for bad in [{"seismic_rate_hz": nan}, {"seismic_rate_hz": inf},
                {"match_horizon_s": nan}]:
        with pytest.raises(InvalidConfigError):
            SimConfig(**bad)
    # the file codec rejects typos and wrong types, naming the path
    for data, where in [
        # the network lives in the scenario alone
        ({"mesh": {}}, "SimConfig: unknown key 'mesh'"),
        ({"window_s": 4.0}, "SimConfig: unknown key 'window_s'"),
        ({"seismic_rate_hz": "1000.0"},
         "SimConfig.seismic_rate_hz: expected a number"),
        # every scorer is scale-invariant, so the noise level is no setting
        ({"noise_rms": 1.0}, "SimConfig: unknown key 'noise_rms'"),
        # alpha is drawn from deterrent.ALPHA_RANGE alone
        ({"cn": {"deterrent_alpha_range": [0.5, 1.5]}},
         "SimConfig.cn: unknown key 'deterrent_alpha_range'"),
        ({"alg1": {"run_low": 30}}, "SimConfig.alg1: run thresholds"),
        ({"pn": {"flash_freq_hz": 99}},
         "SimConfig.pn: unknown key 'flash_freq_hz'"),
        # a file number is finite, whichever field it fills
        (json.loads('{"seismic_rate_hz": NaN}'),
         "SimConfig.seismic_rate_hz: expected a finite number"),
        ({"match_horizon_s": float("inf")},
         "SimConfig.match_horizon_s: expected a finite number"),
        ({"pn": {"decision_timeout_s": float("nan")}},
         "SimConfig.pn.decision_timeout_s: expected a finite number"),
        ({"match_horizon_s": -1},
         "SimConfig: match_horizon_s -1.0 is not in [0, inf]"),
        ({"match_horizon_s": 10 ** 400},
         "SimConfig.match_horizon_s: expected a finite number"),
        ({"alg1": {"window_s": 1e300, "subsegment_s": 1e-300}},
         "SimConfig.alg1: window_s 1e+300 must hold a whole number of "
         "subsegment_s 1e-300"),
        # keys a run used to overwrite or ignore are gone from the schema
        ({"output_dir": "out"}, "SimConfig: unknown key 'output_dir'"),
        ({"detector_params": {"seed": 3}},
         "SimConfig.detector_params: unknown key 'seed'"),
        ({"cn": {"deterrent_seed": 0}},
         "SimConfig.cn: unknown key 'deterrent_seed'"),
        # one frame per trigger: the capture count and pre-arm are gone
        ({"pn": {"ir_capture_count": 2}},
         "SimConfig.pn: unknown key 'ir_capture_count'"),
        ({"pn": {"arm_on_high_score": True}},
         "SimConfig.pn: unknown key 'arm_on_high_score'"),
        # no run varied them: each is one constant of harness or of
        # RepelCommand
        ({"capture_delay_s": 0.05}, "SimConfig: unknown key 'capture_delay_s'"),
        ({"detector_delay_s": 0.1},
         "SimConfig: unknown key 'detector_delay_s'"),
        ({"thermal_hold_s": 30.0}, "SimConfig: unknown key 'thermal_hold_s'"),
        ({"cn": {"repel_duration_s": 10.0}},
         "SimConfig.cn: unknown key 'repel_duration_s'"),
        ({"cn": {"flash_freq_hz": 2.0}},
         "SimConfig.cn: unknown key 'flash_freq_hz'"),
    ]:
        with pytest.raises(InvalidConfigError, match=re.escape(where)):
            SimConfig.from_json(data)
    # a float field takes a JSON int
    held = SimConfig.from_json({"match_horizon_s": 2}).match_horizon_s
    assert held == 2.0 and type(held) is float


def test_event_outcome_and_report_validation():
    with pytest.raises(InvalidInputError):
        EventOutcome(t_onset_s=0.0, pn_ids=("a",), detected=True,
                     latency_s=-1.0)
    with pytest.raises(InvalidInputError):
        MetricsReport(scenario="x", duration_s=1.0, events=(),
                      recall=1.5, false_warning_count=0, ir_duty_cycle={},
                      message_counts={}, seed=0)


# ---- JSON round trips ----

def test_scenario_round_trip():
    sc = bundled_scenario()
    back = Scenario.from_json(json.loads(json.dumps(sc.to_json())))
    assert back == sc
    with pytest.raises(InvalidConfigError, match="missing key 'duration_s'"):
        Scenario.from_json({"name": "x"})
    data = sc.to_json()
    data["master_sed"] = 1
    with pytest.raises(InvalidConfigError,
                       match="Scenario: unknown key 'master_sed'"):
        Scenario.from_json(data)
    data = sc.to_json()
    data["events"][1]["rumble"]["snr_db"] = "14"
    with pytest.raises(InvalidConfigError,
                       match=re.escape("Scenario.events[1].rumble.snr_db")):
        Scenario.from_json(data)
    data = sc.to_json()
    data["events"][0]["rumble"]["snr_db"] = float("inf")
    with pytest.raises(InvalidConfigError, match=re.escape(
            "Scenario.events[0].rumble.snr_db: expected a finite number")):
        Scenario.from_json(data)


def test_scenario_with_inline_network_round_trip():
    net = NetworkConfig(brokers=("b1", "b2"), max_retries=3)
    sc = tiny_scenario(network=net)
    back = Scenario.from_json(sc.to_json())
    assert back.network == net
    assert tiny_scenario().network == NetworkConfig()
    # the codec checks the network at its path; null is not a network
    for network, where in [
            ({"bogus": 1}, "Scenario.network: unknown key 'bogus'"),
            ({"failover": {"heartbeat_interval_s": float("nan")}},
             "Scenario.network.failover.heartbeat_interval_s: expected a "
             "finite"),
            ({"default_link": {"latency_s": float("nan")}},
             "Scenario.network.default_link.latency_s: expected a finite "
             "number"),
            (None, "Scenario.network: expected an object, got None"),
            # the mesh seed comes from master_seed
            ({"seed": 5}, "Scenario: network seed must be 0"),
            ({"brokers": ["broker-a", "broker-a"]},
             "Scenario.network: broker 'broker-a' is listed twice"),
            ({"brokers": ["broker-a", ""]},
             "Scenario.network: broker id must be one plain topic segment, "
             "got ''")]:
        data = sc.to_json()
        data["network"] = network
        with pytest.raises(InvalidConfigError, match=re.escape(where)):
            Scenario.from_json(data)


def test_scenario_network_is_inline_only(tmp_path):
    # a network is written in the scenario itself, never as a file path;
    # a node is its id alone
    path = tmp_path / "scenario.json"
    for key, value, where in [
            ("network", "net.json",
             "Scenario.network: expected an object, got 'net.json'"),
            ("pns", [{"node_id": "pn-1", "position": "river-east"}],
             "Scenario.pns[0]: unknown key 'position'")]:
        data = tiny_scenario().to_json()
        data[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidConfigError, match=re.escape(where)):
            Scenario.load(path)


def test_sim_config_round_trip():
    cfg = SimConfig()
    back = SimConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back.to_json() == cfg.to_json()


def test_bundled_files_match_builders():
    sim = json.loads((REPO / "scenarios/example_sim.json").read_text())
    assert sim == SimConfig().to_json()


def test_fifty_hour_file_is_its_generator_output():
    # the committed 50-node hour is scripts/make_fifty_hour.py's output
    # byte for byte: 50 nodes, 40 approaches, the first 10 hidden, and no
    # node hears a hidden and a visible approach within 30 s of each other
    made = subprocess.run(
        [sys.executable, str(REPO / "scripts/make_fifty_hour.py")],
        capture_output=True, text=True, check=True).stdout
    path = REPO / "scenarios/fifty_hour.json"
    assert made == path.read_text()
    scenario = Scenario.load(path)
    assert len(scenario.pns) == 50
    assert [ev.thermal_visible for ev in scenario.events] == (
        [False] * 10 + [True] * 30)
    for a in scenario.events[:10]:
        for b in scenario.events[10:]:
            assert not (set(a.pn_ids) & set(b.pn_ids)
                        and abs(a.t_onset_s - b.t_onset_s) < 30)


# ---- end to end ----

def test_example_scenario_end_to_end(tmp_path):
    scenario = bundled_scenario()
    report, logs = run_scenario_with_logs(scenario, out_dir=tmp_path)
    assert report.recall == 1.0
    assert report.false_warning_count == 0
    assert len(report.events) == 2
    link = 0.05
    for ev in report.events:
        assert ev.detected
        assert ev.latency_s <= 4.0 + 2 * link + 0.5
    for node, duty in report.ir_duty_cycle.items():
        assert duty < 0.10
    # every frame and command published was delivered on lossless links
    for topic, counts in report.message_counts.items():
        if "/frame" in topic or "/cmd/" in topic:
            assert counts["delivered"] == counts["published"]
    # the mesh's trace view and a plain list of its row dicts count alike
    as_dicts = replace(logs, delivery_trace=list(logs.delivery_trace))
    assert compute_metrics(as_dicts, scenario, SimConfig()) == report

    for name in ("delivery_trace.jsonl", "actions.jsonl", "warnings.jsonl",
                 "detections.jsonl", "metrics.json"):
        assert (tmp_path / name).exists(), name
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics == report.to_json()
    warning_rows = [json.loads(l) for l in
                    (tmp_path / "warnings.jsonl").read_text().splitlines()]
    assert sum(r["kind"] == "officer_message" for r in warning_rows) == 2
    assert sum(r["kind"] == "siren" for r in warning_rows) == 2


def test_rerun_is_byte_identical(tmp_path):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_scenario_with_logs(bundled_scenario(), out_dir=out)
        blob = hashlib.sha256()
        for name in sorted(p.name for p in out.iterdir()):
            blob.update(name.encode())
            blob.update((out / name).read_bytes())
        digests.append(blob.hexdigest())
    assert digests[0] == digests[1]


def test_repel_commands_are_causally_justified():
    _, logs = run_scenario_with_logs(bundled_scenario())
    score_times = {}  # node -> first qualifying score time
    for row in logs.actions:
        if row["action"].startswith("seismic_score:"):
            score_times.setdefault(row["node"], row["t"])
    for row in logs.actions:
        if row["action"].startswith("publish_repel:"):
            frame_id = row["action"].split(":", 1)[1]
            pn = frame_id.rsplit("-w", 1)[0]
            assert pn in score_times
            assert score_times[pn] < row["t"]


def test_a_repeat_frame_is_logged_as_an_anomaly():
    # the central node runs the detector once per frame id; a second copy
    # of a frame is one anomaly row and nothing else
    run = _Run(tiny_scenario(), SimConfig())
    frame = ThermalFrame(frame_id="pn-1-w004", pn_id="pn-1")
    run.cn_dispatch(frame)
    run.cn_dispatch(frame)
    cn = SimConfig().cn.node_id
    assert run.actions == [
        {"t": 0.0, "node": cn, "state_from": "pending=0",
         "state_to": "pending=1", "action": "run_detector:pn-1-w004"},
        {"t": 0.0, "node": cn, "state_from": "pending=1",
         "state_to": "pending=1",
         "action": "anomaly:duplicate frame pn-1-w004"}]


def test_a_seen_capture_fills_the_central_half_of_the_frame():
    # tiny_scenario's elephant is in view from its onset at 4.25 s
    run = _Run(tiny_scenario(), SimConfig())
    frames = []
    run.pn_dispatch = lambda node, frame: frames.append(frame)
    for t in (4.0, 5.0):
        run.net.schedule(t, lambda: run.capture("pn-1", "pn-1-w001"))
    run.net.run_until(5.0)
    assert [f.sim_boxes for f in frames] == [(), ((8.0, 6.0, 24.0, 18.0),)]


def test_frame_ids_follow_window_naming():
    _, logs = run_scenario_with_logs(bundled_scenario())
    frame_ids = [d["frame_id"] for d in logs.detections]
    assert frame_ids  # at least the two event frames
    for fid in frame_ids:
        pn, w = fid.rsplit("-w", 1)
        assert pn.startswith("pn-")
        assert len(w) == 3 and w.isdigit()


def test_stochastic_detector_path():
    sc = tiny_scenario(detector="stochastic")
    report, _ = run_scenario_with_logs(sc)
    assert report.recall in (0.0, 1.0)
    assert report.seed == 7
    # deterministic replay regardless of detector randomness
    again, _ = run_scenario_with_logs(sc)
    assert again.dumps() == report.dumps()


def test_zero_event_scenario_has_no_recall():
    sc = tiny_scenario(events=(), duration_s=40.0)
    report, _ = run_scenario_with_logs(sc)
    assert report.recall is None
    assert report.events == ()
    assert report.false_warning_count == 0  # oracle rejects noise triggers


def test_invisible_elephant_is_rejected_by_the_camera():
    sc = tiny_scenario(events=(ElephantEvent(
        t_onset_s=4.25, pn_ids=("pn-1",),
        rumble=RumbleSpec(duration_s=3.5, snr_db=18.0),
        thermal_visible=False),))
    report, logs = run_scenario_with_logs(sc)
    assert report.recall == 0.0
    assert report.false_warning_count == 0
    # the seismic trigger and the negative decision both really happened
    assert any(r["action"].startswith("seismic_score:") for r in logs.actions)
    assert any(r["action"].startswith("publish_negative:")
               for r in logs.actions)


def test_scenario_network_is_used():
    net = NetworkConfig(brokers=("field-broker",))
    report, logs = run_scenario_with_logs(tiny_scenario(network=net))
    brokers_seen = {r["to"] for r in logs.delivery_trace
                    if r["event"] == "publish" and r["to"]}
    assert brokers_seen == {"field-broker"}
    assert report.recall == 1.0
    # a link override must name a client of the run
    stray = NetworkConfig(link_overrides={"pn-9": LinkModel(loss_prob=0.5)})
    with pytest.raises(InvalidConfigError, match=re.escape(
            "Scenario.network.link_overrides: unknown clients ['pn-9']")):
        run_scenario_with_logs(tiny_scenario(network=stray))


def test_partition_names_must_exist(tmp_path):
    # a node, the central node and a broker may each be cut off
    net = NetworkConfig(brokers=("broker-a", "broker-b"), partitions=(
        Partition(t_start_s=1.0, t_end_s=2.0, nodes=frozenset({"pn-1"})),
        Partition(t_start_s=3.0, t_end_s=4.0, nodes=frozenset({"cn"})),
        Partition(t_start_s=5.0, t_end_s=6.0,
                  nodes=frozenset({"broker-b"}))))
    run_scenario_with_logs(tiny_scenario(network=net))
    where = "Scenario.network.partitions[1].nodes: unknown nodes ['pn-9']"
    stray = replace(net, partitions=net.partitions[:1] + (
        Partition(t_start_s=1.0, t_end_s=2.0,
                  nodes=frozenset({"pn-9", "pn-1"})),))
    with pytest.raises(InvalidConfigError, match=re.escape(where)):
        run_scenario_with_logs(tiny_scenario(network=stray))
    # from a file, a whole-run partition of no client fails at run start
    data = json.loads((REPO / "scenarios/example_scenario.json").read_text())
    data["network"]["partitions"] = [
        {"t_start_s": 0.0, "t_end_s": 60.0, "nodes": ["pn-9"]}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfigError, match=re.escape(
            "Scenario.network.partitions[0].nodes: unknown nodes ['pn-9']")):
        run_scenario_with_logs(Scenario.load(path))


def test_overflowing_rumble_fails_before_any_output(tmp_path):
    loud = tiny_scenario(events=(ElephantEvent(
        t_onset_s=4.25, pn_ids=("pn-1",),
        rumble=RumbleSpec(duration_s=3.5, snr_db=6164.0)),))
    out = tmp_path / "run"
    with pytest.raises(InvalidInputError, match="event at 4.25 s"):
        run_scenario_with_logs(loud, out_dir=out)
    assert not any(out.iterdir())


@pytest.mark.parametrize("duration_s", [0.0004, 2.0])
def test_a_scenario_shorter_than_one_window_runs_and_scores_nothing(
        duration_s):
    # at 1 kHz 0.4 ms is no sample and 2 s half a window; neither holds a
    # window to score, so both run with no seismic row
    report, logs = run_scenario_with_logs(tiny_scenario(
        duration_s=duration_s, events=()))
    assert report.recall is None
    assert not any(r["action"].startswith("seismic_score")
                   for r in logs.actions)


def test_run_path_memory_is_bounded_by_the_block():
    # one node for 2 h at 1 kHz is a 57.6 MB trace; it is made and scored
    # in blocks, so no whole trace is ever held
    sc = tiny_scenario(duration_s=7200.0, events=(ElephantEvent(
        t_onset_s=3600.25, pn_ids=("pn-1",),
        rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),))
    tracemalloc.start()
    try:
        report, _ = run_scenario_with_logs(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.events[0].detected
    assert peak < 24 * 2**20


def test_long_windows_keep_the_block_bounded():
    # a block holds whole windows near 128,000 samples, so 60 s windows
    # make 120,000-sample slots, not 64 windows' 30.7 MB
    sc = tiny_scenario(duration_s=120.0)
    config = SimConfig(alg1=Algorithm1Params(window_s=60.0))
    tracemalloc.start()
    try:
        run_scenario_with_logs(sc, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_run_survives_broker_failover():
    net = NetworkConfig(
        brokers=("broker-a", "broker-b"),
        broker_failures=(BrokerFailure(broker_id="broker-a", t_s=10.0),))
    sc = tiny_scenario(
        duration_s=30.0,
        events=(ElephantEvent(t_onset_s=8.25, pn_ids=("pn-1",),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),),
        network=net)
    report, logs = run_scenario_with_logs(sc)
    # detection lands mid-outage, the warning shows up after failover
    assert report.recall == 1.0
    failovers = [r for r in logs.delivery_trace if r["event"] == "failover"]
    assert {r["from"] for r in failovers} == {"broker-a"}
    assert {r["to"] for r in failovers} == {"broker-b"}
    assert report.events[0].latency_s > 4.0  # the outage added delay


# ---- compute_metrics unit cases ----

def metrics_for(warnings, events=(), actions=None, duration=60.0,
                nodes=("pn-1",)):
    sc = Scenario(name="unit", duration_s=duration,
                  pns=tuple(PnPlacement(n) for n in nodes),
                  events=tuple(events), master_seed=0)
    logs = RunLogs(delivery_trace=[], actions=actions or [],
                   warnings=list(warnings), detections=[])
    return compute_metrics(logs, sc, SimConfig())


def officer(t):
    return {"kind": "officer_message", "t": t, "pn_id": "pn-1",
            "frame_id": "pn-1-w000", "message": "x"}


def event(onset):
    return ElephantEvent(t_onset_s=onset, pn_ids=("pn-1",),
                         rumble=RumbleSpec(duration_s=3.0))


def test_metrics_matches_warning_to_event():
    report = metrics_for([officer(12.0)], events=[event(10.0)])
    assert report.recall == 1.0
    assert report.events[0].latency_s == pytest.approx(2.0)
    assert report.false_warning_count == 0


def test_metrics_siren_does_not_count_as_detection():
    siren = dict(officer(12.0), kind="siren")
    report = metrics_for([siren], events=[event(10.0)])
    assert report.recall == 0.0
    assert report.false_warning_count == 0


def test_metrics_warning_outside_horizon_is_false():
    report = metrics_for([officer(55.0)], events=[event(10.0)])
    assert report.recall == 0.0
    assert report.false_warning_count == 1
    assert report.events[0].detected is False


def test_metrics_warning_with_no_events_is_false():
    report = metrics_for([officer(5.0)])
    assert report.recall is None
    assert report.false_warning_count == 1


def test_metrics_first_warning_sets_latency():
    report = metrics_for([officer(12.0), officer(14.0)], events=[event(10.0)])
    assert report.events[0].latency_s == pytest.approx(2.0)
    assert report.false_warning_count == 0  # both fall in the horizon


def test_metrics_duty_from_action_rows():
    actions = [
        {"t": 10.0, "node": "pn-1", "state_from": "idle",
         "state_to": "ir_active", "action": "capture_frame:1"},
        {"t": 10.05, "node": "pn-1", "state_from": "ir_active",
         "state_to": "awaiting_decision", "action": "publish_frame:x"},
        {"t": 14.0, "node": "pn-1", "state_from": "awaiting_decision",
         "state_to": "idle", "action": ""},
    ]
    report = metrics_for([], actions=actions)
    assert report.ir_duty_cycle["pn-1"] == pytest.approx(4.0 / 60.0)


def row(t, state_to, node="pn-1"):
    return {"t": t, "node": node, "state_from": "", "state_to": state_to,
            "action": ""}


def test_metrics_repelling_and_cooldown_are_unpowered():
    actions = [row(10.0, "repelling"), row(20.0, "cooldown"),
               row(30.0, "idle")]
    report = metrics_for([], actions=actions, nodes=("pn-1", "pn-2"))
    # pn-2 has no rows at all
    assert report.ir_duty_cycle == {"pn-1": 0.0, "pn-2": 0.0}


def test_metrics_reject_rows_out_of_order_or_outside_the_run():
    for actions, t in [([row(5.0, "ir_active"), row(3.0, "idle")], 3.0),
                       ([row(61.0, "ir_active")], 61.0),
                       ([row(-1.0, "ir_active")], -1.0),
                       ([row(float("nan"), "idle")], float("nan"))]:
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"action row of pn-1 at t={t} ")):
            metrics_for([], actions=actions)
    # the central node's rows are not a peripheral node's history
    report = metrics_for([], actions=[row(5.0, "ir_active"),
                                      row(3.0, "pending=0", node="cn")])
    assert report.ir_duty_cycle["pn-1"] == 55.0 / 60.0


PN_STATES = ("idle", "ir_active", "awaiting_decision", "repelling",
             "cooldown")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 60.0),
                          st.sampled_from(("pn-1", "pn-2", "cn")),
                          st.sampled_from(PN_STATES)), max_size=30))
def test_metrics_duty_matches_the_interval_oracle(drawn):
    actions = [row(t, state, node) for t, node, state in sorted(drawn)]
    report = metrics_for([], actions=actions, nodes=("pn-1", "pn-2"))
    for node in ("pn-1", "pn-2"):
        expected = naive_ir_duty(actions, node, 60.0)
        assert abs(report.ir_duty_cycle[node] - expected) <= 1e-9


def test_metrics_missing_stream_rejected():
    sc = Scenario(name="unit", duration_s=10.0, pns=(PnPlacement("pn-1"),))
    logs = RunLogs(delivery_trace=None, actions=[], warnings=[], detections=[])
    with pytest.raises(InvalidInputError):
        compute_metrics(logs, sc, SimConfig())



# ---- properties ----

def _leaf_paths(data, path=()):
    """Every scalar, empty list and empty object in a JSON document."""
    if isinstance(data, dict):
        items = list(data.items())
    elif isinstance(data, list):
        items = list(enumerate(data))
    else:
        items = []
    if not items:
        yield path
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_one_leaf_decodes_or_raises_config_error(data):
    cls, base = data.draw(st.sampled_from([
        (SimConfig, SimConfig().to_json()),
        (Scenario, bundled_scenario().to_json())]))
    doc = copy.deepcopy(base)
    path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    # numbers of the right type are the likeliest to pass the codec and
    # reach a constructor's range checks
    parent[path[-1]] = data.draw(st.floats() | st.integers() | _JSON_VALUES)
    try:
        cls.from_json(doc)
    except InvalidConfigError:
        pass


_AT_MOST_ONCE = re.compile(r"^(sys/heartbeat/.*|.*/status)$")


@st.composite
def small_runs(draw, faults=False):
    """A generated run: 1 to 3 nodes for 8 to 60 s with up to two 3.5 s
    rumbles, loss up to 0.3 on two brokers of which the first may die,
    either detector and a short or long cooldown, as (scenario, config).

    With faults, the link also has jitter, one node may be cut off by a
    partition, there may be three rumbles, and rumbles that share a node do
    not overlap: two chirps summed in the other order can differ in the
    last bit.
    """
    n_nodes, duration_s = draw(st.integers(1, 3)), draw(st.integers(8, 60))
    nodes = tuple(f"pn-{i}" for i in range(n_nodes))
    events = []
    for _ in range(draw(st.integers(0, 3 if faults else 2))):
        rumble = RumbleSpec(duration_s=3.5,
                            snr_db=draw(st.floats(0.0, 20.0)))
        event = ElephantEvent(
            t_onset_s=draw(st.floats(0.0, duration_s - 3.5)),
            pn_ids=tuple(sorted(draw(st.sets(st.sampled_from(nodes),
                                             min_size=1)))),
            rumble=rumble, thermal_visible=draw(st.booleans()))
        if not faults or all(
                abs(e.t_onset_s - event.t_onset_s) > 3.5
                or not set(e.pn_ids) & set(event.pn_ids) for e in events):
            events.append(event)
    kill_at = draw(st.none() | st.floats(0.0, 60.0))
    cut = ()
    if faults and draw(st.booleans()):
        start = draw(st.floats(0.0, duration_s))
        cut = (Partition(start, start + draw(st.floats(0.5, 20.0)),
                         frozenset({draw(st.sampled_from(nodes))})),)
    net = NetworkConfig(
        brokers=("broker-a", "broker-b"),
        default_link=LinkModel(
            latency_s=0.02, loss_prob=draw(st.floats(0.0, 0.3)),
            jitter_s=draw(st.sampled_from([0.0, 0.013])) if faults else 0.0),
        broker_failures=() if kill_at is None
        else (BrokerFailure("broker-a", kill_at),), partitions=cut)
    scenario = Scenario(
        name="prop", duration_s=float(duration_s),
        pns=tuple(PnPlacement(n) for n in nodes), events=tuple(events),
        detector=draw(st.sampled_from(["oracle", "stochastic"])),
        master_seed=draw(st.integers(0, 2 ** 32 - 1)), network=net)
    # a short cooldown lets even a short run trigger a node twice
    return scenario, SimConfig(pn=PnConfig(
        repel_cooldown_s=draw(st.sampled_from([5.0, 60.0]))))


@settings(max_examples=10, deadline=None)
@given(small_runs())
def test_small_runs_keep_their_invariants(run):
    scenario, config = run
    nodes = [p.node_id for p in scenario.pns]
    duration_s = scenario.duration_s
    report, logs = run_scenario_with_logs(scenario, config)

    assert report.recall is None or 0.0 <= report.recall <= 1.0
    assert all(0.0 <= d <= 1.0 for d in report.ir_duty_cycle.values())
    published = {}  # msg_id -> (publisher, topic, publish order)
    last_seen = {}  # (subscriber, publisher, topic) -> publish order
    delivered_once = set()
    for row in logs.delivery_trace:
        if row["event"] == "publish":
            published[row["msg_id"]] = (row["from"], row["topic"],
                                        len(published))
        elif row["event"] == "deliver":
            publisher, topic, order = published[row["msg_id"]]
            key = (row["to"], publisher, topic)
            assert order >= last_seen.get(key, -1), row
            last_seen[key] = order
            if _AT_MOST_ONCE.match(topic):
                assert (row["msg_id"], row["to"]) not in delivered_once, row
                delivered_once.add((row["msg_id"], row["to"]))

    # one frame per trigger, and one decision per frame
    for node in nodes:
        steps = [(r["t"], *r["action"].split(":", 1)) for r in logs.actions
                 if r["node"] == node and r["action"].startswith(
                     ("capture_frame:", "publish_frame:"))]
        # each capture publishes its one frame before the next capture; a
        # capture due after the run's end is the only one left unpublished
        kinds = [kind for _, kind, _ in steps]
        pairs = ["capture_frame", "publish_frame"] * len(kinds)
        assert kinds == pairs[:len(kinds)]
        if len(kinds) % 2:
            assert steps[-1][0] + CAPTURE_DELAY_S > duration_s
        # each frame is published exactly the capture delay after its capture
        for (t_capture, _, _), (t_publish, _, fid) in zip(steps[::2],
                                                         steps[1::2]):
            assert t_publish == t_capture + CAPTURE_DELAY_S, fid
            assert re.fullmatch(rf"{node}-w\d{{3}}", fid), fid
    # each decision is made exactly the detector delay after its detector
    # run; a decision due after the run's end is the only one left unmade
    runs = {r["action"].split(":", 1)[1]: r["t"] for r in logs.actions
            if r["action"].startswith("run_detector:")}
    for row in logs.detections:
        assert row["t"] == runs.pop(row["frame_id"]) + DETECTOR_DELAY_S, row
    assert all(t + DETECTOR_DELAY_S > duration_s for t in runs.values()), runs
    per_frame = collections.Counter(
        ("decision" if kind.startswith("publish_") else kind, fid)
        for kind, _, fid in (r["action"].partition(":") for r in logs.actions)
        if kind in ("run_detector", "publish_repel", "publish_negative"))
    per_frame.update((w["kind"], w["frame_id"]) for w in logs.warnings)
    assert set(per_frame.values()) <= {1}, per_frame
