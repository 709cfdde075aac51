"""Golden sha256 digests of every output file for five fixed runs.

Any change that alters one byte of metrics.json, delivery_trace.jsonl,
actions.jsonl, detections.jsonl or warnings.jsonl for these scenarios fails
here; a deliberate change must update the digests and say why. They were
taken with numpy 2.4.6 on CPython 3.11; a numpy whose random streams or FFT
rounding differ may legitimately produce other bytes.

Run this file as a script (PYTHONPATH=src python tests/test_golden.py) to
print the GOLDEN table for the current source, ready to paste over the one
below after a deliberate change.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from hecsim.harness import (ElephantEvent, PnPlacement, Scenario, SimConfig,
                            run_scenario_with_logs)
from hecsim.mesh import BrokerFailure, LinkModel, NetworkConfig, Partition
from hecsim.peripheral import PnConfig
from hecsim.signals import RumbleSpec
from oracles import naive_ir_duty

REPO = Path(__file__).resolve().parents[1]
OUTPUTS = ("metrics.json", "delivery_trace.jsonl", "actions.jsonl",
           "detections.jsonl", "warnings.jsonl")


def bundled_scenario():
    """The bundled example: three riverside nodes, two approaches."""
    return Scenario.load(REPO / "scenarios/example_scenario.json")


def lossy_scenario():
    """Three nodes for two minutes on a lossy, jittered two-broker mesh.

    pn-2 is cut off from 30 s to 45 s, in the middle of an approach, and
    broker-a dies at 60 s, just after another one starts.
    """
    net = NetworkConfig(
        brokers=("broker-a", "broker-b"),
        default_link=LinkModel(latency_s=0.05, jitter_s=0.03, loss_prob=0.2),
        partitions=(Partition(t_start_s=30.0, t_end_s=45.0,
                              nodes=frozenset({"pn-2"})),),
        broker_failures=(BrokerFailure(broker_id="broker-a", t_s=60.0),),
        max_retries=3, retry_interval_s=0.25)

    def approach(t, pn_ids, snr_db, visible=True):
        return ElephantEvent(t_onset_s=t, pn_ids=pn_ids,
                             rumble=RumbleSpec(duration_s=3.5, snr_db=snr_db),
                             thermal_visible=visible)

    return Scenario(
        name="lossy-field", duration_s=120.0,
        pns=(PnPlacement("pn-1"), PnPlacement("pn-2"), PnPlacement("pn-3")),
        events=(approach(10.25, ("pn-1",), 18.0),
                approach(33.25, ("pn-2",), 16.0),
                approach(58.25, ("pn-1", "pn-3"), 15.0),
                approach(80.25, ("pn-2",), 14.0, visible=False),
                approach(100.25, ("pn-1",), 18.0)),
        master_seed=2026, network=net)


def hidden_scenario():
    """Two nodes hear one approach that the thermal camera cannot see.

    The stochastic detector turns both frames down, so the central node
    sends each node a negative decision over a lossless mesh.
    """
    return Scenario(
        name="hidden-approach", duration_s=40.0,
        pns=(PnPlacement("pn-1"), PnPlacement("pn-2")),
        events=(ElephantEvent(t_onset_s=12.25, pn_ids=("pn-1", "pn-2"),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0),
                              thermal_visible=False),),
        detector="stochastic", master_seed=11,
        network=NetworkConfig(default_link=LinkModel(latency_s=0.05)))


def retrigger_scenario():
    """Two nodes with a non-default config: a 5 s repel cooldown.

    Each trigger captures one frame, which the central node decides once:
    one repel command and one officer/siren pair per trigger. The short
    cooldown lets the second approach trigger both nodes again (it is
    thermally hidden, but its frames fall inside the first approach's
    thermal hold, so they are seen and repelled too).
    """
    return Scenario(
        name="retrigger", duration_s=40.0,
        pns=(PnPlacement("pn-1"), PnPlacement("pn-2")),
        events=(ElephantEvent(t_onset_s=4.25, pn_ids=("pn-1", "pn-2"),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),
                ElephantEvent(t_onset_s=24.25, pn_ids=("pn-1", "pn-2"),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0),
                              thermal_visible=False)),
        detector="stochastic", master_seed=5,
        network=NetworkConfig(default_link=LinkModel(latency_s=0.05)))


def odd_rate_scenario():
    """Two nodes for ten minutes sampled at 999 Hz, two approaches.

    A 4 s window is 3,996 samples, so no window edge falls on a round
    number of samples. The first approach scores 1 in pn-1's windows 63
    and 64, on either side of the stream's second block edge.
    """
    return Scenario(
        name="odd-rate", duration_s=600.0,
        pns=(PnPlacement("pn-1"), PnPlacement("pn-2")),
        events=(ElephantEvent(t_onset_s=254.5, pn_ids=("pn-1",),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=12.0)),
                ElephantEvent(t_onset_s=510.0, pn_ids=("pn-2", "pn-1"),
                              rumble=RumbleSpec(duration_s=5.0, snr_db=6.0))),
        detector="stochastic", master_seed=7)


SCENARIOS = {"example": bundled_scenario, "lossy": lossy_scenario,
             "hidden": hidden_scenario, "retrigger": retrigger_scenario,
             "odd_rate": odd_rate_scenario}
# the runs not named here use SimConfig()
CONFIGS = {"retrigger": SimConfig(pn=PnConfig(repel_cooldown_s=5.0)),
           "odd_rate": SimConfig(seismic_rate_hz=999.0)}

GOLDEN = {
    "example": {
        "metrics.json":
            "6f3e782f3255426718c7e31b3ff5228313ec68f6d6ae24e1997d6785a5c24a34",
        "delivery_trace.jsonl":
            "3c3b4216e1b2ff09b40dff07cbbcc5d11389420b8c91707b4228bc4685238c29",
        "actions.jsonl":
            "60f5135dbe42795463f68128b1c4fad0d1f9060c024bb904c8344342832a0b9c",
        "detections.jsonl":
            "99915e44e6665febff8c89f83ddcd48d8554186e88dddaafc39b0c139c898a49",
        "warnings.jsonl":
            "5b984c18e143ef841ef6c4b7e2565c8e37d39723f6e86ae35dd3a5820e506c57",
    },
    "lossy": {
        "metrics.json":
            "b81184c2e7106cf138b5986614b353857c35ae1a87b72eea61d8e2621d297eca",
        "delivery_trace.jsonl":
            "d0120b87e16a7f400a0c20d49dcc4fe0ab14ecd4216755b2a434b958db654362",
        "actions.jsonl":
            "5be583fd38f42893161abe65b9880770201f40730052c11c17cead476e6b24aa",
        "detections.jsonl":
            "5e6b8004cd809b58f2ea8035eb07aa455274a37036ecf5df3d9441434d0f36b2",
        "warnings.jsonl":
            "d35f892767acae9edcad22da62d1a5ff4fb95357640943fc642b070062dcd4ef",
    },
    "hidden": {
        "metrics.json":
            "b1f14f09ff58638b990a71f9801e96d918103e3f72b3259f5f102f66eed3ba8e",
        "delivery_trace.jsonl":
            "fbc712af906986901eddab80e135b32187252786b331257c44549bee85fb4644",
        "actions.jsonl":
            "19dad4fa8edfb60b76e20b2e36cd421436cc562090bef39a00eaa353d2b45da5",
        "detections.jsonl":
            "c8cf809739f8af0efabe8e2356ce73f01c46667a2f2ec5f036a3c4745969a947",
        "warnings.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "retrigger": {
        "metrics.json":
            "45e30cb2f68113f2a2180be4ec44dba928fa533f70d3cf26747261feb065b5c3",
        "delivery_trace.jsonl":
            "86c2ec463c3e94ad1c50669fcd713ff16754221fbefcb2e5592cbc9385a0553f",
        "actions.jsonl":
            "7e611d734f0f258861aa230abc183914c710c207ed9f66740d30d6d32df659f2",
        "detections.jsonl":
            "6117bde6368181c9a8cc0b7e7954696d0e9aa82766dd711bba7cf7b34e29ec1d",
        "warnings.jsonl":
            "ef8bbb0b3ffcea5bcdbf1fb3535018347113c2ff3d8c5b46c33ee825cc2a572e",
    },
    "odd_rate": {
        "metrics.json":
            "bd6117a8ff3b4b1ee2682f707da0929b131b87fbd56c0e738bb7540511aba0fb",
        "delivery_trace.jsonl":
            "a798f76862e8f1705ad59f33bab2f030d52641346c70cb51c4478c4ef3c4c41c",
        "actions.jsonl":
            "a326247df447ffe7e6d5c396f99e4ac8f8bf68dc21eb647981d1652c9943fe8e",
        "detections.jsonl":
            "f4283c021264ee344a2b394e967a97f442c238e5e1b512ad9bdabdefb28f1c46",
        "warnings.jsonl":
            "af6cdbc67d9f754121ac1d6477be48572a2ba33223548ec3e5325e7c8a7b1ed7",
    },
}


def run_all(make_dir):
    """name -> (scenario, report, logs, output directory), run once each."""
    done = {}
    for name, build in SCENARIOS.items():
        scenario = build()
        out = make_dir(name)
        report, logs = run_scenario_with_logs(scenario, CONFIGS.get(name),
                                              out_dir=out)
        done[name] = (scenario, report, logs, out)
    return done


def digests(out):
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in OUTPUTS}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_output_digests(runs, name):
    assert digests(runs[name][3]) == GOLDEN[name]


def test_lossy_scenario_exercises_the_mesh(runs):
    trace = runs["lossy"][2].delivery_trace
    reasons = {r.get("reason") for r in trace if r["event"] == "drop"}
    assert reasons >= {"loss", "unreachable", "disconnected", "session_gone"}
    assert {r["event"] for r in trace} >= {"retry", "failover"}


def test_hidden_scenario_sends_negative_decisions(runs):
    scenario, _, logs, _ = runs["hidden"]
    sent = [r for r in logs.actions if r["action"].startswith("publish_negative:")]
    assert len(sent) == len(scenario.pns)
    # each node leaves awaiting_decision on the decision, not on its timeout
    for placement in scenario.pns:
        back = [r for r in logs.actions if r["node"] == placement.node_id
                and r["state_from"] == "awaiting_decision"]
        assert [r["state_to"] for r in back] == ["idle"]
        assert back[0]["t"] < sent[0]["t"] + 1.0
    assert logs.warnings == []


def test_retrigger_scenario_decides_each_trigger_once(runs):
    scenario, _, logs, _ = runs["retrigger"]
    actions = [r["action"] for r in logs.actions]
    frames = [a.split(":", 1)[1] for a in actions
              if a.startswith("publish_frame:")]
    # both nodes trigger on both approaches: the second one comes after the
    # first repel and its 5 s cooldown have run out
    assert len(frames) == 2 * len(scenario.events) == 4
    assert actions.count("capture_frame:1") == len(frames)
    for fid in frames:
        assert actions.count(f"run_detector:{fid}") == 1
        assert actions.count(f"publish_repel:{fid}") == 1
        assert sorted(w["kind"] for w in logs.warnings
                      if w["frame_id"] == fid) == ["officer_message", "siren"]
    assert len(logs.warnings) == 8
    assert not any(a.startswith("anomaly:") for a in actions)
    for placement in scenario.pns:
        cooled = [r["t"] for r in logs.actions
                  if r["node"] == placement.node_id
                  and r["state_from"] == "cooldown"]
        second = [r["t"] for r in logs.actions
                  if r["node"] == placement.node_id
                  and r["action"] == "capture_frame:1"][1]
        assert len(cooled) == 1 and cooled[0] < second


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_duty_cycle_matches_action_log(runs, name):
    scenario, report, logs, _ = runs[name]
    for placement in scenario.pns:
        node = placement.node_id
        rows = [r for r in logs.actions if r["node"] == node]
        # each row starts where the node's previous row left it, except
        # that a step with several actions logs one row per action
        previous = {"t": 0.0, "state_from": "idle", "state_to": "idle"}
        for row in rows:
            same_step = all(row[k] == previous[k]
                            for k in ("t", "state_from", "state_to"))
            assert same_step or row["state_from"] == previous["state_to"], row
            previous = row
        expected = naive_ir_duty(rows, node, scenario.duration_s)
        assert abs(report.ir_duty_cycle[node] - expected) <= 1e-9


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        done = run_all(lambda name: Path(root) / name)
        print("GOLDEN = {")
        for name, (_, _, _, out) in done.items():
            print(f'    "{name}": {{')
            for f, digest in digests(out).items():
                print(f'        "{f}":\n            "{digest}",')
            print("    },")
        print("}")
