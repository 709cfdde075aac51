"""Golden sha256 digests of every output file for four fixed runs.

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


def multi_capture_scenario():
    """Two nodes with a non-default config: two captures per trigger.

    Each trigger captures frames -c0 and -c1, a window scoring ds 2 logs a
    pre_arm row, and the short cooldown lets the second approach trigger
    again (it is thermally hidden, but its frames fall inside the first
    approach's thermal hold). Both frames of a trigger are decided, so the
    second repel command meets a node already repelling: an anomaly row.
    """
    return Scenario(
        name="multi-capture", duration_s=40.0,
        pns=(PnPlacement("pn-1"), PnPlacement("pn-2")),
        events=(ElephantEvent(t_onset_s=4.25, pn_ids=("pn-1", "pn-2"),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),
                ElephantEvent(t_onset_s=24.25, pn_ids=("pn-1", "pn-2"),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0),
                              thermal_visible=False)),
        detector="stochastic", master_seed=5,
        network=NetworkConfig(default_link=LinkModel(latency_s=0.05)))


SCENARIOS = {"example": bundled_scenario, "lossy": lossy_scenario,
             "hidden": hidden_scenario, "multi": multi_capture_scenario}
# the runs not named here use SimConfig()
CONFIGS = {"multi": SimConfig(pn=PnConfig(
    ir_capture_count=2, arm_on_high_score=True, repel_cooldown_s=5.0))}

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
    "multi": {
        "metrics.json":
            "1d9fed41d9ea0300de1d3651acb36b71d316312d27abd984cb711f289f5ba135",
        "delivery_trace.jsonl":
            "237d9ca0ef399ca402870f050b60ca8f9a4f82b93f68fb45a3c7427523dd9b6a",
        "actions.jsonl":
            "14e793bd6e60527222a7f454ed61765f564fe0f63b5b462ab534f71fbb51b061",
        "detections.jsonl":
            "1386068d9c790aec7e25bd9818c5eeefaed9eeb592bb629bdf969bfa15a22e13",
        "warnings.jsonl":
            "65017ac28fc1cd0726e98f9fb06a8a38027f6e4d5484256c3eb2a97333080170",
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


def test_multi_capture_scenario_covers_the_config(runs):
    actions = [r["action"] for r in runs["multi"][2].actions]
    published = [a for a in actions if a.startswith("publish_frame:")]
    assert any(a.endswith("-c0") for a in published)
    assert any(a.endswith("-c1") for a in published)
    assert "pre_arm:2" in actions
    assert any(a.startswith("anomaly:") for a in actions)


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
