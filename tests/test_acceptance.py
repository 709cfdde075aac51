"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Each test pins the tolerance it enforces and, where the guarantee includes a
runtime budget, checks wall-clock time too. These are the contract for the
package; the per-module suites cover the details.
"""

import time
from pathlib import Path

import numpy as np

from hecsim.central import (BoundingBox, DetectorDecision, LabeledFrame,
                            LabeledFrameSet, OracleDetector, evaluate_ap50,
                            iou)
from hecsim.detection import (Algorithm1Params, detect_stream,
                              match_and_recall, score_from_run,
                              stft_oracle_detect)
from hecsim.deterrent import (apply_modification, generate_pink_noise,
                              l2_delta, pick_modification, stft_similarity)
from hecsim.harness import (ElephantEvent, PnPlacement, Scenario, SimConfig,
                            run_scenario_with_logs)
from hecsim.mesh import BrokerFailure, LinkModel, MeshNetwork, NetworkConfig
from hecsim.signals import (RumbleSpec, Signal, synth_bee_buzz,
                            synth_rumble)
from oracles import brute_force_ap50, delivery_probability

REPO = Path(__file__).resolve().parents[1]
ALG = Algorithm1Params()


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_01_score_truth_table():
    with Stopwatch() as clock:
        table = {0: 0, 6: 0, 7: 1, 23: 1, 24: 2, 32: 2}
        for run, expected in table.items():
            assert score_from_run(run, ALG) == expected, run
    assert clock.elapsed < 1.0


def test_criterion_02_rumble_scores_two_tone_and_silence_zero():
    with Stopwatch() as clock:
        rumble = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                              sample_rate_hz=1000.0, seed=2,
                              total_s=4.0, onset_s=0.25)
        t = np.arange(4000) / 1000.0
        tone = np.sin(2 * np.pi * 10.0 * t)
        # each 4 s window of the joined trace is scored on its own
        joined = Signal(
            samples=np.concatenate([rumble.samples, tone, np.zeros(4000)]),
            sample_rate_hz=1000.0)
        assert [d.ds for d in detect_stream(joined, ALG)] == [2, 0, 0]
    assert clock.elapsed < 5.0


def test_criterion_03_noise_false_alarm_rate_below_one_percent():
    # 1000 independently seeded 4 s windows, joined into one trace whose
    # windows are each scored on their own
    windows = [np.random.default_rng(seed).standard_normal(4000)
               for seed in range(1000)]
    noise = Signal(samples=np.concatenate(windows), sample_rate_hz=1000.0)
    detections = detect_stream(noise, ALG)
    assert len(detections) == 1000
    triggered = sum(d.ds >= 1 for d in detections)
    assert triggered / 1000 < 0.01, f"{triggered} windows triggered"


def test_criterion_04_recall_against_reference_tracker():
    with Stopwatch() as clock:
        rng = np.random.default_rng(0)
        matched = total = 0
        for _ in range(50):
            duration = float(rng.uniform(3.0, 5.0))
            snr = float(rng.uniform(5.0, 20.0))
            total_s = 20.0
            onset = float(rng.uniform(0.5, total_s - duration - 0.5))
            trace = synth_rumble(
                RumbleSpec(duration_s=duration, snr_db=snr),
                seed=int(rng.integers(0, 2 ** 32)),
                total_s=total_s, onset_s=onset)
            report = match_and_recall(detect_stream(trace, ALG),
                                      stft_oracle_detect(trace),
                                      window_s=ALG.window_s)
            matched += report.matched_count
            total += report.oracle_count
        assert total >= 40  # the tracker sees nearly every injected rumble
        assert matched / total >= 0.80, f"recall {matched}/{total}"
    assert clock.elapsed < 60.0


def test_criterion_05_modified_clips_similar_yet_never_repeated():
    with Stopwatch() as clock:
        bee = synth_bee_buzz(duration_s=2.0, seed=0)
        fingerprints = set()
        for seed in range(100):
            params = pick_modification(seed)
            out = apply_modification(bee, params)
            score = stft_similarity(bee, out)
            assert score.max_xcorr >= 0.5, (seed, params, score)
            is_identity = (out.sample_rate_hz == bee.sample_rate_hz
                           and np.array_equal(out.samples, bee.samples))
            if not is_identity:
                assert l2_delta(bee, out) >= 1e-3, (seed, params)
            fingerprints.add((out.sample_rate_hz, out.samples.tobytes()))
        assert len(fingerprints) == 100
    assert clock.elapsed < 60.0


def test_criterion_06_pink_noise_spectral_slope():
    with Stopwatch() as clock:
        rate = 1000.0
        n = 2 ** 14
        slopes = []
        for seed in range(100):
            clip = generate_pink_noise(n, rate, seed)
            psd = np.abs(np.fft.rfft(clip.samples)) ** 2
            f = np.fft.rfftfreq(n, 1.0 / rate)
            keep = (f >= 20.0) & (f <= 400.0)
            slope, _ = np.polyfit(np.log(f[keep]), np.log(psd[keep]), 1)
            slopes.append(slope)
        mean_slope = float(np.mean(slopes))
        assert abs(mean_slope - (-1.0)) <= 0.3, mean_slope
    assert clock.elapsed < 30.0


IOU_PAIRS = [
    ((0, 0, 2, 2), (0, 0, 2, 2), 1.0),
    ((0, 0, 2, 2), (1, 1, 3, 3), 1.0 / 7.0),
    ((0, 0, 1, 1), (5, 5, 6, 6), 0.0),
    ((0, 0, 2, 2), (2, 0, 4, 2), 0.0),
    ((0, 0, 4, 4), (1, 1, 3, 3), 0.25),
    ((0, 0, 10, 1), (0, 0, 1, 10), 1.0 / 19.0),
    ((0, 0, 3, 3), (1, 0, 4, 3), 6.0 / 12.0),
    ((0, 0, 6, 2), (3, 1, 9, 3), 3.0 / 21.0),
    ((-2, -2, 0, 0), (-1, -1, 1, 1), 1.0 / 7.0),
    ((0, 0, 5, 5), (0, 4, 5, 9), 5.0 / 45.0),
]


def test_criterion_07_iou_and_ap50_match_exact_geometry():
    for a, b, expected in IOU_PAIRS:
        got = iou(BoundingBox(*a), BoundingBox(*b))
        assert abs(got - expected) <= 1e-12, (a, b, got)

    def lf(frame_id, boxes):
        return LabeledFrame(frame_id=frame_id, boxes=tuple(boxes),
                            pn_id="pn-1", width=32, height=32)

    truths = [
        [(2, 2, 10, 10)],
        [(0, 0, 4, 4), (10, 10, 20, 20)],
        [],
        [(5, 5, 15, 15)],
        [(1, 1, 3, 3)],
    ]
    preds = [
        [(0.95, (2, 2, 10, 10))],
        [(0.80, (0, 0, 4, 4)), (0.60, (11, 11, 21, 21))],
        [(0.70, (6, 6, 9, 9))],
        [(0.50, (5, 5, 15, 14))],
        [],
    ]

    class Scripted:
        name = "scripted"

        def decide(self, frame):
            idx = int(frame.frame_id)
            boxes = tuple(BoundingBox(*b) for _, b in preds[idx])
            confs = [c for c, _ in preds[idx]]
            return DetectorDecision(frame_id=frame.frame_id,
                                    elephant_present=bool(boxes),
                                    confidence=max(confs) if confs else 0.0,
                                    boxes=boxes)

    class Mute:
        name = "mute"

        def decide(self, frame):
            return DetectorDecision(frame_id=frame.frame_id,
                                    elephant_present=False, confidence=0.0)

    frame_set = LabeledFrameSet(frames=tuple(
        lf(str(i), t) for i, t in enumerate(truths)))

    flat = []
    for i, plist in enumerate(preds):
        conf = max((c for c, _ in plist), default=0.0)
        for _, box in plist:
            flat.append((conf, i, box))
    expected_ap = brute_force_ap50(flat, {i: t for i, t in enumerate(truths)},
                                   iou_threshold=0.5)
    got_ap = evaluate_ap50(Scripted(), frame_set)
    assert got_ap == expected_ap, (got_ap, expected_ap)
    assert evaluate_ap50(OracleDetector(), frame_set) == 1.0
    assert evaluate_ap50(Mute(), frame_set) == 0.0


def test_criterion_08_delivery_invariants_lossless_and_lossy():
    with Stopwatch() as clock:
        # lossless five-node run: every frame arrives, each is decided
        # exactly once, each repel command plays exactly once
        scenario = Scenario(
            name="five-nodes", duration_s=40.0,
            pns=tuple(PnPlacement(f"pn-{k}") for k in range(1, 6)),
            events=tuple(
                ElephantEvent(t_onset_s=4.0 * k + 0.25, pn_ids=(f"pn-{k}",),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0))
                for k in range(1, 6)),
            master_seed=11)
        report, logs = run_scenario_with_logs(scenario)
        for topic, counts in report.message_counts.items():
            if "/frame" in topic or "/cmd/" in topic:
                assert counts["delivered"] == counts["published"], topic
        frame_ids = [d["frame_id"] for d in logs.detections]
        assert len(frame_ids) == len(set(frame_ids))
        assert len(frame_ids) >= 5
        for k in range(1, 6):
            plays = [r for r in logs.actions if r["node"] == f"pn-{k}"
                     and r["action"].startswith("play_deterrent:")]
            assert len(plays) == 1, f"pn-{k} played {len(plays)} times"
        assert not any("anomaly:duplicate" in r["action"]
                       for r in logs.actions)
        assert report.recall == 1.0

        # loss 0.5 on the sender's link, resend budget 10: delivery over
        # 1000 messages stays above 99.9% and within 3 sigma of the
        # closed-form per-message success rate
        cfg = NetworkConfig(
            default_link=LinkModel(latency_s=0.01, loss_prob=0.5),
            link_overrides={"sub": LinkModel(latency_s=0.01)},
            max_retries=10, retry_interval_s=0.05, seed=7)
        net = MeshNetwork(cfg)
        got = []
        net.add_client("sub", on_message=lambda c, m, t: got.append(m))
        net.subscribe("sub", "t/x")
        net.add_client("pub")
        for k in range(1000):
            net.publish("pub", "t/x", {"n": k})
        net.run_until(3600.0)
        delivered = len(got)
        assert delivered / 1000 >= 0.999, delivered
        p = delivery_probability(0.5, 10)  # 1 - 0.5 ** 11
        sigma = (1000 * p * (1 - p)) ** 0.5
        assert abs(delivered - 1000 * p) <= 3 * sigma, delivered
    assert clock.elapsed < 30.0


def failover_scenario():
    network = NetworkConfig(
        brokers=("broker-a", "broker-b"),
        broker_failures=(BrokerFailure(broker_id="broker-a", t_s=10.0),))
    return Scenario(
        name="failover", duration_s=30.0,
        pns=(PnPlacement("pn-1"), PnPlacement("pn-2"), PnPlacement("pn-3")),
        events=(ElephantEvent(t_onset_s=8.25, pn_ids=("pn-1",),
                              rumble=RumbleSpec(duration_s=3.5, snr_db=18.0)),),
        master_seed=5, network=network)


def test_criterion_09_failover_rescues_outage_detection():
    report, logs = run_scenario_with_logs(failover_scenario())

    link = LinkModel()
    max_link = link.latency_s + link.jitter_s
    failovers = [r for r in logs.delivery_trace if r["event"] == "failover"]
    assert {r["from"] for r in failovers} == {"broker-a"}
    assert {r["to"] for r in failovers} == {"broker-b"}
    # every client (central node plus three peripherals) switched in time
    assert len(failovers) == 4
    for row in failovers:
        assert row["t"] <= 14.0 + max_link, row

    # the detection window closed at t=12, mid-outage; its warning still
    # arrived, after the switch to the backup broker
    assert report.recall == 1.0
    outage_event = report.events[0]
    warning_t = outage_event.t_onset_s + outage_event.latency_s
    assert warning_t > min(r["t"] for r in failovers)

    # deterministic: the whole delivery trace replays byte for byte
    _, again = run_scenario_with_logs(failover_scenario())
    assert again.delivery_trace == logs.delivery_trace


def test_criterion_10_bundled_scenario_deterministic_fast_and_gated():
    with Stopwatch() as clock:
        scenario = Scenario.load(REPO / "scenarios/example_scenario.json")
        config = SimConfig.load(REPO / "scenarios/example_sim.json")
        first, _ = run_scenario_with_logs(scenario, config)
        second, _ = run_scenario_with_logs(scenario, config)
        assert first.dumps() == second.dumps()

        link = scenario.network.default_link.latency_s
        bound = config.alg1.window_s + 2 * link + 0.5
        assert len(first.events) == 2
        for ev in first.events:
            assert ev.detected
            assert ev.latency_s <= bound, (ev.latency_s, bound)
        for node, duty in first.ir_duty_cycle.items():
            assert duty < 0.10, (node, duty)
    assert clock.elapsed < 60.0
