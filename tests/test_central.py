import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecsim.central import (BoundingBox, CnConfig, CnState,
                            DetectorDecision, LabeledFrame, LabeledFrameSet,
                            OracleDetector, StochasticDetector,
                            StochasticDetectorParams, WarningKind,
                            WarningRecord, cn_step, detect_frame,
                            evaluate_ap50, iou)
from hecsim.deterrent import ModificationKind, ModificationParams
from hecsim.errors import InvalidConfigError, InvalidInputError
from hecsim.peripheral import (LogAnomaly, NegativeDecision, RepelCommand,
                               ThermalFrame)
from oracles import brute_force_ap50, iou_fraction

CFG = CnConfig()


SEEN_BOX = (8.0, 6.0, 24.0, 18.0)  # the box a scenario run gives a seen elephant


def frame(frame_id="pn-1-w000", pn="pn-1", truth=True):
    return ThermalFrame(frame_id=frame_id, pn_id=pn,
                        sim_boxes=(SEEN_BOX,) if truth else ())


# ---- IoU ----

IOU_CASES = [
    ((0, 0, 2, 2), (0, 0, 2, 2), 1.0),
    ((0, 0, 2, 2), (1, 1, 3, 3), 1.0 / 7.0),
    ((0, 0, 1, 1), (2, 2, 3, 3), 0.0),
    ((0, 0, 2, 2), (2, 0, 4, 2), 0.0),       # shared edge only
    ((0, 0, 4, 4), (1, 1, 3, 3), 4.0 / 16.0),  # containment
    ((0, 0, 1, 1), (0, 0, 1, 1), 1.0),
    ((0, 0, 0, 0), (0, 0, 0, 0), 0.0),       # degenerate points
    ((0, 0, 10, 1), (0, 0, 1, 10), 1.0 / 19.0),
]


@pytest.mark.parametrize("a,b,expected", IOU_CASES)
def test_iou_hand_cases(a, b, expected):
    got = iou(BoundingBox(*a), BoundingBox(*b))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(iou_fraction(a, b), abs=1e-12)


def test_iou_is_symmetric():
    a = BoundingBox(0, 0, 3, 2)
    b = BoundingBox(1, 1, 5, 4)
    assert iou(a, b) == iou(b, a)


def test_box_validation():
    with pytest.raises(InvalidInputError):
        BoundingBox(2, 0, 1, 1)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(-10, 10, allow_nan=False) for _ in range(4)]),
       st.tuples(*[st.floats(-10, 10, allow_nan=False) for _ in range(4)]))
def test_iou_matches_oracle_everywhere(raw_a, raw_b):
    ax0, ay0, ax1, ay1 = raw_a
    bx0, by0, bx1, by1 = raw_b
    a = (min(ax0, ax1), min(ay0, ay1), max(ax0, ax1), max(ay0, ay1))
    b = (min(bx0, bx1), min(by0, by1), max(bx0, bx1), max(by0, by1))
    got = iou(BoundingBox(*a), BoundingBox(*b))
    assert got == pytest.approx(iou_fraction(a, b), abs=1e-9)
    assert 0.0 <= got <= 1.0


# ---- detectors ----

def test_truth_requires_simulated_flag():
    bare = ThermalFrame(frame_id="x", pn_id="pn-1")
    for detector in (OracleDetector(), StochasticDetector(0)):
        with pytest.raises(InvalidInputError, match="no simulated ground"):
            detect_frame(bare, detector)


def test_oracle_echoes_truth():
    d = OracleDetector()
    pos = d.decide(frame(truth=True))
    assert pos.elephant_present and pos.confidence == 1.0
    assert pos.boxes == (BoundingBox(*SEEN_BOX),)
    neg = d.decide(frame(truth=False))
    assert not neg.elephant_present and neg.boxes == ()


def test_stochastic_is_deterministic_per_frame_id():
    d = StochasticDetector(5)
    a = d.decide(frame())
    b = d.decide(frame())
    assert a == b
    other = StochasticDetector(6).decide(frame())
    # a different seed keys a different draw stream
    assert other.confidence != a.confidence


def test_stochastic_rates_converge():
    d = StochasticDetector(1, StochasticDetectorParams(tpr=0.9, fpr=0.05))
    hits = sum(d.decide(frame(frame_id=f"p{k}", truth=True)).elephant_present
               for k in range(400))
    falses = sum(d.decide(frame(frame_id=f"n{k}", truth=False)).elephant_present
                 for k in range(400))
    assert hits / 400 == pytest.approx(0.9, abs=0.05)
    assert falses / 400 == pytest.approx(0.05, abs=0.04)


def test_stochastic_extreme_rates():
    always = StochasticDetector(0, StochasticDetectorParams(tpr=1.0, fpr=1.0))
    never = StochasticDetector(0, StochasticDetectorParams(tpr=0.0, fpr=0.0))
    for k in range(20):
        f = frame(frame_id=f"e{k}", truth=k % 2 == 0)
        assert always.decide(f).elephant_present
        assert not never.decide(f).elephant_present
    with pytest.raises(InvalidInputError):
        StochasticDetectorParams(tpr=1.5)


def test_stochastic_false_alarm_still_boxes():
    d = StochasticDetector(0, StochasticDetectorParams(tpr=1.0, fpr=1.0))
    decision = d.decide(frame(truth=False))
    assert decision.elephant_present
    assert len(decision.boxes) == 1


# ---- central node steps ----

def test_positive_frame_produces_repel_officer_siren():
    state = CnState()
    state, actions = cn_step(state, frame(), CFG, 5.0)
    assert actions == (frame(),)
    decision = OracleDetector().decide(frame())
    state, actions = cn_step(state, decision, CFG, 5.1)
    kinds = [type(a) for a in actions]
    assert kinds == [RepelCommand, WarningRecord, WarningRecord]
    repel = actions[0]
    assert repel.pn_id == "pn-1"
    assert repel.frame_id == "pn-1-w000"
    assert repel.duration_s == CFG.repel_duration_s
    assert actions[1].kind is WarningKind.OFFICER_MESSAGE
    assert actions[2].kind is WarningKind.SIREN
    assert "pn-1-w000" in state.decided and state.pending == ()


def test_negative_frame_produces_negative_decision():
    state = CnState()
    state, _ = cn_step(state, frame(truth=False), CFG, 5.0)
    decision = OracleDetector().decide(frame(truth=False))
    state, actions = cn_step(state, decision, CFG, 5.1)
    assert actions == (NegativeDecision(pn_id="pn-1", frame_id="pn-1-w000"),)


def test_duplicate_frame_is_anomaly():
    state = CnState()
    state, _ = cn_step(state, frame(), CFG, 5.0)
    state2, actions = cn_step(state, frame(), CFG, 5.2)
    assert state2 == state
    assert len(actions) == 1 and isinstance(actions[0], LogAnomaly)


def test_replayed_frame_after_decision_is_anomaly():
    state = CnState()
    state, _ = cn_step(state, frame(), CFG, 5.0)
    state, _ = cn_step(state, OracleDetector().decide(frame()), CFG, 5.1)
    state2, actions = cn_step(state, frame(), CFG, 6.0)
    assert state2 == state
    assert len(actions) == 1 and isinstance(actions[0], LogAnomaly)


def test_repeat_and_unknown_decisions_are_anomalies():
    state = CnState()
    state, _ = cn_step(state, frame(), CFG, 5.0)
    decision = OracleDetector().decide(frame())
    state, _ = cn_step(state, decision, CFG, 5.1)
    state2, actions = cn_step(state, decision, CFG, 5.2)
    assert state2 == state
    assert isinstance(actions[0], LogAnomaly)
    _, actions = cn_step(state, DetectorDecision(
        frame_id="ghost", elephant_present=True, confidence=1.0), CFG, 5.3)
    assert isinstance(actions[0], LogAnomaly)


def test_unknown_event_is_an_anomaly():
    state, _ = cn_step(CnState(), frame(), CFG, 5.0)
    command = RepelCommand(pn_id="pn-1", frame_id="pn-1-w000",
                           deterrent=ModificationParams(
                               kind=ModificationKind.PINK_NOISE_OVERLAY,
                               alpha=1.0, seed=0))
    state2, actions = cn_step(state, command, CFG, 5.1)
    assert state2 == state
    assert actions == (LogAnomaly("unknown event RepelCommand"),)


def test_deterrent_draw_is_stable_per_frame():
    state = CnState()
    state, _ = cn_step(state, frame(), CFG, 5.0)
    decision = OracleDetector().decide(frame())
    _, actions_a = cn_step(state, decision, CFG, 5.1)
    _, actions_b = cn_step(state, decision, CFG, 9.9)
    assert actions_a[0].deterrent == actions_b[0].deterrent


# ---- labeled frames and AP50 ----

def lf(frame_id, boxes, width=32, height=24):
    return LabeledFrame(frame_id=frame_id, boxes=tuple(boxes), width=width,
                        height=height)


def test_labeled_frame_set_round_trip():
    fs = LabeledFrameSet(frames=(
        lf("a", [(1, 1, 5, 5)]),
        lf("b", []),
        lf("c", [(0, 0, 2, 2), (10, 10, 20, 20)]),
    ))
    back = LabeledFrameSet.from_json(json.loads(json.dumps(fs.to_json())))
    assert back == fs
    assert back.to_json() == fs.to_json()
    assert OracleDetector().decide(back.frames[2].frame).boxes == (
        BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 20, 20))
    assert back.frames[1].frame.sim_boxes == ()
    with pytest.raises(InvalidConfigError):
        LabeledFrameSet.from_json({"nope": []})
    # a NaN corner would silently score as a miss; a string one is no number
    for corner in ["NaN", '"x"', "Infinity"]:
        text = ('{"frames": [{"frame_id": "a", "boxes": [[1, 1, 5, 5]]}, '
                f'{{"frame_id": "b", "boxes": [[{corner}, 1, 5, 5]]}}]}}')
        with pytest.raises(InvalidConfigError):
            LabeledFrameSet.from_json(json.loads(text))
    with pytest.raises(InvalidInputError):
        BoundingBox(float("nan"), 1.0, 5.0, 5.0)
    # no value is coerced or dropped: each bad one fails at its own path
    good = {"frame_id": "a", "boxes": [[1, 1, 5, 5]], "width": 32}
    for bad, path, needle in [
            ({"widht": 640}, "LabeledFrameSet.frames[1]", "unknown key"),
            # a frame is its id, size and boxes; every frame is scored,
            # so nothing else is a key
            ({"timestamp_s": 0.0}, "LabeledFrameSet.frames[1]",
             "unknown key 'timestamp_s'"),
            ({"pn_id": "pn-1"}, "LabeledFrameSet.frames[1]",
             "unknown key 'pn_id'"),
            ({"split": "train"}, "LabeledFrameSet.frames[1]",
             "unknown key 'split'"),
            ({"boxes": [["1", "1", "5", "5"]]},
             "LabeledFrameSet.frames[1].boxes[0][0]", "a number"),
            ({"width": 32.9}, "LabeledFrameSet.frames[1].width", "an integer"),
            ({"width": True}, "LabeledFrameSet.frames[1].width", "an integer"),
            ({"frame_id": 7}, "LabeledFrameSet.frames[1].frame_id", "a string"),
            ({"width": -5}, "LabeledFrameSet.frames[1]", "-5x24"),
            ({"height": 0}, "LabeledFrameSet.frames[1]", "32x0"),
            ({"boxes": [[5, 1, 1, 5]]}, "LabeledFrameSet.frames[1]",
             "inverted"),
            ({"boxes": [[4, 4, 200, 180]]}, "LabeledFrameSet.frames[1]",
             "outside the 32x24 frame"),
            ({"boxes": [[-1, 0, 4, 4]]}, "LabeledFrameSet.frames[1]",
             "outside the 32x24 frame"),
            # two labels for one frame id would draw and score alike
            ({"frame_id": "a"}, "LabeledFrameSet", "duplicate frame id 'a'")]:
        data = {"frames": [good, {**good, "frame_id": "b", **bad}]}
        with pytest.raises(InvalidConfigError) as exc:
            LabeledFrameSet.from_json(data)
        assert str(exc.value).startswith(path + ": ") and needle in \
            str(exc.value), (bad, str(exc.value))
    with pytest.raises(InvalidConfigError, match="^LabeledFrameSet: "
                       "unknown key 'version'"):
        LabeledFrameSet.from_json({"frames": [good], "version": 2})


def test_ap50_oracle_detector_is_perfect():
    fs = LabeledFrameSet(frames=(
        lf("a", [(1, 1, 5, 5)]),
        lf("b", []),
        lf("c", [(0, 0, 2, 2)]),
    ))
    assert evaluate_ap50(OracleDetector(), fs) == 1.0


def test_ap50_empty_detector_is_zero():
    class Mute:
        name = "mute"

        def decide(self, frame):
            return DetectorDecision(frame_id=frame.frame_id,
                                    elephant_present=False, confidence=0.0)

    fs = LabeledFrameSet(frames=(lf("a", [(1, 1, 5, 5)]),))
    assert evaluate_ap50(Mute(), fs) == 0.0


def test_ap50_positive_without_boxes_rejected():
    class Boxless:
        name = "boxless"

        def decide(self, frame):
            return DetectorDecision(frame_id=frame.frame_id,
                                    elephant_present=True, confidence=0.9)

    fs = LabeledFrameSet(frames=(lf("a", [(1, 1, 5, 5)]),))
    with pytest.raises(InvalidInputError):
        evaluate_ap50(Boxless(), fs)


def test_ap50_matches_brute_force_oracle():
    # five frames, scripted detector with a mix of hits, misses, and a
    # false alarm, exercising the ranking and the one-match-per-truth rule
    truths = [
        [(2, 2, 10, 10)],
        [(0, 0, 4, 4), (10, 10, 20, 20)],
        [],
        [(5, 5, 15, 15)],
        [(1, 1, 3, 3)],
    ]
    preds = [
        [(0.95, (2, 2, 10, 10))],                      # exact hit
        [(0.80, (0, 0, 4, 4)), (0.60, (11, 11, 21, 21))],  # hit + near hit
        [(0.70, (6, 6, 9, 9))],                        # false alarm
        [(0.50, (5, 5, 15, 14))],                      # high-IoU hit
        [],                                            # miss
    ]

    class Scripted:
        name = "scripted"

        def decide(self, frame):
            idx = int(frame.frame_id)
            boxes = tuple(BoundingBox(*b) for _, b in preds[idx])
            confs = [c for c, _ in preds[idx]]
            return DetectorDecision(
                frame_id=frame.frame_id,
                elephant_present=bool(boxes),
                confidence=max(confs) if confs else 0.0,
                boxes=boxes)

    fs = LabeledFrameSet(frames=tuple(
        lf(str(i), t, width=32, height=32) for i, t in enumerate(truths)))

    # evaluate_ap50 ranks whole decisions by one confidence; feed the oracle
    # the same flat ranking it will induce
    flat_preds = []
    for i, plist in enumerate(preds):
        decision_conf = max((c for c, _ in plist), default=0.0)
        for order, (_, box) in enumerate(plist):
            flat_preds.append((decision_conf, i, box))
    expected = brute_force_ap50(flat_preds,
                                {i: t for i, t in enumerate(truths)},
                                iou_threshold=0.5)
    got = evaluate_ap50(Scripted(), fs)
    assert got == pytest.approx(expected, abs=1e-12)
    assert 0.0 < got < 1.0
