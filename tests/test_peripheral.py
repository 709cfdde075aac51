import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecsim.central import DetectorDecision
from hecsim.detection import WindowDetection
from hecsim.deterrent import ModificationKind, ModificationParams
from hecsim.errors import InvalidInputError
from hecsim.harness import (PnPlacement, RunLogs, Scenario, SimConfig,
                            compute_metrics)
from hecsim.peripheral import (CaptureFrame, LogAnomaly, NegativeDecision,
                               PnConfig, PnState, PnStateKind, RepelCommand,
                               ThermalFrame, TimerExpired, pn_step)

CFG = PnConfig()


def window(ds, run=None, start=0.0):
    if run is None:
        run = {0: 0, 1: 10, 2: 30}[ds]
    return WindowDetection(window_index=0, ds=ds, max_run=run,
                           window_start_s=start)


def frame():
    return ThermalFrame(frame_id="pn-1-w000", pn_id="pn-1")


def repel(duration=10.0):
    det = ModificationParams(kind=ModificationKind.PINK_NOISE_OVERLAY,
                             alpha=1.0, seed=0)
    return RepelCommand(pn_id="pn-1", frame_id="pn-1-w000", deterrent=det,
                        flash_freq_hz=2.0, duration_s=duration)


def test_full_cycle_through_all_states():
    state = PnState()

    state, actions = pn_step(state, window(2), CFG, 4.0)
    assert state.kind is PnStateKind.IR_ACTIVE
    assert actions == (CaptureFrame(),)

    # the one frame of the trigger goes straight to awaiting a decision
    state, actions = pn_step(state, frame(), CFG, 4.05)
    assert state.kind is PnStateKind.AWAITING_DECISION
    assert state.until_s == pytest.approx(4.05 + CFG.decision_timeout_s)
    assert actions == (frame(),)

    cmd = repel()
    state, actions = pn_step(state, cmd, CFG, 4.2)
    assert state.kind is PnStateKind.REPELLING
    assert state.until_s == pytest.approx(14.2)
    assert actions == (cmd,)
    # the delivered command itself is the action: no copy, no wrapper
    assert actions[0] is cmd

    state, actions = pn_step(state, TimerExpired(deadline_s=14.2), CFG, 14.2)
    assert state.kind is PnStateKind.COOLDOWN
    assert state.until_s == pytest.approx(14.2 + CFG.repel_cooldown_s)
    assert actions == ()

    state, actions = pn_step(state, TimerExpired(deadline_s=state.until_s),
                             CFG, state.until_s)
    assert state.kind is PnStateKind.IDLE


def test_negative_decision_returns_to_idle():
    state = PnState(kind=PnStateKind.AWAITING_DECISION, until_s=14.0)
    neg = NegativeDecision(pn_id="pn-1", frame_id="pn-1-w000")
    state, actions = pn_step(state, neg, CFG, 5.0)
    assert state.kind is PnStateKind.IDLE
    assert actions == ()


def test_decision_timeout_drops_back_to_idle():
    state = PnState(kind=PnStateKind.AWAITING_DECISION, until_s=14.0)
    state, actions = pn_step(state, TimerExpired(deadline_s=14.0), CFG, 14.0)
    assert state.kind is PnStateKind.IDLE
    assert actions == ()


def test_subthreshold_score_does_nothing():
    state, actions = pn_step(PnState(), window(0), CFG, 4.0)
    assert state.kind is PnStateKind.IDLE
    assert actions == ()


def test_threshold_two_ignores_ds_one():
    cfg = PnConfig(ds_threshold=2)
    state, actions = pn_step(PnState(), window(1), cfg, 4.0)
    assert state.kind is PnStateKind.IDLE
    assert actions == ()
    state, actions = pn_step(PnState(), window(2), cfg, 4.0)
    assert state.kind is PnStateKind.IR_ACTIVE


def test_scores_outside_idle_are_silent():
    for kind in (PnStateKind.IR_ACTIVE, PnStateKind.AWAITING_DECISION,
                 PnStateKind.REPELLING, PnStateKind.COOLDOWN):
        state = PnState(kind=kind, until_s=99.0)
        new, actions = pn_step(state, window(2), CFG, 8.0)
        assert new == state
        assert actions == ()


def test_unexpected_frame_is_an_anomaly():
    state, actions = pn_step(PnState(), frame(), CFG, 4.0)
    assert state.kind is PnStateKind.IDLE
    assert len(actions) == 1 and isinstance(actions[0], LogAnomaly)


def test_unexpected_command_is_an_anomaly():
    state, actions = pn_step(PnState(), repel(), CFG, 4.0)
    assert state.kind is PnStateKind.IDLE
    assert len(actions) == 1 and isinstance(actions[0], LogAnomaly)


def test_unknown_event_is_an_anomaly():
    state = PnState(kind=PnStateKind.AWAITING_DECISION, until_s=14.0)
    decision = DetectorDecision(frame_id="pn-1-w000", elephant_present=True,
                                confidence=1.0)
    new, actions = pn_step(state, decision, CFG, 5.0)
    assert new == state
    assert actions == (LogAnomaly("unknown event DetectorDecision"),)


def test_stale_timer_is_ignored():
    state = PnState(kind=PnStateKind.REPELLING, until_s=20.0)
    new, actions = pn_step(state, TimerExpired(deadline_s=14.0), CFG, 14.0)
    assert new == state
    assert actions == ()
    # matching deadline but fired early: also ignored
    new, actions = pn_step(state, TimerExpired(deadline_s=20.0), CFG, 19.0)
    assert new == state
    assert actions == ()


def test_config_validation():
    # a score is 1 or 2: a set, so 1.5 fails where an interval [1, 2] would pass
    for bad in (3, 1.5):
        with pytest.raises(InvalidInputError, match=re.escape(
                f"ds_threshold {bad} is not in {{1, 2}}")):
            PnConfig(ds_threshold=bad)
    with pytest.raises(InvalidInputError):
        PnConfig(decision_timeout_s=0.0)
    with pytest.raises(InvalidInputError):
        PnConfig(decision_timeout_s=float("nan"))
    with pytest.raises(InvalidInputError):
        PnConfig(repel_cooldown_s=float("nan"))


def test_ir_duty_cycle_simple_interval():
    # the camera is powered from ir_active until the node leaves
    # awaiting_decision: 10 s to 14 s of a 40 s run
    log = [(10.0, PnStateKind.IR_ACTIVE),
           (12.0, PnStateKind.AWAITING_DECISION),
           (14.0, PnStateKind.IDLE)]
    actions = [{"t": t, "node": "pn-1", "state_from": "",
                "state_to": kind.value, "action": ""} for t, kind in log]
    sc = Scenario(name="unit", duration_s=40.0, pns=(PnPlacement("pn-1"),))
    logs = RunLogs(delivery_trace=[], actions=actions, warnings=[],
                   detections=[])
    report = compute_metrics(logs, sc, SimConfig())
    assert report.ir_duty_cycle["pn-1"] == pytest.approx(4.0 / 40.0)


EVENT_STRATEGY = st.one_of(
    st.integers(0, 2).map(window),
    st.just(frame()),
    st.just(repel()),
    st.just(NegativeDecision("pn-1", "pn-1-w000")),
    st.floats(0.0, 100.0, allow_nan=False).map(
        lambda d: TimerExpired(deadline_s=d)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(EVENT_STRATEGY, max_size=30))
@example([window(1), frame(), repel()] + [window(0)] * 21)
def test_random_event_storms_never_corrupt_state(events):
    state = PnState()
    now = 0.0
    for ev in events:
        now += 0.5
        # the node runtime fires every deadline it schedules, on time
        while state.until_s is not None and state.until_s <= now:
            state, _ = pn_step(state, TimerExpired(state.until_s), CFG,
                               state.until_s)
        prev = state
        state, actions = pn_step(state, ev, CFG, now)
        assert isinstance(state, PnState)
        assert state.kind in PnStateKind
        # timed states always carry a live deadline
        if state.kind in (PnStateKind.AWAITING_DECISION, PnStateKind.REPELLING,
                          PnStateKind.COOLDOWN):
            assert state.until_s is not None and state.until_s >= now - 1e-9
        for act in actions:
            assert isinstance(act, (CaptureFrame, ThermalFrame, RepelCommand,
                                    LogAnomaly))
        # a frame in ir_active always ends the capture
        if isinstance(ev, ThermalFrame) and prev.kind is PnStateKind.IR_ACTIVE:
            assert state.kind is PnStateKind.AWAITING_DECISION
            assert actions == (ev,)


@settings(max_examples=100, deadline=None)
@given(st.lists(EVENT_STRATEGY, max_size=30))
def test_repel_only_fires_from_awaiting(events):
    state = PnState()
    now = 0.0
    for ev in events:
        now += 0.5
        prev = state
        state, actions = pn_step(state, ev, CFG, now)
        if any(isinstance(a, RepelCommand) for a in actions):
            assert prev.kind is PnStateKind.AWAITING_DECISION
            assert state.kind is PnStateKind.REPELLING
