"""Peripheral node: seismic trigger, thermal capture, and repel playback.

The node is a pure state machine. pn_step consumes one event and returns the
next state plus the actions the surrounding runtime must perform. A
captured ThermalFrame returned as an action is published as it is; a
RepelCommand returned as an action is played as the acoustic deterrent and
flashed as the light, at its flash_freq_hz for its duration_s. Keeping the
transition function free of side effects makes every path scriptable in
tests.

The infrared camera is power-gated: it runs only between a qualifying
seismic score and the central node's decision. Each trigger captures one
frame, and that frame gets one decision. A run's metrics report the
fraction of time each node spends in IR_POWERED_STATES as its IR duty cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .detection import WindowDetection
from .deterrent import ModificationParams
from .errors import InvalidInputError


@dataclass(frozen=True)
class PnConfig:
    ds_threshold: int = 1
    decision_timeout_s: float = 10.0
    repel_cooldown_s: float = 60.0

    def __post_init__(self):
        if self.ds_threshold not in (1, 2):
            raise InvalidInputError("ds_threshold must be 1 or 2")
        if not 0 < self.decision_timeout_s < math.inf or \
                not self.repel_cooldown_s >= 0:
            raise InvalidInputError("timeouts must be positive")


class PnStateKind(Enum):
    IDLE = "idle"
    IR_ACTIVE = "ir_active"
    AWAITING_DECISION = "awaiting_decision"
    REPELLING = "repelling"
    COOLDOWN = "cooldown"


# camera is powered while armed or waiting on the central node; these are
# the state names an action row's state_to carries
IR_POWERED_STATES = frozenset({PnStateKind.IR_ACTIVE.value,
                               PnStateKind.AWAITING_DECISION.value})


@dataclass(frozen=True)
class PnState:
    kind: PnStateKind = PnStateKind.IDLE
    until_s: float | None = None  # deadline for the timed states


@dataclass(frozen=True)
class ThermalFrame:
    frame_id: str
    pn_id: str
    width: int = 32
    height: int = 24
    # truth boxes (x0, y0, x1, y1) set by the simulator; None on a real frame
    sim_boxes: tuple[tuple[float, float, float, float], ...] | None = None


@dataclass(frozen=True)
class RepelCommand:
    pn_id: str
    frame_id: str
    deterrent: ModificationParams
    flash_freq_hz: float = 2.0
    duration_s: float = 10.0


@dataclass(frozen=True)
class NegativeDecision:
    pn_id: str
    frame_id: str


# ---- events ----

@dataclass(frozen=True)
class TimerExpired:
    deadline_s: float


PnEvent = (WindowDetection | ThermalFrame | RepelCommand | NegativeDecision
           | TimerExpired)


# ---- actions ----

@dataclass(frozen=True)
class CaptureFrame:
    """Capture the one thermal frame of this trigger."""


@dataclass(frozen=True)
class LogAnomaly:
    reason: str


# a ThermalFrame action is published; a RepelCommand action plays the
# deterrent and flashes the light
PnAction = CaptureFrame | ThermalFrame | RepelCommand | LogAnomaly


def _timer_matches(state: PnState, event: TimerExpired, now_s: float) -> bool:
    return (state.until_s is not None
            and abs(event.deadline_s - state.until_s) < 1e-9
            and now_s >= state.until_s - 1e-9)


def pn_step(state: PnState, event: PnEvent, config: PnConfig,
            now_s: float) -> tuple[PnState, tuple[PnAction, ...]]:
    """Advance the node by one event; returns (new state, actions).

    Seismic scores arriving outside Idle are recorded by the caller but
    trigger nothing here. A timer event whose deadline does not match the
    current state is scheduling debris and is ignored. Any other event that
    a state does not expect leaves the state unchanged and reports an
    anomaly action.
    """
    kind = state.kind

    if isinstance(event, WindowDetection):
        if kind is PnStateKind.IDLE and event.ds >= config.ds_threshold:
            return PnState(kind=PnStateKind.IR_ACTIVE), (CaptureFrame(),)
        return state, ()

    if isinstance(event, ThermalFrame):
        if kind is not PnStateKind.IR_ACTIVE:
            return state, (LogAnomaly(f"frame captured in state {kind.value}"),)
        new = PnState(kind=PnStateKind.AWAITING_DECISION,
                      until_s=now_s + config.decision_timeout_s)
        return new, (event,)

    if isinstance(event, (RepelCommand, NegativeDecision)):
        if kind is PnStateKind.AWAITING_DECISION:
            if isinstance(event, RepelCommand):
                new = PnState(kind=PnStateKind.REPELLING,
                              until_s=now_s + event.duration_s)
                return new, (event,)
            return PnState(), ()
        return state, (LogAnomaly(f"command received in state {kind.value}"),)

    if isinstance(event, TimerExpired):
        if not _timer_matches(state, event, now_s):
            return state, ()  # stale timer from an abandoned deadline
        if kind is PnStateKind.AWAITING_DECISION:
            return PnState(), ()
        if kind is PnStateKind.REPELLING:
            return PnState(kind=PnStateKind.COOLDOWN,
                           until_s=now_s + config.repel_cooldown_s), ()
        if kind is PnStateKind.COOLDOWN:
            return PnState(), ()
        return state, (LogAnomaly(f"timer expired in state {kind.value}"),)

    return state, (LogAnomaly(f"unknown event {type(event).__name__}"),)
