"""Central node: frame triage, detector plumbing, warnings, and evaluation.

The central node receives thermal frames, runs a detector on each one
exactly once, and turns positive decisions into a repel command plus two
warnings, an officer message and a siren. cn_step returns these objects
themselves as its actions; the runtime runs the detector on a frame,
publishes a command, and records and publishes a warning. Two simulation
detectors are built in: an oracle that reads the simulated ground truth,
and a stochastic stand-in with configurable true and false positive rates.
The evaluation half of the module scores box detectors with IoU and average
precision at IoU 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .codec import JsonConfig
from .deterrent import pick_modification
from .errors import InvalidConfigError, InvalidInputError
from .mesh import check_segment
from .peripheral import LogAnomaly, NegativeDecision, RepelCommand, ThermalFrame
from .seeds import derive_seed

# Detector quality reported for the original thermal-image corpus (full
# precision model vs. the embedded quantized build). That corpus is not
# bundled, so these are context, not test targets.
REFERENCE_AP50_FULL = 0.8952
REFERENCE_AP50_QUANTIZED = 0.6752


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with corners (x0, y0) and (x1, y1), x0 <= x1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise InvalidInputError("box corners must be finite")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise InvalidInputError("box corners are inverted")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; degenerate (zero-area) overlap gives 0."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class DetectorDecision:
    frame_id: str
    elephant_present: bool
    confidence: float
    boxes: tuple[BoundingBox, ...] = ()


def _sim_boxes(frame: ThermalFrame) -> tuple[BoundingBox, ...]:
    """The simulated truth boxes of a frame; none means no elephant."""
    if frame.sim_boxes is None:
        raise InvalidInputError(
            f"frame {frame.frame_id} carries no simulated ground truth")
    return tuple(BoundingBox(*b) for b in frame.sim_boxes)


class Detector(Protocol):
    name: str

    def decide(self, frame: ThermalFrame) -> DetectorDecision: ...


class OracleDetector:
    """Perfect detector: echoes the ground truth with confidence 1."""

    name = "oracle"

    def decide(self, frame: ThermalFrame) -> DetectorDecision:
        boxes = _sim_boxes(frame)
        return DetectorDecision(frame_id=frame.frame_id,
                                elephant_present=bool(boxes),
                                confidence=1.0 if boxes else 0.0, boxes=boxes)


@dataclass(frozen=True)
class StochasticDetectorParams:
    tpr: float = 0.9
    fpr: float = 0.05

    def __post_init__(self):
        for name in ("tpr", "fpr"):
            if not 0.0 <= (rate := getattr(self, name)) <= 1.0:
                raise InvalidInputError(
                    f"{name} must lie in [0, 1], got {rate!r}")


class StochasticDetector:
    """Rate-model detector: deterministic per (seed, frame_id).

    A truth-positive frame is flagged with probability tpr, a truth-negative
    one with probability fpr. The per-frame draw is keyed by the seed and
    the frame id, so replaying a run reproduces every decision regardless of
    arrival order.
    """

    name = "stochastic"

    def __init__(self, seed: int,
                 params: StochasticDetectorParams = StochasticDetectorParams()):
        self.seed = seed
        self.params = params

    def decide(self, frame: ThermalFrame) -> DetectorDecision:
        truth = _sim_boxes(frame)
        rng = np.random.default_rng(
            derive_seed(self.seed, "frame", frame.frame_id))
        draw = float(rng.random())
        present = draw < (self.params.tpr if truth else self.params.fpr)
        if not present:
            return DetectorDecision(frame_id=frame.frame_id,
                                    elephant_present=False,
                                    confidence=float(rng.uniform(0.0, 0.5)))
        if truth:
            boxes = truth
        else:
            # false alarm: an arbitrary plausible box
            x0 = float(rng.uniform(0, frame.width * 0.5))
            y0 = float(rng.uniform(0, frame.height * 0.5))
            boxes = (BoundingBox(x0, y0,
                                 x0 + float(rng.uniform(1, frame.width * 0.5)),
                                 y0 + float(rng.uniform(1, frame.height * 0.5))),)
        return DetectorDecision(frame_id=frame.frame_id, elephant_present=True,
                                confidence=float(rng.uniform(0.5, 1.0)),
                                boxes=boxes)


def detect_frame(frame: ThermalFrame, detector: Detector) -> DetectorDecision:
    """Run one detector on one frame."""
    return detector.decide(frame)


# ---- central node state machine ----

@dataclass(frozen=True)
class CnConfig:
    node_id: str = "cn"
    repel_duration_s: float = 10.0
    flash_freq_hz: float = 2.0

    def __post_init__(self):
        check_segment("node id", self.node_id)
        if not 0 < self.repel_duration_s < math.inf or \
                not 0 < self.flash_freq_hz < math.inf:
            raise InvalidConfigError("repel duration and flash frequency "
                                     "must be positive and finite")


@dataclass(frozen=True)
class CnState:
    """Pending frames awaiting a detector result, and decided frame ids."""

    pending: tuple[tuple[str, str], ...] = ()  # (frame_id, pn_id)
    decided: frozenset[str] = frozenset()

    def pending_pn(self, frame_id: str) -> str | None:
        for fid, pn in self.pending:
            if fid == frame_id:
                return pn
        return None


CnEvent = ThermalFrame | DetectorDecision


class WarningKind(str, Enum):
    OFFICER_MESSAGE = "officer_message"
    SIREN = "siren"


@dataclass(frozen=True)
class WarningRecord:
    kind: WarningKind
    timestamp_s: float
    pn_id: str
    frame_id: str
    message: str

    def to_record(self) -> dict:
        return {"kind": self.kind.value, "t": self.timestamp_s,
                "pn_id": self.pn_id, "frame_id": self.frame_id,
                "message": self.message}


# a ThermalFrame action runs the detector on it; a RepelCommand or
# NegativeDecision action is published to its node; a WarningRecord action
# is recorded and published
CnAction = (ThermalFrame | RepelCommand | NegativeDecision | WarningRecord
            | LogAnomaly)


def cn_step(state: CnState, event: CnEvent, config: CnConfig,
            now_s: float) -> tuple[CnState, tuple[CnAction, ...]]:
    """Advance the central node by one event.

    Each frame id is decided at most once: repeat frames and repeat or
    unknown detector results produce an anomaly action and nothing else.
    """
    if isinstance(event, ThermalFrame):
        fid = event.frame_id
        if fid in state.decided or state.pending_pn(fid) is not None:
            return state, (LogAnomaly(f"duplicate frame {fid}"),)
        new = CnState(pending=state.pending + ((fid, event.pn_id),),
                      decided=state.decided)
        return new, (event,)

    if isinstance(event, DetectorDecision):
        fid = event.frame_id
        if fid in state.decided:
            return state, (LogAnomaly(f"repeat decision for frame {fid}"),)
        pn_id = state.pending_pn(fid)
        if pn_id is None:
            return state, (LogAnomaly(f"decision for unknown frame {fid}"),)
        new = CnState(
            pending=tuple(p for p in state.pending if p[0] != fid),
            decided=state.decided | {fid},
        )
        if not event.elephant_present:
            return new, (NegativeDecision(pn_id, fid),)
        # keyed by frame id alone, not by the run's master seed: deriving
        # it from master_seed would change every pinned run output
        deterrent = pick_modification(derive_seed(0, "repel", fid))
        command = RepelCommand(pn_id=pn_id, frame_id=fid, deterrent=deterrent,
                               flash_freq_hz=config.flash_freq_hz,
                               duration_s=config.repel_duration_s)
        officer = WarningRecord(
            kind=WarningKind.OFFICER_MESSAGE, timestamp_s=now_s, pn_id=pn_id,
            frame_id=fid,
            message=f"elephant confirmed near {pn_id}; repel playback started")
        siren = WarningRecord(
            kind=WarningKind.SIREN, timestamp_s=now_s, pn_id=pn_id,
            frame_id=fid, message=f"siren sounding at {pn_id}")
        return new, (command, officer, siren)

    return state, (LogAnomaly(f"unknown event {type(event).__name__}"),)


# ---- labeled frames and AP evaluation ----

@dataclass(frozen=True)
class LabeledFrame:
    """One labeled frame; the fields mirror the keys of a labels file.

    Each box is [x0, y0, x1, y1] in pixels and lies inside the frame; a
    frame without boxes is a negative.
    """

    frame_id: str
    boxes: tuple[tuple[float, float, float, float], ...]
    width: int = 32
    height: int = 24

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidInputError("frame size must be at least 1x1, got "
                                    f"{self.width!r}x{self.height!r}")
        for corners in self.boxes:
            box = BoundingBox(*corners)
            if box.x0 < 0 or box.y0 < 0 or box.x1 > self.width or \
                    box.y1 > self.height:
                raise InvalidInputError(
                    f"box {list(corners)} lies outside the "
                    f"{self.width}x{self.height} frame")

    @property
    def frame(self) -> ThermalFrame:
        return ThermalFrame(frame_id=self.frame_id, pn_id="", width=self.width,
                            height=self.height, sim_boxes=self.boxes)


@dataclass(frozen=True)
class LabeledFrameSet(JsonConfig):
    """A labels file: {"frames": [...]}, loaded strictly by the codec."""

    frames: tuple[LabeledFrame, ...]

    def __post_init__(self):
        seen = set()
        for lf in self.frames:
            if lf.frame_id in seen:
                raise InvalidInputError(f"duplicate frame id {lf.frame_id!r}")
            seen.add(lf.frame_id)


def evaluate_ap50(detector: Detector, frame_set: LabeledFrameSet) -> float:
    """Average precision at IoU 0.5, all-point interpolation.

    Predictions are ranked by confidence; each can match at most one still
    unmatched truth box in its own frame. A positive decision without boxes
    cannot be scored and is rejected.
    """
    truths = [tuple(BoundingBox(*b) for b in lf.boxes)
              for lf in frame_set.frames]
    total_truth = sum(map(len, truths))
    predictions = []  # (confidence, order, frame index, box)
    for idx, lf in enumerate(frame_set.frames):
        decision = detector.decide(lf.frame)
        if decision.elephant_present and not decision.boxes:
            raise InvalidInputError(
                f"detector {detector.name!r} flagged frame "
                f"{lf.frame_id} without boxes")
        for box in decision.boxes:
            predictions.append((decision.confidence, len(predictions), idx, box))
    if not predictions or total_truth == 0:
        return 0.0

    predictions.sort(key=lambda p: (-p[0], p[1]))
    matched: set[tuple[int, int]] = set()
    tp = np.zeros(len(predictions))
    for rank, (_, _, idx, box) in enumerate(predictions):
        best_iou = 0.0
        best_key = None
        for gt_idx, gt in enumerate(truths[idx]):
            if (idx, gt_idx) in matched:
                continue
            value = iou(box, gt)
            if value > best_iou:
                best_iou = value
                best_key = (idx, gt_idx)
        if best_key is not None and best_iou >= 0.5:
            matched.add(best_key)
            tp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    precision = cum_tp / (np.arange(len(predictions)) + 1)
    recall = cum_tp / total_truth
    # monotone precision envelope, then sum the recall increments
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_recall = 0.0
    for p, r in zip(envelope, recall):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return float(ap)
