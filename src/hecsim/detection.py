"""Windowed seismic rumble detection and the spectrogram reference detector.

The field detector scores each 4 s window by reading the peak frequency of
32 short sub-segments and measuring the longest consecutive run whose peak
falls strictly inside the rumble band. The spectrogram detector is the
slower reference used to label events when scoring recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .signals import Signal, compute_stft, default_pad_length

# Recall reported for the original 44-recording field dataset. Context only:
# that corpus is not available here, so this is not a test target.
REFERENCE_FIELD_RECALL = 0.82

# spectrogram frames and rumble band of the reference tracker
ORACLE_FRAME_S = 0.5
ORACLE_HOP_S = 0.125
ORACLE_BAND_LOW_HZ = 20.0
ORACLE_BAND_HIGH_HZ = 40.0

# windows scored per FFT call; keeps each chunk's complex spectrum near 1 MB
SCORE_CHUNK_WINDOWS = 8
# windows screened per FFT call: two chunks' windows, at a few columns each
SCREEN_BLOCK_WINDOWS = 2 * SCORE_CHUNK_WINDOWS


@dataclass(frozen=True)
class Algorithm1Params:
    """Scoring thresholds for the windowed detector.

    A sub-segment is in-band when its peak frequency lies strictly between
    band_low_hz and band_high_hz. With the default 4 s window and 0.125 s
    sub-segments there are 32 readings; a run longer than run_low scores 1
    and a run of run_high or more scores 2.
    """

    window_s: float = 4.0
    subsegment_s: float = 0.125
    band_low_hz: float = 20.0
    band_high_hz: float = 40.0
    run_low: int = 6
    run_high: int = 24

    def __post_init__(self):
        for name in ("window_s", "subsegment_s"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise InvalidInputError(
                    f"{name} must be positive and finite, got {value!r}")
        ratio = self.window_s / self.subsegment_s
        if not 1 <= ratio < math.inf or abs(ratio - round(ratio)) > 1e-9:
            raise InvalidInputError(
                f"window_s {self.window_s!r} must hold a whole number of "
                f"subsegment_s {self.subsegment_s!r}")
        if not 0 < self.band_low_hz < self.band_high_hz:
            raise InvalidInputError("band edges must satisfy 0 < low < high")
        if not 0 < self.run_low < self.run_high:
            raise InvalidInputError("run thresholds must satisfy 0 < low < high")

    @property
    def subsegments_per_window(self) -> int:
        return int(round(self.window_s / self.subsegment_s))


@dataclass(frozen=True)
class WindowDetection:
    """Score for one analysis window."""

    window_index: int
    ds: int
    max_run: int
    window_start_s: float


@dataclass(frozen=True)
class RumbleEvent:
    """Event interval found by the spectrogram detector."""

    t_start_s: float
    t_end_s: float

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


@dataclass(frozen=True)
class RecallReport:
    oracle_count: int
    matched_count: int
    recall: float | None  # None when there are no reference events


def score_from_run(max_run: int, params: Algorithm1Params) -> int:
    """Map the longest in-band run to a detection score of 0, 1, or 2."""
    if max_run >= params.run_high:
        return 2
    if params.run_low < max_run < params.run_high:
        return 1
    return 0


def _runs(flags: np.ndarray) -> np.ndarray:
    """[start, stop) index pairs, one row per maximal run of True in flags."""
    padded = np.concatenate(([0], np.asarray(flags, dtype=np.int8), [0]))
    return np.flatnonzero(np.diff(padded)).reshape(-1, 2)


def _framing(trace: Signal, params: Algorithm1Params
             ) -> tuple[np.ndarray, int, int, np.ndarray]:
    """Check a trace's window and sub-segment geometry and frame it.

    Returns the full windows as a (windows, k, sub) view of the samples,
    the window length n, the FFT length and the in-band test of each bin
    above DC. The trace's remainder is ignored, and so is a window's tail
    shorter than one sub-segment.
    """
    x, rate = trace.samples, trace.sample_rate_hz
    if len(x) == 0:
        raise InvalidInputError("cannot window an empty trace")
    n = int(round(params.window_s * rate))
    if n < 1:
        raise InvalidInputError("window shorter than one sample")
    sub = int(round(params.subsegment_s * rate))
    if sub < 2:
        raise InvalidInputError("sub-segment shorter than two samples at "
                                f"{rate!r} Hz")
    # a sub-segment length rounded down can leave room for an extra one;
    # params hold window_s >= subsegment_s, so a window holds at least one
    k = min(n // sub, params.subsegments_per_window)
    pad = default_pad_length(sub)
    freqs = np.fft.rfftfreq(pad, 1.0 / rate)[1:]
    in_band = (freqs > params.band_low_hz) & (freqs < params.band_high_hz)
    count = len(x) // n
    segs = x[:count * n].reshape(count, n)[:, :k * sub].reshape(count, k, sub)
    return segs, n, pad, in_band


def _in_band_flags(segs: np.ndarray, buf: np.ndarray,
                   in_band: np.ndarray) -> np.ndarray:
    """Whether each sub-segment of a (windows, columns, sub) array peaks in
    band, one FFT call for all of them.

    The framing is that of a rectangular-window STFT with the hop equal to
    the frame: each sub-segment is mean-removed and zero-padded into buf, a
    (windows, columns, pad) array whose samples past sub stay zero. The peak
    bin skips DC and ties go to the lowest bin.
    """
    head = buf[:len(segs)]
    np.subtract(segs, segs.mean(axis=2, keepdims=True),
                out=head[:, :, :segs.shape[2]])
    # rfft of a padded buffer is faster than rfft(n=pad) and gives the same bits
    spec = np.fft.rfft(head, axis=2)[:, :, 1:]
    return in_band[np.abs(spec).argmax(axis=2)]


def _max_runs(segs: np.ndarray, pad: int, in_band: np.ndarray) -> np.ndarray:
    """Longest in-band sub-segment run of each window of a (windows, k, sub)
    array, scored SCORE_CHUNK_WINDOWS windows per FFT."""
    buf = np.zeros((min(len(segs), SCORE_CHUNK_WINDOWS), segs.shape[1], pad))
    flags = np.empty(segs.shape[:2], dtype=bool)
    for i0 in range(0, len(segs), SCORE_CHUNK_WINDOWS):
        chunk = segs[i0:i0 + SCORE_CHUNK_WINDOWS]
        flags[i0:i0 + len(chunk)] = _in_band_flags(chunk, buf, in_band)
    best = cur = np.zeros(len(segs), dtype=np.int64)
    for col in flags.T:
        cur = (cur + 1) * col
        best = np.maximum(best, cur)
    return best


def _detection(trace: Signal, n: int, i: int, run: int,
               params: Algorithm1Params) -> WindowDetection:
    return WindowDetection(window_index=i, ds=score_from_run(run, params),
                           max_run=run,
                           window_start_s=trace.start_time_s
                           + i * n / trace.sample_rate_hz)


def detect_stream(trace: Signal,
                  params: Algorithm1Params = Algorithm1Params()) -> list[WindowDetection]:
    """Score every full window of a trace; the remainder is ignored.

    Each window keeps its absolute start time, so detections sit on the
    trace's own timeline.
    """
    segs, n, pad, in_band = _framing(trace, params)
    return [_detection(trace, n, i, run, params)
            for i, run in enumerate(_max_runs(segs, pad, in_band).tolist())]


def detect_triggers(trace: Signal,
                    params: Algorithm1Params = Algorithm1Params()) -> list[WindowDetection]:
    """The windows of detect_stream that score ds >= 1, and only those.

    A window scores ds >= 1 when it holds an in-band run of L = run_low + 1
    sub-segments. Any L consecutive sub-segments hold exactly one index
    congruent to L - 1 mod L, so a window whose sub-segments L - 1,
    2L - 1, ... are all out of band cannot score. Those columns are
    screened first, SCREEN_BLOCK_WINDOWS windows per FFT, and only the
    windows with one of them in band are scored in full.
    """
    segs, n, pad, in_band = _framing(trace, params)
    L = params.run_low + 1
    screen = segs[:, L - 1::L]
    if screen.shape[1] == 0:
        return []
    buf = np.zeros((min(len(segs), SCREEN_BLOCK_WINDOWS), screen.shape[1], pad))
    found = []
    for i0 in range(0, len(segs), SCREEN_BLOCK_WINDOWS):
        block = screen[i0:i0 + SCREEN_BLOCK_WINDOWS]
        hits = i0 + np.flatnonzero(_in_band_flags(block, buf, in_band).any(axis=1))
        for i, run in zip(hits.tolist(),
                          _max_runs(segs[hits], pad, in_band).tolist()):
            if run >= L:
                found.append(_detection(trace, n, i, run, params))
    return found


def stft_oracle_detect(trace: Signal,
                       min_event_s: float = 3.0) -> list[RumbleEvent]:
    """Reference detector: track the spectrogram peak through the band.

    Maximal runs of frames whose peak frequency sits strictly inside the
    band become events when they last at least min_event_s. An event spans
    from the first frame's start to the last frame's end.
    """
    if not min_event_s >= 0:
        raise InvalidInputError(
            f"min_event_s must be non-negative, got {min_event_s!r}")
    spec = compute_stft(trace, ORACLE_FRAME_S, ORACLE_HOP_S, window_fn="hann")
    peaks = spec.freqs_hz[np.argmax(spec.magnitudes, axis=1)]
    in_band = (peaks > ORACLE_BAND_LOW_HZ) & (peaks < ORACLE_BAND_HIGH_HZ)

    events = []
    for i, j in _runs(in_band):
        t_start = float(spec.frame_times_s[i])
        t_end = float(spec.frame_times_s[j - 1]) + ORACLE_FRAME_S
        if t_end - t_start < min_event_s:
            continue
        events.append(RumbleEvent(t_start_s=t_start, t_end_s=t_end))
    return events


def match_and_recall(detections: list[WindowDetection],
                     events: list[RumbleEvent], ds_min: int = 1,
                     window_s: float = 4.0) -> RecallReport:
    """Score the windowed detector against reference events.

    An event is matched when any window with ds >= ds_min overlaps its
    interval. Recall is matched / total; with no reference events the ratio
    is undefined and recall is None rather than 0 or 1. ds_min is 1 or 2,
    the same rule as PnConfig.ds_threshold.
    """
    if ds_min not in (1, 2):
        raise InvalidInputError(f"ds_min must be 1 or 2, got {ds_min!r}")
    starts = [d.window_start_s for d in detections if d.ds >= ds_min]
    matched = sum(any(s < ev.t_end_s and s + window_s > ev.t_start_s
                      for s in starts) for ev in events)
    recall = None if not events else matched / len(events)
    return RecallReport(oracle_count=len(events), matched_count=matched,
                        recall=recall)
