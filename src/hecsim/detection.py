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
from .signals import SeismicTrace, compute_stft, default_pad_length

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
        if not 0 < self.subsegment_s <= self.window_s:
            raise InvalidInputError("sub-segment must fit inside the window")
        ratio = self.window_s / self.subsegment_s
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise InvalidInputError("window must hold a whole number of sub-segments")
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


def _max_runs(windows: np.ndarray, rate: float,
              params: Algorithm1Params) -> np.ndarray:
    """Longest in-band sub-segment run of each row of a (windows, samples)
    array, scored SCORE_CHUNK_WINDOWS rows per FFT.

    The framing is that of a rectangular-window STFT with the hop equal to
    the frame: consecutive sub-segments, at most subsegments_per_window of
    them, each mean-removed and zero-padded to the default FFT length. The
    peak bin skips DC and ties go to the lowest bin.
    """
    sub = int(round(params.subsegment_s * rate))
    if sub < 2:
        raise InvalidInputError("sub-segment shorter than two samples at "
                                f"{rate!r} Hz")
    # a sub-segment length rounded down can leave room for an extra one
    k = min(windows.shape[1] // sub, params.subsegments_per_window)
    if k == 0:
        raise InvalidInputError("window shorter than one sub-segment")
    pad = default_pad_length(sub)
    freqs = np.fft.rfftfreq(pad, 1.0 / rate)[1:]
    in_band = (freqs > params.band_low_hz) & (freqs < params.band_high_hz)
    # zero-padded in place: rfft of a padded buffer is faster than rfft(n=pad)
    # and gives the same bits
    buf = np.zeros((min(len(windows), SCORE_CHUNK_WINDOWS), k, pad))
    flags = np.empty((len(windows), k), dtype=bool)
    for i0 in range(0, len(windows), SCORE_CHUNK_WINDOWS):
        segs = windows[i0:i0 + SCORE_CHUNK_WINDOWS, :k * sub].reshape(-1, k, sub)
        head = buf[:len(segs)]
        np.subtract(segs, segs.mean(axis=2, keepdims=True), out=head[:, :, :sub])
        spec = np.fft.rfft(head, axis=2)[:, :, 1:]
        flags[i0:i0 + len(segs)] = in_band[np.abs(spec).argmax(axis=2)]
    best = cur = np.zeros(len(windows), dtype=np.int64)
    for col in flags.T:
        cur = (cur + 1) * col
        best = np.maximum(best, cur)
    return best


def detect_window(window: SeismicTrace,
                  params: Algorithm1Params = Algorithm1Params()) -> WindowDetection:
    """Score one window of seismic samples.

    The window is cut into consecutive sub-segments; each one contributes a
    single peak-frequency reading, taken as one row of a rectangular-window
    STFT with the hop equal to the frame (ties go to the lowest bin).
    Strict band inequalities mean a peak at exactly 20 or 40 Hz does not
    count.
    """
    n_expected = int(round(params.window_s * window.sample_rate_hz))
    if abs(len(window.samples) - n_expected) > 1:
        raise InvalidInputError(
            f"window holds {len(window.samples)} samples, expected {n_expected}")
    max_run = int(_max_runs(window.samples[None, :], window.sample_rate_hz,
                            params)[0])
    return WindowDetection(window_index=0, ds=score_from_run(max_run, params),
                           max_run=max_run, window_start_s=window.start_time_s)


def detect_stream(trace: SeismicTrace,
                  params: Algorithm1Params = Algorithm1Params()) -> list[WindowDetection]:
    """Score every full window of a trace; the remainder is ignored.

    Each window keeps its absolute start time, so detections sit on the
    trace's own timeline.
    """
    x, rate = trace.samples, trace.sample_rate_hz
    if len(x) == 0:
        raise InvalidInputError("cannot window an empty trace")
    n = int(round(params.window_s * rate))
    if n < 1:
        raise InvalidInputError("window shorter than one sample")
    count = len(x) // n
    if count == 0:
        return []
    runs = _max_runs(x[:count * n].reshape(count, n), rate, params)
    return [WindowDetection(window_index=i, ds=score_from_run(run, params),
                            max_run=run,
                            window_start_s=trace.start_time_s + i * n / rate)
            for i, run in enumerate(runs.tolist())]


def stft_oracle_detect(trace: SeismicTrace, min_event_s: float = 3.0,
                       require_rise_fall: bool = False) -> list[RumbleEvent]:
    """Reference detector: track the spectrogram peak through the band.

    Maximal runs of frames whose peak frequency sits strictly inside the
    band become events when they last at least min_event_s. An event spans
    from the first frame's start to the last frame's end. With
    require_rise_fall, the peak trajectory must attain its maximum strictly
    inside the run, which discards one-sided sweeps.
    """
    spec = compute_stft(trace, ORACLE_FRAME_S, ORACLE_HOP_S, window_fn="hann")
    peaks = spec.freqs_hz[np.argmax(spec.magnitudes, axis=1)]
    in_band = (peaks > ORACLE_BAND_LOW_HZ) & (peaks < ORACLE_BAND_HIGH_HZ)

    events = []
    for i, j in _runs(in_band):
        t_start = float(spec.frame_times_s[i])
        t_end = float(spec.frame_times_s[j - 1]) + ORACLE_FRAME_S
        if t_end - t_start < min_event_s:
            continue
        if require_rise_fall:
            run = peaks[i:j]
            top = np.flatnonzero(run == run.max())
            # a plateau touching either end is still one-sided
            if top[0] == 0 or top[-1] == len(run) - 1:
                continue
        events.append(RumbleEvent(t_start_s=t_start, t_end_s=t_end))
    return events


def match_and_recall(detections: list[WindowDetection],
                     events: list[RumbleEvent], ds_min: int = 1,
                     window_s: float = 4.0) -> RecallReport:
    """Score the windowed detector against reference events.

    An event is matched when any window with ds >= ds_min overlaps its
    interval. Recall is matched / total; with no reference events the ratio
    is undefined and recall is None rather than 0 or 1.
    """
    starts = [d.window_start_s for d in detections if d.ds >= ds_min]
    matched = sum(any(s < ev.t_end_s and s + window_s > ev.t_start_s
                      for s in starts) for ev in events)
    recall = None if not events else matched / len(events)
    return RecallReport(oracle_count=len(events), matched_count=matched,
                        recall=recall)
