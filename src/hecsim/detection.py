"""Windowed seismic rumble detection and the spectrogram reference detector.

The field detector scores each 4 s window by reading the peak frequency of
32 short sub-segments and measuring the longest consecutive run whose peak
falls strictly inside the rumble band. The spectrogram detector is the
slower reference used to label events when scoring recall.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .codec import Positive, check_ranges
from .errors import InvalidInputError
# compute_stft is not called here; perfbench's tracer wraps this binding
from .signals import (Signal, _rumble_blocks, check_rate,  # noqa: F401
                      compute_stft, default_pad_length, frame_spectra,
                      sample_count, sliding_frames)

SUBSEGMENT_S = 0.125  # one peak reading of a window's score
RUMBLE_BAND_HZ = (20.0, 40.0)  # a peak strictly inside is in band

# spectrogram frames of the reference tracker
ORACLE_FRAME_S = 0.5
ORACLE_HOP_S = 0.125
ORACLE_MIN_EVENT_S = 3.0  # the shortest event the tracker keeps by default

# samples per block of trigger_windows, rounded down to whole windows (one
# window at least): 32 windows of 4 s, 1 MB of float64, at 1 kHz
BLOCK_SAMPLES = 128_000


@dataclass(frozen=True)
class Algorithm1Params:
    """Scoring thresholds for the windowed detector.

    A SUBSEGMENT_S sub-segment is in band when its peak frequency lies
    strictly inside RUMBLE_BAND_HZ. The default 4 s window holds 32
    readings; a run longer than run_low scores 1 and a run of run_high or
    more scores 2.
    """

    window_s: Positive = 4.0
    run_low: int = 6
    run_high: int = 24

    def __post_init__(self):
        check_ranges(self)
        ratio = self.window_s / SUBSEGMENT_S
        if not 1 <= ratio < math.inf or abs(ratio - round(ratio)) > 1e-9:
            raise InvalidInputError(
                f"window_s {self.window_s!r} must hold a whole number of "
                f"{SUBSEGMENT_S} s sub-segments")
        if not 0 < self.run_low < self.run_high:
            raise InvalidInputError("run thresholds must satisfy 0 < low < high")


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


def _band_mask(m: int, rate: float) -> np.ndarray:
    """Whether each bin of frame_spectra's spectrum of an m-sample frame at
    rate lies strictly inside RUMBLE_BAND_HZ; the window scores and the
    tracker both test their peaks with it."""
    freqs = np.fft.rfftfreq(default_pad_length(m), 1.0 / rate)[1:]
    return (freqs > RUMBLE_BAND_HZ[0]) & (freqs < RUMBLE_BAND_HZ[1])


def _geometry(rate: float, params: Algorithm1Params
              ) -> tuple[int, int, int, np.ndarray]:
    """Check the window and sub-segment geometry at a sample rate.

    Returns the window length n, the sub-segments k per window and their
    length, and the in-band test of each bin of a sub-segment's spectrum. A
    window's tail shorter than one sub-segment is ignored.
    """
    check_rate(rate)
    n = int(round(params.window_s * rate))
    if n < 1:
        raise InvalidInputError("window shorter than one sample")
    sub = int(round(SUBSEGMENT_S * rate))
    if sub < 2:
        raise InvalidInputError("sub-segment shorter than two samples at "
                                f"{rate!r} Hz")
    # a sub-segment length rounded down can leave room for an extra one;
    # params hold window_s >= SUBSEGMENT_S, so a window holds at least one
    k = min(n // sub, round(params.window_s / SUBSEGMENT_S))
    return n, k, sub, _band_mask(sub, rate)


def _windows(x: np.ndarray, n: int, k: int, sub: int) -> np.ndarray:
    """The full windows of x as a (windows, k, sub) view; the remainder
    is left out."""
    count = len(x) // n
    return x[:count * n].reshape(count, n)[:, :k * sub].reshape(count, k, sub)


def _in_band_flags(frames: np.ndarray, in_band: np.ndarray,
                   rows: np.ndarray | None = None,
                   window: np.ndarray | None = None) -> np.ndarray:
    """Whether each frame of a (rows, columns, m) array, or of its given
    rows only, peaks in band: the peak bin of frame_spectra's spectrum,
    ties to the lowest bin, tested by in_band."""
    flags = np.empty((len(frames) if rows is None else len(rows),
                      frames.shape[1]), dtype=bool)
    for i, mags in frame_spectra(frames, window, rows):
        flags[i:i + len(mags)] = in_band[mags.argmax(axis=2)]
    return flags


def _max_runs(segs: np.ndarray, in_band: np.ndarray,
              rows: np.ndarray | None = None) -> np.ndarray:
    """Longest in-band sub-segment run of each window of a (windows, k, sub)
    array, or of the windows at the given row indices."""
    flags = _in_band_flags(segs, in_band, rows)
    # in-band count so far, less the count at the last out-of-band reading
    count = flags.cumsum(axis=1)
    since = np.maximum.accumulate(np.where(flags, 0, count), axis=1)
    return (count - since).max(axis=1, initial=0)


def _detection(start_s: float, rate: float, n: int, i: int, run: int,
               params: Algorithm1Params) -> WindowDetection:
    return WindowDetection(window_index=i, ds=score_from_run(run, params),
                           max_run=run, window_start_s=start_s + i * n / rate)


def detect_stream(trace: Signal,
                  params: Algorithm1Params = Algorithm1Params()) -> list[WindowDetection]:
    """Score every full window of a trace; the remainder is ignored.

    Each window keeps its absolute start time, so detections sit on the
    trace's own timeline.
    """
    x, rate = trace.samples, trace.sample_rate_hz
    if len(x) == 0:
        raise InvalidInputError("cannot window an empty trace")
    n, k, sub, in_band = _geometry(rate, params)
    runs = _max_runs(_windows(x, n, k, sub), in_band)
    return [_detection(trace.start_time_s, rate, n, i, run, params)
            for i, run in enumerate(runs.tolist())]


def trigger_windows(streams: Iterable[tuple[list, float, int]],
                    sample_rate_hz: float,
                    params: Algorithm1Params = Algorithm1Params()
                    ) -> list[list[WindowDetection]]:
    """For each (events, total_s, seed) stream, the windows of
    detect_stream(synth_rumble_stream(events, total_s, sample_rate_hz,
    seed), params) that hold a sample of one of its rumbles and score
    ds >= 1, found without holding a whole trace. Every other window
    scores 0 by rule: noise alone scoring ds >= 1 is rare enough to ignore
    (README, "Detection").

    The geometry and the events of every stream are checked before any
    noise is drawn. Each stream is drawn in order in blocks of
    BLOCK_SAMPLES rounded down to whole windows (one at least), into one
    buffer, up to the block that holds its last rumble window; a stream
    with no rumble draws nothing. Only the rumble windows are scored.
    """
    streams = list(streams)
    n, k, sub, in_band = _geometry(sample_rate_hz, params)
    for events, total_s, seed in streams:  # fail before anything is made
        _rumble_blocks(events, total_s, sample_rate_hz, seed)
    per = max(1, BLOCK_SAMPLES // n)  # windows per block
    buf = np.empty(per * n)
    found = []
    for events, total_s, seed in streams:
        # made again, so that one stream's chirps are held at a time
        spans, draw = _rumble_blocks(events, total_s, sample_rate_hz, seed)
        hot = np.zeros(sample_count(total_s, sample_rate_hz) // n, dtype=bool)
        for i0, i1 in spans:
            if i0 < i1:  # the windows holding samples i0 .. i1 - 1
                hot[i0 // n:-(-i1 // n)] = True
        rows, hits = np.flatnonzero(hot), []
        # range first, so that no block past the last rumble window is drawn
        for j, block in zip(range(rows[-1] // per + 1 if len(rows) else 0),
                            draw(buf)):
            mine = rows[rows // per == j]
            runs = _max_runs(_windows(block, n, k, sub), in_band,
                             mine - j * per)
            hits += [_detection(0.0, sample_rate_hz, n, i, run, params)
                     for i, run in zip(mine.tolist(), runs.tolist())
                     if run > params.run_low]
        found.append(hits)
    return found


def stft_oracle_detect(trace: Signal, min_event_s: float = ORACLE_MIN_EVENT_S
                       ) -> list[RumbleEvent]:
    """Reference detector: track the spectrogram peak through the band.

    Maximal runs of frames whose peak frequency sits strictly inside the
    band become events when they last at least min_event_s. An event spans
    from the first frame's start to the last frame's end.

    A run of r frames lasts (r - 1) * hop / rate + ORACLE_FRAME_S, so a
    kept run holds more than L = floor((min_event_s - ORACLE_FRAME_S) *
    rate / hop) frames (at least 1, at most the frame count; one frame of
    slack for the rounding of frame times). Frames L - 1, 2L - 1, ... are
    screened first. Every run of L frames holds one of them, and all its
    frames lie in the gaps next to in-band probes, so only those gaps are
    scored in full and every other frame counts as out of band. A run
    that can be kept is thus found whole; only runs dropped anyway can be
    cut short.
    """
    if not min_event_s >= 0:
        raise InvalidInputError(
            f"min_event_s must be non-negative, got {min_event_s!r}")
    rate = trace.sample_rate_hz
    frames, hop = sliding_frames(trace.samples, rate, ORACLE_FRAME_S,
                                 ORACLE_HOP_S)
    count, _, frame = frames.shape
    bins = _band_mask(frame, rate)
    window = np.hanning(frame)
    span = (min_event_s - ORACLE_FRAME_S) * rate / hop
    L = count if span >= count else max(1, math.floor(span))
    in_band = np.zeros(count, dtype=bool)
    probes = np.arange(L - 1, count, L)
    in_band[probes] = _in_band_flags(frames, bins, probes, window)[:, 0]
    # gap g holds frames gL .. gL + L - 2, between probes g - 1 and g
    near = np.zeros(count // L + 1, dtype=bool)
    near[:-1] = in_band[probes]
    near[1:] |= in_band[probes]
    rows = (np.flatnonzero(near)[:, None] * L + np.arange(L - 1)).ravel()
    rows = rows[rows < count]
    in_band[rows] = _in_band_flags(frames, bins, rows, window)[:, 0]
    times = trace.start_time_s + np.arange(len(in_band)) * hop / rate
    events = (RumbleEvent(t_start_s=float(times[i]),
                          t_end_s=float(times[j - 1]) + ORACLE_FRAME_S)
              for i, j in _runs(in_band))
    return [ev for ev in events if ev.duration_s >= min_event_s]


def match_and_recall(detections: list[WindowDetection],
                     events: list[RumbleEvent], ds_min: int = 1,
                     window_s: float = Algorithm1Params.window_s
                     ) -> RecallReport:
    """Score the windowed detector against reference events.

    An event is matched when any window with ds >= ds_min overlaps its
    interval. Recall is matched / total; with no reference events the ratio
    is undefined and recall is None rather than 0 or 1. ds_min is 1 or 2:
    a score of 1 wakes a node's camera.
    """
    if ds_min not in (1, 2):
        raise InvalidInputError(f"ds_min must be 1 or 2, got {ds_min!r}")
    starts = [d.window_start_s for d in detections if d.ds >= ds_min]
    matched = sum(any(s < ev.t_end_s and s + window_s > ev.t_start_s
                      for s in starts) for ev in events)
    recall = None if not events else matched / len(events)
    return RecallReport(oracle_count=len(events), matched_count=matched,
                        recall=recall)
