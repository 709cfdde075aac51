import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecsim import detection, signals
from hecsim.detection import (ORACLE_FRAME_S, ORACLE_HOP_S, ORACLE_MIN_EVENT_S,
                              Algorithm1Params, RumbleEvent,
                              WindowDetection, detect_stream, match_and_recall,
                              score_from_run, stft_oracle_detect,
                              trigger_windows)
from hecsim.errors import InvalidInputError
from hecsim.signals import (FFT_CHUNK_BYTES, RumbleSpec, Signal,
                            default_pad_length, synth_rumble,
                            synth_rumble_stream)
from oracles import (RUMBLE_BAND_HZ, SUBSEGMENT_S, longest_true_run,
                     naive_peak_frequency, stft_tracker_events,
                     stft_window_max_run)

PARAMS = Algorithm1Params()


def chunk_frames(frame):
    """Frames of frame samples per FFT call: their complex spectra fill
    FFT_CHUNK_BYTES."""
    return FFT_CHUNK_BYTES // (16 * (default_pad_length(frame) // 2 + 1))


def score_one_window(trace):
    """The detection of a trace that holds exactly one window."""
    (det,) = detect_stream(trace, PARAMS)
    return det


def test_score_thresholds_at_run_boundaries():
    table = {0: 0, 6: 0, 7: 1, 23: 1, 24: 2, 32: 2}
    for run, expected in table.items():
        assert score_from_run(run, PARAMS) == expected


def test_score_covers_every_run_length():
    for run in range(0, 33):
        ds = score_from_run(run, PARAMS)
        if run <= PARAMS.run_low:
            assert ds == 0
        elif run < PARAMS.run_high:
            assert ds == 1
        else:
            assert ds == 2


def test_detect_window_high_snr_rumble_scores_two():
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=2, total_s=4.0, onset_s=0.25)
    det = score_one_window(trace)
    assert det.ds == 2
    assert det.max_run >= PARAMS.run_high


def test_detect_window_out_of_band_tone_scores_zero():
    t = np.arange(4000) / 1000.0
    tone = Signal(samples=np.sin(2 * np.pi * 10.0 * t),
                  sample_rate_hz=1000.0)
    assert score_one_window(tone).ds == 0


def test_detect_window_silence_scores_zero():
    silent = Signal(samples=np.zeros(4000), sample_rate_hz=1000.0)
    det = score_one_window(silent)
    assert det.ds == 0
    assert det.max_run == 0


def test_detect_stream_indexes_windows():
    trace = synth_rumble_stream([(4.5, RumbleSpec(duration_s=3.0, snr_db=25.0))],
                                total_s=12.0, seed=0)
    detections = detect_stream(trace, PARAMS)
    assert [d.window_index for d in detections] == [0, 1, 2]
    assert [d.window_start_s for d in detections] == [0.0, 4.0, 8.0]
    assert detections[1].ds >= 1  # rumble sits inside the second window


def test_detect_stream_discards_remainder():
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=1, total_s=10.5, onset_s=4.25)
    detections = detect_stream(trace, PARAMS)
    assert [d.window_start_s for d in detections] == [0.0, 4.0]
    # the second window is samples 4000..7999, the last 2500 are dropped
    second = Signal(samples=trace.samples[4000:8000],
                    sample_rate_hz=1000.0, start_time_s=4.0)
    assert detections[1] == replace(score_one_window(second),
                                    window_index=1)
    assert detections[1].ds == 2


def triggers_of(trace, params=PARAMS):
    """trigger_windows on a stream of the trace's length and rate with one
    rumble over the whole of it; the trace's samples are not read."""
    rate = trace.sample_rate_hz
    total_s = len(trace.samples) / rate
    (hits,) = trigger_windows([([(0.0, RumbleSpec(duration_s=total_s))],
                                total_s, 0)], rate, params)
    return hits


BOTH_SCORERS = pytest.mark.parametrize(
    "score", [detect_stream, triggers_of],
    ids=["detect_stream", "detect_triggers"])


@BOTH_SCORERS
def test_short_trace_yields_nothing(score):
    short = Signal(samples=np.zeros(100), sample_rate_hz=1000.0)
    assert score(short, PARAMS) == []


def test_empty_trace_rejected():
    with pytest.raises(InvalidInputError, match="empty"):
        detect_stream(Signal(samples=np.zeros(0), sample_rate_hz=1000.0),
                      PARAMS)


@pytest.mark.parametrize("score, expected", [
    (lambda: trigger_windows([], 1000.0, PARAMS), []),
    (lambda: trigger_windows([([], 0.0, 0)], 1000.0, PARAMS), [[]]),
    (lambda: trigger_windows([([], 0.0, s) for s in range(3)], 1000.0,
                             PARAMS), [[], [], []]),
], ids=["no_block", "one_empty_block", "three_empty_blocks"])
def test_empty_stream_scores_nothing(score, expected):
    # no stream, one stream of 0 s and three such streams: a stream of no
    # sample holds no window, so it is scored like one shorter than a window
    assert score() == expected


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_stream_rate_must_be_positive_and_finite(rate):
    with pytest.raises(InvalidInputError, match="sample rate must be"):
        trigger_windows([([], 1.0, 0)], rate, PARAMS)


@BOTH_SCORERS
def test_window_shorter_than_one_sample_rejected(score):
    # one 0.125 s sub-segment a window, which rounds to no sample at 2 Hz
    tiny = Algorithm1Params(window_s=0.125)
    with pytest.raises(InvalidInputError, match="shorter than one sample"):
        score(Signal(samples=np.zeros(100), sample_rate_hz=2.0), tiny)


@BOTH_SCORERS
@pytest.mark.parametrize("samples", [100, 10])
def test_subsegment_of_one_sample_rejected(score, samples):
    # at 8 Hz a 0.125 s sub-segment is one sample; the geometry is checked
    # before the trace is windowed, so a trace shorter than one window
    # fails the same way
    with pytest.raises(InvalidInputError,
                       match="sub-segment shorter than two samples at 8.0 Hz"):
        score(Signal(samples=np.zeros(samples), sample_rate_hz=8.0), PARAMS)


def test_band_edges_are_strict():
    # a tone exactly on the 20 Hz band edge must not count as in-band
    t = np.arange(4000) / 1000.0
    edge = Signal(samples=np.sin(2 * np.pi * 20.0 * t),
                  sample_rate_hz=1000.0)
    assert score_one_window(edge).max_run == 0
    inside = Signal(samples=np.sin(2 * np.pi * 30.0 * t),
                    sample_rate_hz=1000.0)
    assert score_one_window(inside).ds == 2


def test_detect_window_matches_naive_dft_runs():
    # at 200 Hz a 25-sample sub-segment pads to 128 bins, small enough for
    # the direct-summation DFT; one 3 s rumble per window, SNR falling
    rate = 200.0
    events = [(4.0 * i + 0.5, RumbleSpec(duration_s=3.0, snr_db=snr))
              for i, snr in enumerate((20.0, 5.0, 0.0, -5.0))]
    trace = synth_rumble_stream(events, total_s=16.0, sample_rate_hz=rate,
                                seed=0)
    runs = []
    n = int(PARAMS.window_s * rate)
    for i0 in range(0, len(trace.samples), n):
        in_band = [
            RUMBLE_BAND_HZ[0]
            < naive_peak_frequency(seg, rate, pad_to=128)
            < RUMBLE_BAND_HZ[1]
            for seg in np.split(trace.samples[i0:i0 + n],
                                round(PARAMS.window_s / SUBSEGMENT_S))]
        runs.append(longest_true_run(in_band))
    # each window of the joined trace is scored on its own
    assert [d.max_run for d in detect_stream(trace, PARAMS)] == runs
    assert len(runs) == 4
    assert runs[0] >= PARAMS.run_high  # the clean rumble scores 2


@st.composite
def seismic_traces(draw):
    """1 to 20 windows plus a remainder at an awkward or easy rate, with up
    to three rumbles between -8 and 22 dB, so traces cross and end on
    scoring-chunk edges."""
    rate = draw(st.sampled_from([200.0, 999.0, 1000.0, 1001.0]))
    n = int(round(PARAMS.window_s * rate))
    total_s = (draw(st.integers(1, 20)) * n + draw(st.integers(0, n - 1))) / rate
    events = []
    for _ in range(draw(st.integers(0, 3))):
        duration = min(draw(st.floats(0.5, 5.0)), total_s)
        onset = draw(st.floats(0.0, 1.0)) * (total_s - duration)
        events.append((onset, RumbleSpec(duration_s=duration,
                                         snr_db=draw(st.floats(-8.0, 22.0)))))
    trace = synth_rumble_stream(events, total_s, rate,
                                seed=draw(st.integers(0, 2**32 - 1)))
    return Signal(samples=trace.samples, sample_rate_hz=rate,
                  start_time_s=draw(st.floats(0.0, 1e5)))


def _three_windows_of(samples, rate=1000.0):
    return Signal(samples=np.concatenate([samples] * 3),
                  sample_rate_hz=rate, start_time_s=2.0)


_T = np.arange(4000) / 1000.0
# at 999 Hz a window is 3996 samples and a sub-segment 125, so it holds
# only 31 sub-segments
_T999 = np.arange(3996) / 999.0


@settings(max_examples=60, deadline=None)
@given(seismic_traces())
@example(_three_windows_of(np.zeros(4000)))
@example(_three_windows_of(np.full(4000, 3.0)))
@example(_three_windows_of(np.sin(2 * np.pi * 20.0 * _T)))
@example(_three_windows_of(np.sin(2 * np.pi * 40.0 * _T)))
@example(_three_windows_of(np.sin(2 * np.pi * 30.0 * _T999), rate=999.0))
def test_batched_scoring_matches_per_window_stft(trace):
    x, rate = trace.samples, trace.sample_rate_hz
    n = int(round(PARAMS.window_s * rate))
    detections = detect_stream(trace, PARAMS)
    assert len(detections) == len(x) // n
    for i, det in enumerate(detections):
        run = stft_window_max_run(x[i * n:(i + 1) * n], rate, PARAMS)
        assert det == WindowDetection(
            window_index=i, ds=score_from_run(run, PARAMS), max_run=run,
            window_start_s=trace.start_time_s + i * n / rate)


def test_flat_spectrum_ties_go_to_the_lowest_bin(monkeypatch):
    # every bin of a silent sub-segment ties at zero; with a band around
    # the lowest bin (1.95 Hz at 1 kHz) only the lowest-bin rule counts it
    monkeypatch.setattr(detection, "RUMBLE_BAND_HZ", (1.0, 3.0))
    silent = Signal(samples=np.zeros(3 * 4000 + 7), sample_rate_hz=1000.0)
    assert [d.max_run for d in detect_stream(silent, PARAMS)] == [32, 32, 32]
    assert stft_window_max_run(np.zeros(4000), 1000.0, PARAMS,
                               band=(1.0, 3.0)) == 32
    # the tracker reads the same constant; around its lowest bin (0.49 Hz
    # for a 0.5 s frame at 1 kHz) every silent frame is in band
    monkeypatch.setattr(detection, "RUMBLE_BAND_HZ", (0.4, 0.6))
    (event,) = stft_oracle_detect(silent)
    assert [event] == stft_tracker_events(silent, ORACLE_MIN_EVENT_S,
                                          band=(0.4, 0.6))


def test_detect_stream_memory_is_bounded_by_the_chunk():
    # one hour at 1 kHz is 900 windows; scoring them in one batch would
    # take over 100 MiB of spectra, a chunk of 7 windows about 3 MiB
    trace = Signal(
        samples=np.random.default_rng(0).standard_normal(3_600_000),
        sample_rate_hz=1000.0)
    tracemalloc.start()
    try:
        detections = detect_stream(trace, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(detections) == 900
    assert peak < 4 * 2**20


def test_detect_triggers_memory_is_bounded_by_the_chunk():
    # trigger_windows scores the rumble windows of a block by row index;
    # the rows are gathered for scoring a chunk at a time, so even every
    # window of an hour given as one array stays near one chunk's spectra
    x = np.random.default_rng(0).standard_normal(3_600_000)
    n, k, sub, in_band = detection._geometry(1000.0, PARAMS)
    segs = detection._windows(x, n, k, sub)
    tracemalloc.start()
    try:
        runs = detection._max_runs(segs, in_band, np.arange(len(segs)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(runs) == 900
    assert peak < 4 * 2**20


@pytest.mark.parametrize("rate", [1000.0, 999.0])
def test_streamed_scoring_memory_is_bounded_by_the_block(rate):
    # an hour at 1 kHz is 28.8 MB as one trace; a rumble in its last
    # window has the whole hour drawn, and made and scored in blocks of 32
    # whole windows only the 1 MB block and one chunk's spectra are alive,
    # at 999 Hz as at 1 kHz. A first short stream keeps numpy's one-off FFT
    # set-up out of the peak
    events = [(3596.25, RumbleSpec(duration_s=3.5))]
    trigger_windows([(events, 3600.0, 0)], rate, PARAMS)
    tracemalloc.start()
    try:
        triggers = trigger_windows([(events, 3600.0, 0)], rate, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [d.window_index for d in triggers[0]] == [899]
    assert peak < 6 * 2**20


@pytest.mark.parametrize("window_s, rate, samples", [
    (4.0, 1000.0, 128_000), (4.0, 999.0, 127_872), (60.0, 1000.0, 120_000),
    (200.0, 1000.0, 200_000)])
def test_block_is_about_128000_samples_of_whole_windows(window_s, rate,
                                                        samples, draws):
    # whole windows, as many as fit in 128,000 samples, and one window when
    # none fits, so the block no longer grows with the window length. A
    # stream of two and a half blocks with a rumble in its last window
    # draws two full blocks and the rest, unless the rest holds no whole
    # window: no block past the last rumble window is drawn
    params = replace(PARAMS, window_s=window_s)
    n, total = int(round(window_s * rate)), int(2.5 * samples)
    last = total // n - 1
    events = [(last * n / rate + 0.25, RumbleSpec(duration_s=3.5))]
    (hits,) = trigger_windows([(events, total / rate, 0)], rate, params)
    assert [d.window_index for d in hits] == [last]
    rest = total - 2 * samples
    assert draws == [samples, samples] + [rest] * (rest >= n)


@st.composite
def run_thresholds(draw):
    """run_low from 1 to 32, so a trigger needs an in-band run of L = 2 to
    33 sub-segments, which no window of 32 holds at 33."""
    run_low = draw(st.integers(1, 32))
    return replace(PARAMS, run_low=run_low,
                   run_high=draw(st.integers(run_low + 1, 40)))


@st.composite
def rumble_streams(draw):
    """One to three streams of 1 to 8 windows plus a remainder at an awkward
    or easy rate, and a block length from 1 sample to three windows, which
    trigger_windows rounds down to 1 to 3 whole windows. Each stream has up
    to three rumbles of -8 to 22 dB that may overlap, straddle a block
    edge, or end at the stream end."""
    rate = draw(st.sampled_from([200.0, 999.0, 1000.0, 1001.0]))
    n = int(round(PARAMS.window_s * rate))
    block = draw(st.one_of(st.integers(1, 64), st.integers(1, 3 * n)))
    per = max(1, block // n)
    streams = []
    for _ in range(draw(st.integers(1, 3))):
        total_s = (draw(st.integers(1, 8)) * n
                   + draw(st.integers(0, n - 1))) / rate
        events = []
        for _ in range(draw(st.integers(0, 3))):
            duration = min(draw(st.floats(0.5, 5.0)), total_s)
            latest = total_s - duration
            place = draw(st.sampled_from(["any", "edge", "end"]))
            if place == "edge":
                edge_s = draw(st.integers(1, 8)) * per * n / rate
                onset = edge_s - draw(st.floats(0.0, duration))
            else:
                onset = draw(st.floats(0.0, 1.0)) * latest
            onset = latest if place == "end" else min(max(onset, 0.0),
                                                      latest)
            events.append((onset, RumbleSpec(
                duration_s=duration, snr_db=draw(st.floats(-8.0, 22.0)))))
        streams.append((events, total_s, draw(st.integers(0, 2**32 - 1))))
    return rate, block, streams


# two overlapping rumbles across the first window edge, blocks of one window
_TWO = (1000.0, 1, [([(3.9, RumbleSpec(duration_s=3.0, snr_db=20.0)),
                      (4.5, RumbleSpec(duration_s=2.0, snr_db=10.0))],
                     12.5, 3)])
# a chirp cut at the stream end: onset and length round up, to samples
# 4501 and 3500 of an 8000-sample stream, so its last sample is dropped
_CUT = (1000.0, 2000, [([(4.5005000001, RumbleSpec(3.4995000001, 20.0))],
                        8.0, 3)])


@settings(max_examples=60, deadline=None)
@given(rumble_streams(), run_thresholds())
@example(_TWO, PARAMS)
# window 1 of _TWO has a run of 23 and window 0 one of 1: each scores
# ds >= 1 exactly when its run exceeds run_low
@example(_TWO, replace(PARAMS, run_low=22, run_high=23))
@example(_TWO, replace(PARAMS, run_low=23, run_high=24))
@example(_TWO, replace(PARAMS, run_low=1, run_high=2))
@example((999.0, 3996, [([(0.2, RumbleSpec(duration_s=3.5, snr_db=20.0))],
                         8.0, 1), ([], 4.0, 2)]), PARAMS)
@example(_CUT, PARAMS)
# 40 blocks of one 800-sample window, ten rumbles of falling SNR
@example((200.0, 800, [([(4.0 * k + 0.25, RumbleSpec(3.5, snr_db=20.0 - k))
                         for k in range(0, 40, 4)], 160.0, 5)]), PARAMS)
def test_detect_triggers_is_the_scoring_windows_of_detect_stream(stream,
                                                                 params):
    # trigger_windows, its blocks shrunk so that streams cross block edges,
    # returns the windows of each whole stream's detect_stream that score
    # ds >= 1 and hold a rumble sample: those whose samples differ from the
    # same seed's stream with no rumble. Each keeps the run of the
    # per-window reference. One block buffer serves every stream of a
    # call, as in a scenario run
    rate, block, streams = stream
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detection, "BLOCK_SAMPLES", block)
        found = trigger_windows(streams, rate, params)
    n = int(round(params.window_s * rate))
    for (events, total_s, seed), hits in zip(streams, found):
        x = synth_rumble_stream(events, total_s, rate, seed).samples
        quiet = synth_rumble_stream([], total_s, rate, seed).samples
        assert hits == [
            d for d in detect_stream(
                Signal(samples=x, sample_rate_hz=rate), params) if d.ds >= 1
            and not np.array_equal(x[d.window_index * n:][:n],
                                   quiet[d.window_index * n:][:n])]
        for d in hits:
            assert d.max_run == stft_window_max_run(
                x[d.window_index * n:][:n], rate, params)


def test_a_chirp_span_is_cut_at_the_stream_end():
    # _CUT's 3,500 chirp samples from sample 4501 would end one past the
    # stream, so its span, and the windows it touches, stop at the end
    rate, _, [(events, total_s, seed)] = _CUT
    spans, _ = signals._rumble_blocks(events, total_s, rate, seed)
    assert len(signals.chirp_waveform(events[0][1], rate)) == 3500
    assert spans == [(4501, 8000)]


@settings(max_examples=40, deadline=None)
@given(rumble_streams(), run_thresholds())
def test_block_splits_change_nothing(stream, params):
    # the block function's blocks join to the whole trace bit for bit,
    # whatever their length, and trigger_windows gives the same windows
    # whatever its block
    rate, block, streams = stream
    for events, total_s, seed in streams:
        # the buffer is redrawn for the next block, so each is copied
        _, draw = signals._rumble_blocks(events, total_s, rate, seed)
        joined = np.concatenate([np.zeros(0), *(
            b.copy() for b in draw(np.empty(block)))])
        assert joined.tobytes() == synth_rumble_stream(
            events, total_s, rate, seed).samples.tobytes()
    whole = trigger_windows(streams, rate, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detection, "BLOCK_SAMPLES", block)
        assert trigger_windows(streams, rate, params) == whole


def _planted_runs(length, rate):
    """One window per offset of an in-band run of `length` sub-segments,
    the rest of the window out of band."""
    sub = int(round(SUBSEGMENT_S * rate))
    n = int(round(PARAMS.window_s * rate))
    k = min(n // sub, round(PARAMS.window_s / SUBSEGMENT_S))
    t = np.arange(sub) / rate
    inside, outside = (np.sin(2 * np.pi * f * t) for f in (30.0, 60.0))
    tail = np.zeros(n - k * sub)
    return [np.concatenate([inside if o <= j < o + length else outside
                            for j in range(k)] + [tail])
            for o in range(k - length + 1)]


@settings(max_examples=40, deadline=None)
@given(run_thresholds(), st.sampled_from([200.0, 999.0, 1000.0]))
@example(replace(PARAMS, run_low=1, run_high=2), 1000.0)
@example(PARAMS, 1000.0)
@example(replace(PARAMS, run_low=15, run_high=16), 1000.0)
@example(replace(PARAMS, run_low=16, run_high=17), 1000.0)
@example(replace(PARAMS, run_low=31, run_high=32), 1000.0)
@example(replace(PARAMS, run_low=32, run_high=33), 1000.0)
@example(replace(PARAMS, run_low=30, run_high=31), 999.0)
@example(replace(PARAMS, run_low=32, run_high=33), 999.0)
def test_detect_triggers_finds_every_planted_run_of_l(params, rate):
    # an in-band run of L - 1 sub-segments never triggers and one of L
    # always does, wherever it sits in the window; a silent window closes
    # the trace, which has no other window once L - 1 exceeds k. The
    # triggering windows, scored by row index as trigger_windows scores
    # its rumble windows, keep the run of the per-window reference
    L = params.run_low + 1
    short, full = _planted_runs(L - 1, rate), _planted_runs(L, rate)
    n, k, sub, in_band = detection._geometry(rate, params)
    x = np.concatenate(short + full + [np.zeros(n)])
    hits = [d for d in detect_stream(Signal(samples=x, sample_rate_hz=rate),
                                     params) if d.ds >= 1]
    rows = np.array([d.window_index for d in hits], dtype=int)
    assert rows.tolist() == list(range(len(short), len(short) + len(full)))
    assert detection._max_runs(detection._windows(x, n, k, sub), in_band,
                               rows).tolist() == [L] * len(hits)
    for d in hits:
        assert d.max_run == L == stft_window_max_run(
            x[d.window_index * n:][:n], rate, params)


def test_oracle_finds_one_event_with_tight_bounds():
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=4, total_s=15.0, onset_s=5.3)
    events = stft_oracle_detect(trace)
    assert len(events) == 1
    ev = events[0]
    assert ev.t_start_s == pytest.approx(5.3, abs=0.7)
    assert ev.t_end_s == pytest.approx(8.8, abs=0.7)
    assert ev.duration_s >= 3.0


def test_oracle_finds_two_separated_events():
    events_in = [(2.0, RumbleSpec(duration_s=3.2, snr_db=20.0)),
                 (10.0, RumbleSpec(duration_s=4.0, snr_db=20.0))]
    trace = synth_rumble_stream(events_in, total_s=18.0, seed=1)
    events = stft_oracle_detect(trace)
    assert len(events) == 2
    assert events[0].t_start_s < events[1].t_start_s


def test_oracle_ignores_short_bursts():
    trace = synth_rumble(RumbleSpec(duration_s=2.0, snr_db=20.0),
                         seed=5, total_s=10.0, onset_s=4.0)
    assert stft_oracle_detect(trace, min_event_s=3.0) == []


def test_oracle_rejects_a_nan_or_negative_min_event():
    # NaN compares false with every length, so it would keep every blip
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=3, total_s=12.0, onset_s=4.25)
    for bad in (float("nan"), -1.0):
        with pytest.raises(InvalidInputError, match=f"min_event_s must be "
                           f"non-negative, got {bad!r}"):
            stft_oracle_detect(trace, min_event_s=bad)
    assert len(stft_oracle_detect(trace, min_event_s=0.0)) >= 1


@st.composite
def tracker_traces(draw):
    """A trace of one FFT chunk of tracker frames, one fewer or one more,
    plus a part of a hop, at an awkward or easy rate, with up to three
    rumbles between -8 and 22 dB and a non-zero start time."""
    rate = draw(st.sampled_from([200.0, 999.0, 1000.0, 1001.0]))
    frame = int(round(ORACLE_FRAME_S * rate))
    hop = int(round(ORACLE_HOP_S * rate))
    frames = chunk_frames(frame) + draw(st.sampled_from([-1, 0, 1]))
    total_s = (frame + (frames - 1) * hop + draw(st.integers(0, hop - 1))) / rate
    events = []
    for _ in range(draw(st.integers(0, 3))):
        duration = draw(st.floats(0.5, 8.0))
        onset = draw(st.floats(0.0, 1.0)) * (total_s - duration)
        events.append((onset, RumbleSpec(duration_s=duration,
                                         snr_db=draw(st.floats(-8.0, 22.0)))))
    trace = synth_rumble_stream(events, total_s, rate,
                                seed=draw(st.integers(0, 2**32 - 1)))
    return Signal(samples=trace.samples, sample_rate_hz=rate,
                  start_time_s=draw(st.floats(0.5, 1e5)))


@settings(max_examples=40, deadline=None)
@given(tracker_traces(), st.floats(0.0, 5.0))
def test_tracker_matches_the_spectrogram_tracker(trace, min_event_s):
    assert stft_oracle_detect(trace, min_event_s) == stft_tracker_events(
        trace, min_event_s)


def _probe_spacing(min_event_s, rate, hop):
    """The tracker's probe spacing L for min_event_s up to 6 s."""
    span = (min(min_event_s, 6.0) - ORACLE_FRAME_S) * rate / hop
    return max(1, math.floor(span))


@st.composite
def screened_tracker_cases(draw):
    """A trace of 2 to 8 FFT chunks of tracker frames, at an awkward or
    easy rate, with rumbles of 0.5 to 12 s that start and end a frame or
    two from a probe frame, and a min_event_s in [0, 6] or infinite."""
    rate = draw(st.sampled_from([200.0, 999.0, 1000.0, 1001.0]))
    min_event_s = draw(st.one_of(st.floats(0.0, 6.0), st.just(math.inf)))
    frame = int(round(ORACLE_FRAME_S * rate))
    hop = int(round(ORACLE_HOP_S * rate))
    count = chunk_frames(frame) * draw(st.integers(2, 8)) + draw(
        st.sampled_from([-1, 0, 1]))
    total_s = (frame + (count - 1) * hop + draw(st.integers(0, hop - 1))) / rate
    L = _probe_spacing(min_event_s, rate, hop)
    events = []
    for _ in range(draw(st.integers(0, 4))):
        edges = [(draw(st.integers(1, count // L)) * L - 1
                  + draw(st.integers(-2, 2))) * hop / rate for _ in range(2)]
        duration = min(max(abs(edges[1] - edges[0]), 0.5), 12.0)
        onset = min(max(min(edges), 0.0), total_s - duration)
        events.append((onset, RumbleSpec(duration_s=duration,
                                         snr_db=draw(st.floats(-5.0, 20.0)))))
    trace = synth_rumble_stream(events, total_s, rate,
                                seed=draw(st.integers(0, 2**32 - 1)))
    return Signal(samples=trace.samples, sample_rate_hz=rate,
                  start_time_s=draw(st.floats(0.5, 1e5))), min_event_s


@settings(max_examples=30, deadline=None)
@given(screened_tracker_cases())
def test_screened_tracker_matches_the_spectrogram_tracker(case):
    trace, min_event_s = case
    assert stft_oracle_detect(trace, min_event_s) == stft_tracker_events(
        trace, min_event_s)


def test_tracker_keeps_an_event_of_exactly_min_event_s():
    trace = synth_rumble(RumbleSpec(duration_s=4.0, snr_db=20.0),
                         seed=3, total_s=100.0, onset_s=62.5)
    # at 0 s every noise blip is an event too; the rumble is the longest
    event = max(stft_oracle_detect(trace, 0.0), key=lambda e: e.duration_s)
    assert stft_oracle_detect(trace, event.duration_s) == [event]
    assert stft_oracle_detect(
        trace, math.nextafter(event.duration_s, math.inf)) == []
    assert stft_oracle_detect(trace, math.inf) == []


def test_tracker_scores_a_fraction_of_the_frames(monkeypatch):
    # 600 s at 1 kHz is 4,797 frames; six events of 4 s open a few gaps of
    # L = 20 frames around their probes, and the rest stays out of band
    rows_scored = []
    kernel = detection._in_band_flags

    def counting(frames, in_band, rows=None, *args):
        rows_scored.append(len(frames) if rows is None else len(rows))
        return kernel(frames, in_band, rows, *args)

    events = [(50.0 + 100.0 * k, RumbleSpec(duration_s=4.0, snr_db=10.0))
              for k in range(6)]
    trace = synth_rumble_stream(events, 600.0, 1000.0, seed=1)
    monkeypatch.setattr(detection, "_in_band_flags", counting)
    found = stft_oracle_detect(trace)
    assert len(found) == 6
    assert sum(rows_scored) <= 4797 // 4
    assert found == stft_tracker_events(trace, 3.0)


def test_tracker_memory_does_not_grow_with_the_trace():
    # an hour at 1 kHz is 28,797 frames; its whole spectrogram took about
    # 786 MiB, one chunk of 63 frames (1 MiB of spectra) about 3 MiB
    trace = Signal(
        samples=np.random.default_rng(0).standard_normal(3_600_000),
        sample_rate_hz=1000.0)
    tracemalloc.start()
    try:
        stft_oracle_detect(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tracker_rejects_a_trace_shorter_than_one_frame():
    short = Signal(samples=np.ones(499), sample_rate_hz=1000.0)
    with pytest.raises(InvalidInputError,
                       match="^signal shorter than one frame$"):
        stft_oracle_detect(short)


@pytest.mark.parametrize("rate", [1.0, 3.0, 3.99])
def test_tracker_rejects_a_rate_below_one_sample_per_hop(rate):
    # below 4 Hz a 0.125 s hop rounds to no sample
    trace = Signal(samples=np.ones(100), sample_rate_hz=rate)
    with pytest.raises(InvalidInputError,
                       match="^frame_s and hop_s too small for the rate$"):
        stft_oracle_detect(trace)


def test_match_and_recall_counts_overlaps():
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=7, total_s=12.0, onset_s=4.25)
    detections = detect_stream(trace, PARAMS)
    events = stft_oracle_detect(trace)
    report = match_and_recall(detections, events, window_s=PARAMS.window_s)
    assert report.oracle_count == 1
    assert report.matched_count == 1
    assert report.recall == 1.0


def test_match_and_recall_no_events_is_not_applicable():
    trace = Signal(samples=np.random.default_rng(0).standard_normal(8000),
                   sample_rate_hz=1000.0)
    detections = detect_stream(trace, PARAMS)
    report = match_and_recall(detections, [], window_s=PARAMS.window_s)
    assert report.oracle_count == 0
    assert report.recall is None


def test_match_and_recall_ds_min_filter():
    ev = RumbleEvent(t_start_s=0.5, t_end_s=3.5)
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=2, total_s=4.0, onset_s=0.25)
    detections = detect_stream(trace, PARAMS)
    assert detections[0].ds == 2
    strict = match_and_recall(detections, [ev], ds_min=2,
                              window_s=PARAMS.window_s)
    assert strict.recall == 1.0
    # a score is 0, 1 or 2, so a threshold of 0 or 3 matches everything
    # or nothing
    for ds_min in (0, 3):
        with pytest.raises(InvalidInputError, match=f"got {ds_min}"):
            match_and_recall(detections, [ev], ds_min=ds_min,
                             window_s=PARAMS.window_s)


def test_params_validation():
    with pytest.raises(InvalidInputError, match=re.escape(
            "window_s 4.1 must hold a whole number of 0.125 s sub-segments")):
        Algorithm1Params(window_s=4.1)
    with pytest.raises(InvalidInputError):
        Algorithm1Params(run_low=24, run_high=6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=32))
def test_score_agrees_with_run_oracle(flags):
    run = longest_true_run(flags)
    ds = score_from_run(run, PARAMS)
    if ds == 2:
        assert run >= 24
    elif ds == 1:
        assert 6 < run < 24
    else:
        assert run <= 6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 32), st.integers(0, 32))
def test_score_is_monotone_in_run(a, b):
    lo, hi = sorted((a, b))
    assert score_from_run(lo, PARAMS) <= score_from_run(hi, PARAMS)
