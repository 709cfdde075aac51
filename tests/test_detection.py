import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecsim.detection import (FFT_CHUNK_FRAMES, ORACLE_FRAME_S, ORACLE_HOP_S,
                              Algorithm1Params, RumbleEvent, TriggerScreen,
                              WindowDetection, detect_stream, match_and_recall,
                              score_from_run, stft_oracle_detect)
from hecsim.errors import InvalidInputError
from hecsim.signals import (RumbleSpec, Signal, synth_rumble,
                            synth_rumble_blocks, synth_rumble_stream)
from oracles import (longest_true_run, naive_peak_frequency,
                     stft_tracker_events, stft_window_max_run)

PARAMS = Algorithm1Params()


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
    """A trigger screen on a whole trace, given as a stream of one block."""
    return TriggerScreen(trace.sample_rate_hz, params)([trace.samples],
                                                       trace.start_time_s)


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


@pytest.mark.parametrize("blocks", [[], [np.zeros(0)], [np.zeros(0)] * 3],
                         ids=["no_block", "one_empty_block",
                              "three_empty_blocks"])
def test_empty_stream_scores_nothing(blocks):
    # a stream holds no window until its blocks fill one, so a stream of
    # no sample is scored like one shorter than a window
    assert TriggerScreen(1000.0, PARAMS)(blocks) == []


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_stream_rate_must_be_positive_and_finite(rate):
    with pytest.raises(InvalidInputError, match="sample rate must be"):
        TriggerScreen(rate, PARAMS)


@BOTH_SCORERS
def test_window_shorter_than_one_sample_rejected(score):
    tiny = Algorithm1Params(window_s=1e-4, subsegment_s=1e-4)
    with pytest.raises(InvalidInputError, match="shorter than one sample"):
        score(Signal(samples=np.zeros(100), sample_rate_hz=1000.0), tiny)


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
            PARAMS.band_low_hz
            < naive_peak_frequency(seg, rate, pad_to=128)
            < PARAMS.band_high_hz
            for seg in np.split(trace.samples[i0:i0 + n],
                                PARAMS.subsegments_per_window)]
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


def test_flat_spectrum_ties_go_to_the_lowest_bin():
    # every bin of a silent sub-segment ties at zero; with a band around
    # the lowest bin (1.95 Hz at 1 kHz) only the lowest-bin rule counts it
    low = Algorithm1Params(band_low_hz=1.0, band_high_hz=3.0)
    silent = Signal(samples=np.zeros(3 * 4000 + 7), sample_rate_hz=1000.0)
    assert [d.max_run for d in detect_stream(silent, low)] == [32, 32, 32]
    assert stft_window_max_run(np.zeros(4000), 1000.0, low) == 32


def test_detect_stream_memory_is_bounded_by_the_chunk():
    # one hour at 1 kHz is 900 windows; scoring them in one batch would
    # take over 100 MiB of spectra, a chunk of 8 windows about 3 MiB
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
    # the screen takes 64 windows at 4 sub-segments each per FFT, and the
    # survivors are gathered for full scoring a chunk at a time; an hour
    # given as one block makes one FFT scratch
    trace = Signal(
        samples=np.random.default_rng(0).standard_normal(3_600_000),
        sample_rate_hz=1000.0)
    tracemalloc.start()
    try:
        triggers_of(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("rate", [1000.0, 999.0])
def test_streamed_scoring_memory_is_bounded_by_the_block(rate):
    # an hour at 1 kHz is 28.8 MB as one trace; made and scored in blocks
    # of block_samples, 32 whole windows, only the two 1 MB block slots
    # and the FFT scratch are alive, at 999 Hz as at 1 kHz. A first short
    # stream keeps numpy's one-off FFT set-up out of the peak
    TriggerScreen(rate, PARAMS)([np.zeros(8000)])
    tracemalloc.start()
    try:
        screen = TriggerScreen(rate, PARAMS)
        out = np.empty((2, screen.block_samples))
        triggers = screen(synth_rumble_blocks([], 3600.0, sample_rate_hz=rate,
                                              seed=0, out=out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triggers == []
    assert peak < 6 * 2**20


@pytest.mark.parametrize("window_s, rate, samples", [
    (4.0, 1000.0, 128_000), (4.0, 999.0, 127_872), (60.0, 1000.0, 120_000),
    (200.0, 1000.0, 200_000)])
def test_block_is_about_128000_samples_of_whole_windows(window_s, rate,
                                                        samples):
    # whole windows, as many as fit in 128,000 samples, and one window when
    # none fits, so the block no longer grows with the window length
    params = replace(PARAMS, window_s=window_s)
    assert TriggerScreen(rate, params).block_samples == samples


def _check_triggers(trace, params):
    """The trigger screen returns detect_stream's ds >= 1 windows, each with
    the per-window reference's run; returns the hits."""
    hits = triggers_of(trace, params)
    assert hits == [d for d in detect_stream(trace, params) if d.ds >= 1]
    n = int(round(params.window_s * trace.sample_rate_hz))
    for d in hits:
        i0 = d.window_index * n
        assert d.max_run == stft_window_max_run(
            trace.samples[i0:i0 + n], trace.sample_rate_hz, params)
    return hits


@st.composite
def run_thresholds(draw):
    """run_low from 1 to 32, so a trigger needs an in-band run of L = 2 to
    33 sub-segments: from 16 screened columns of 32 to one (L > 16) or none
    (L > 32)."""
    run_low = draw(st.integers(1, 32))
    return replace(PARAMS, run_low=run_low,
                   run_high=draw(st.integers(run_low + 1, 40)))


@settings(max_examples=60, deadline=None)
@given(seismic_traces(), run_thresholds())
@example(_three_windows_of(np.sin(2 * np.pi * 30.0 * _T)), PARAMS)
@example(_three_windows_of(np.sin(2 * np.pi * 30.0 * _T)),
         replace(PARAMS, run_low=32, run_high=33))
@example(_three_windows_of(np.sin(2 * np.pi * 30.0 * _T999), rate=999.0),
         replace(PARAMS, run_low=30, run_high=31))
def test_detect_triggers_is_the_scoring_windows_of_detect_stream(trace,
                                                                 params):
    _check_triggers(trace, params)


@st.composite
def block_streams(draw):
    """A trace of 1 to 6 windows plus a remainder at an awkward or easy
    rate, with up to three rumbles that may overlap, a non-zero start time,
    a synthesis block length from 1 sample to three windows, a screen block
    of 1 to 3 whole windows, and up to eight cuts at window edges, so the
    last block holds the remainder."""
    rate = draw(st.sampled_from([200.0, 999.0, 1000.0, 1001.0]))
    n = int(round(PARAMS.window_s * rate))
    windows = draw(st.integers(1, 6))
    total_s = (windows * n + draw(st.integers(0, n - 1))) / rate
    events = []
    for _ in range(draw(st.integers(0, 3))):
        duration = min(draw(st.floats(0.5, 5.0)), total_s)
        onset = draw(st.floats(0.0, 1.0)) * (total_s - duration)
        events.append((onset, RumbleSpec(duration_s=duration,
                                         snr_db=draw(st.floats(-8.0, 22.0)))))
    synth = dict(events=events, total_s=total_s, sample_rate_hz=rate,
                 seed=draw(st.integers(0, 2**32 - 1)))
    block = draw(st.one_of(st.integers(1, 64), st.integers(1, 3 * n)))
    cuts = sorted(draw(st.lists(st.integers(0, windows), max_size=8)))
    return (synth, block, draw(st.integers(1, 3)), cuts,
            draw(st.floats(0.5, 1e5)))


@settings(max_examples=40, deadline=None)
@given(block_streams(), run_thresholds())
@example(({"events": [(3.9, RumbleSpec(duration_s=3.0, snr_db=20.0)),
                      (4.5, RumbleSpec(duration_s=2.0, snr_db=10.0))],
           "total_s": 12.5, "sample_rate_hz": 1000.0, "seed": 3},
          1, 1, [0, 1, 1, 3], 7.25), PARAMS)
@example(({"events": [(0.2, RumbleSpec(duration_s=3.5, snr_db=20.0))],
           "total_s": 8.0, "sample_rate_hz": 999.0, "seed": 1},
          3996, 2, [], 2.0), PARAMS)
def test_block_splits_change_nothing(stream, params):
    # the blocks join to the whole trace bit for bit, whatever their
    # length, and scoring the trace in blocks of whole windows gives the
    # ds >= 1 windows of the whole trace, on its timeline; one pair of
    # block slots and one screen serve every stream, as in a scenario run,
    # so each stream is made and scored twice
    synth, block, screen_windows, cuts, start_s = stream
    whole = synth_rumble_stream(**synth)
    rate = whole.sample_rate_hz
    n = int(round(params.window_s * rate))
    expected = [d for d in detect_stream(
        replace(whole, start_time_s=start_s), params) if d.ds >= 1]
    out, screen = np.empty((2, block)), TriggerScreen(rate, params)
    screen_out = np.empty((2, screen_windows * n))
    for _ in range(2):
        # a slot is redrawn once the next block is asked for, so each block
        # is copied
        joined = np.concatenate([np.zeros(0), *(
            b.copy() for b in synth_rumble_blocks(**synth, out=out))])
        assert joined.tobytes() == whole.samples.tobytes()
        assert screen(synth_rumble_blocks(**synth, out=screen_out),
                      start_s) == expected
        assert screen(np.split(whole.samples, [c * n for c in cuts]),
                      start_s) == expected


@pytest.mark.parametrize("rate", [1000.0, 999.0])
@pytest.mark.parametrize("cut", [-1, 1], ids=["before_edge", "after_edge"])
def test_block_ending_inside_a_window_is_rejected(rate, cut):
    # a block before the last must hold whole windows; one that ends a
    # sample off a window edge is not joined to the next
    screen = TriggerScreen(rate, PARAMS)
    n = int(round(PARAMS.window_s * rate))
    x = np.zeros(3 * n)
    window, tail = divmod(n + cut, n)
    with pytest.raises(InvalidInputError, match=(
            f"ends inside window {window}, after {tail} of its {n} samples")):
        screen(np.split(x, [n + cut]))
    # the same samples as a last block leave a remainder, which is ignored
    assert screen([x[:n + cut]]) == []


def _planted_runs(length, rate):
    """One window per offset of an in-band run of `length` sub-segments,
    the rest of the window out of band."""
    sub = int(round(PARAMS.subsegment_s * rate))
    n = int(round(PARAMS.window_s * rate))
    k = min(n // sub, PARAMS.subsegments_per_window)
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
    # the trace, which has no other window once L - 1 exceeds k
    L = params.run_low + 1
    short, full = _planted_runs(L - 1, rate), _planted_runs(L, rate)
    silent = np.zeros(int(round(params.window_s * rate)))
    trace = Signal(samples=np.concatenate(short + full + [silent]),
                   sample_rate_hz=rate)
    hits = _check_triggers(trace, params)
    assert [d.window_index for d in hits] == list(
        range(len(short), len(short) + len(full)))
    assert all(d.max_run == L for d in hits)


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
    frames = FFT_CHUNK_FRAMES + draw(st.sampled_from([-1, 0, 1]))
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


def test_tracker_memory_does_not_grow_with_the_trace():
    # an hour at 1 kHz is 28,797 frames; its whole spectrogram took about
    # 786 MiB, one chunk of 256 frames takes a few
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
    with pytest.raises(InvalidInputError):
        Algorithm1Params(window_s=4.0, subsegment_s=0.3)  # not a divisor
    with pytest.raises(InvalidInputError):
        Algorithm1Params(band_low_hz=40.0, band_high_hz=20.0)
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
