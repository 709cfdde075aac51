import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecsim.detection import (Algorithm1Params, RumbleEvent, WindowDetection,
                              detect_stream, detect_window, match_and_recall,
                              score_from_run, stft_oracle_detect)
from hecsim.errors import InvalidInputError
from hecsim.signals import (RumbleSpec, SeismicTrace, synth_rumble,
                            synth_rumble_stream)
from oracles import (longest_true_run, naive_peak_frequency,
                     stft_window_max_run)

PARAMS = Algorithm1Params()


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
    det = detect_window(trace, PARAMS)
    assert det.ds == 2
    assert det.max_run >= PARAMS.run_high


def test_detect_window_out_of_band_tone_scores_zero():
    t = np.arange(4000) / 1000.0
    tone = SeismicTrace(samples=np.sin(2 * np.pi * 10.0 * t),
                        sample_rate_hz=1000.0)
    assert detect_window(tone, PARAMS).ds == 0


def test_detect_window_silence_scores_zero():
    silent = SeismicTrace(samples=np.zeros(4000), sample_rate_hz=1000.0)
    det = detect_window(silent, PARAMS)
    assert det.ds == 0
    assert det.max_run == 0


def test_detect_window_wrong_length_rejected():
    with pytest.raises(InvalidInputError):
        detect_window(SeismicTrace(samples=np.zeros(3900),
                                   sample_rate_hz=1000.0), PARAMS)


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
    second = SeismicTrace(samples=trace.samples[4000:8000],
                          sample_rate_hz=1000.0, start_time_s=4.0)
    assert detections[1] == replace(detect_window(second, PARAMS),
                                    window_index=1)
    assert detections[1].ds == 2


def test_detect_stream_short_trace_yields_nothing():
    short = SeismicTrace(samples=np.zeros(100), sample_rate_hz=1000.0)
    assert detect_stream(short, PARAMS) == []


def test_detect_stream_empty_trace_rejected():
    with pytest.raises(InvalidInputError, match="empty"):
        detect_stream(SeismicTrace(samples=np.zeros(0),
                                   sample_rate_hz=1000.0), PARAMS)
    tiny = Algorithm1Params(window_s=1e-4, subsegment_s=1e-4)
    with pytest.raises(InvalidInputError, match="shorter than one sample"):
        detect_stream(SeismicTrace(samples=np.zeros(100),
                                   sample_rate_hz=1000.0), tiny)


def test_band_edges_are_strict():
    # a tone exactly on the 20 Hz band edge must not count as in-band
    t = np.arange(4000) / 1000.0
    edge = SeismicTrace(samples=np.sin(2 * np.pi * 20.0 * t),
                        sample_rate_hz=1000.0)
    det = detect_window(edge, PARAMS)
    assert det.max_run == 0
    inside = SeismicTrace(samples=np.sin(2 * np.pi * 30.0 * t),
                          sample_rate_hz=1000.0)
    assert detect_window(inside, PARAMS).ds == 2


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
        samples = trace.samples[i0:i0 + n]
        in_band = [
            PARAMS.band_low_hz
            < naive_peak_frequency(seg, rate, pad_to=128)
            < PARAMS.band_high_hz
            for seg in np.split(samples, PARAMS.subsegments_per_window)]
        expected = longest_true_run(in_band)
        window = SeismicTrace(samples=samples, sample_rate_hz=rate)
        assert detect_window(window, PARAMS).max_run == expected
        runs.append(expected)
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
    return SeismicTrace(samples=trace.samples, sample_rate_hz=rate,
                        start_time_s=draw(st.floats(0.0, 1e5)))


def _three_windows_of(samples):
    return SeismicTrace(samples=np.concatenate([samples] * 3),
                        sample_rate_hz=1000.0, start_time_s=2.0)


_T = np.arange(4000) / 1000.0


@settings(max_examples=60, deadline=None)
@given(seismic_traces())
@example(_three_windows_of(np.zeros(4000)))
@example(_three_windows_of(np.full(4000, 3.0)))
@example(_three_windows_of(np.sin(2 * np.pi * 20.0 * _T)))
@example(_three_windows_of(np.sin(2 * np.pi * 40.0 * _T)))
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
    for m in (n - 1, n, n + 1):
        if m <= len(x):
            det = detect_window(SeismicTrace(samples=x[:m], sample_rate_hz=rate,
                                             start_time_s=trace.start_time_s),
                                PARAMS)
            assert det.max_run == stft_window_max_run(x[:m], rate, PARAMS)


def test_flat_spectrum_ties_go_to_the_lowest_bin():
    # every bin of a silent sub-segment ties at zero; with a band around
    # the lowest bin (1.95 Hz at 1 kHz) only the lowest-bin rule counts it
    low = Algorithm1Params(band_low_hz=1.0, band_high_hz=3.0)
    silent = SeismicTrace(samples=np.zeros(3 * 4000 + 7), sample_rate_hz=1000.0)
    assert [d.max_run for d in detect_stream(silent, low)] == [32, 32, 32]
    assert stft_window_max_run(np.zeros(4000), 1000.0, low) == 32


def test_detect_stream_memory_is_bounded_by_the_chunk():
    # one hour at 1 kHz is 900 windows; scoring them in one batch would
    # take over 100 MiB of spectra, a chunk of 8 windows about 3 MiB
    trace = SeismicTrace(
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


def test_oracle_rise_fall_filter():
    rising_only = RumbleSpec(duration_s=3.6, f_start_hz=21.0, f_peak_hz=39.0,
                             f_end_hz=39.0)
    trace = synth_rumble(rising_only, seed=6, total_s=10.0, onset_s=3.0)
    loose = stft_oracle_detect(trace)
    strict = stft_oracle_detect(trace, require_rise_fall=True)
    assert len(loose) == 1
    assert strict == []
    proper = synth_rumble(RumbleSpec(duration_s=3.6, snr_db=20.0),
                          seed=6, total_s=10.0, onset_s=3.0)
    assert len(stft_oracle_detect(proper, require_rise_fall=True)) == 1


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
    trace = SeismicTrace(samples=np.random.default_rng(0).standard_normal(8000),
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
    impossible = match_and_recall(
        [d for d in detections], [ev], ds_min=3, window_s=PARAMS.window_s)
    assert impossible.recall == 0.0


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
