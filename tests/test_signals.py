import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecsim.detection import detect_stream, trigger_windows
from hecsim.deterrent import generate_pink_noise
from hecsim.errors import InvalidInputError
from hecsim.signals import (FFT_CHUNK_BYTES, RumbleSpec, Signal, Spectrogram,
                            chirp_waveform, compute_stft, default_pad_length,
                            frame_spectra, next_pow2, sliding_frames,
                            synth_bee_buzz, synth_rumble, synth_rumble_stream)
from oracles import (naive_dft_magnitudes, one_batch_stft_magnitudes,
                     rumble_instantaneous_freq)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(500) == 512
    assert next_pow2(512) == 512


def test_default_pad_length_is_at_least_four_times_signal():
    for n in (31, 125, 128, 1000):
        padded = default_pad_length(n)
        assert padded >= 4 * n
        assert padded & (padded - 1) == 0  # a power of two


def rect_stft(samples, rate, frame_s, hop_s):
    """compute_stft with no window: frame_spectra's spectra of the frames
    sliding_frames makes."""
    frames, hop = sliding_frames(samples, rate, frame_s, hop_s)
    mags = np.concatenate([m[:, 0].copy() for _, m in frame_spectra(frames)])
    pad = default_pad_length(frames.shape[2])
    return Spectrogram(frame_times_s=np.arange(len(frames)) * hop / rate,
                       freqs_hz=np.fft.rfftfreq(pad, 1.0 / rate)[1:],
                       magnitudes=mags)


def one_frame(samples, rate):
    """Spectrogram of a single rectangular frame spanning the whole signal."""
    return rect_stft(samples, rate, len(samples) / rate, len(samples) / rate)


def peak_hz(gram):
    """Peak frequency of the first frame."""
    return float(gram.freqs_hz[int(np.argmax(gram.magnitudes[0]))])


def test_spectrum_matches_naive_dft():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(48)
    gram = one_frame(samples, 400.0)
    freqs, mags = naive_dft_magnitudes(samples, 400.0,
                                       pad_to=default_pad_length(48))
    assert gram.magnitudes.shape == (1, len(mags))
    assert np.allclose(gram.freqs_hz, freqs, atol=1e-9)
    assert np.allclose(gram.magnitudes[0], mags, atol=1e-6)


def test_spectrum_excludes_dc_and_removes_mean():
    gram = one_frame(np.ones(64) * 5.0, 64.0)  # pure offset
    assert gram.freqs_hz[0] > 0.0
    assert np.all(gram.magnitudes < 1e-9)


def test_peak_frequency_exact_for_on_grid_tone():
    fs, n = 1024.0, 128  # pads to 512: 2 Hz bins; 30 Hz falls on bin 15
    t = np.arange(n) / fs
    gram = one_frame(np.sin(2 * np.pi * 30.0 * t), fs)
    assert peak_hz(gram) == pytest.approx(30.0, abs=1e-9)


def test_stft_frame_count_and_times():
    trace = Signal(samples=np.zeros(4000), sample_rate_hz=1000.0)
    gram = compute_stft(trace, frame_s=0.5, hop_s=0.125)
    assert len(gram.frame_times_s) == 29  # floor((4 - 0.5)/0.125) + 1
    assert gram.frame_times_s[0] == 0.0
    assert gram.frame_times_s[1] == pytest.approx(0.125)
    assert gram.frame_times_s[-1] == pytest.approx(3.5)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("rate, window_fn", [(1000.0, "hann"),
                                             (1000.0, "rect"),
                                             (8000.0, "hann")])
def test_chunked_stft_equals_one_batch(rate, window_fn, extra):
    # a chunk is the frames whose complex spectra fill FFT_CHUNK_BYTES at
    # this rate's pad length (63 frames at 1 kHz, 15 at 8 kHz); one frame
    # short of a whole chunk, a whole chunk, and one frame over. compute_stft
    # takes a Hann window; the kernel with none stands for "rect"
    frame_s, hop_s = 0.064, 0.024
    frame, hop = round(frame_s * rate), round(hop_s * rate)
    chunk = FFT_CHUNK_BYTES // (16 * (default_pad_length(frame) // 2 + 1))
    n_frames = chunk + extra
    x = np.random.default_rng(n_frames).standard_normal(
        (n_frames - 1) * hop + frame)
    gram = (compute_stft(Signal(samples=x, sample_rate_hz=rate), frame_s,
                         hop_s) if window_fn == "hann"
            else rect_stft(x, rate, frame_s, hop_s))
    want = one_batch_stft_magnitudes(x, rate, frame_s, hop_s, window_fn)
    assert gram.magnitudes.shape == want.shape == (n_frames, len(gram.freqs_hz))
    assert np.array_equal(gram.magnitudes, want)


@pytest.mark.parametrize("m, cols", [(125, 1), (125, 4), (125, 32), (500, 1),
                                     (25, 32), (4000, 3), (4000, 8)])
def test_each_fft_call_takes_the_whole_rows_of_one_chunk(m, cols,
                                                         monkeypatch):
    # as many whole rows as FFT_CHUNK_BYTES of complex spectrum holds, one
    # row at least when a row holds more (4000 samples pad to 16,384: 7
    # frames a chunk), then a last call of what is left
    pad = default_pad_length(m)
    chunk = FFT_CHUNK_BYTES // (16 * (pad // 2 + 1))
    per_call = max(1, chunk // cols)
    shapes, rfft = [], np.fft.rfft

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    frames = np.random.default_rng(m).standard_normal(
        (2 * per_call + 1, cols, m))
    got = [(i, mags.shape) for i, mags in frame_spectra(frames)]
    assert shapes == [(per_call, cols, pad)] * 2 + [(1, cols, pad)]
    assert got == [(0, (per_call, cols, pad // 2)),
                   (per_call, (per_call, cols, pad // 2)),
                   (2 * per_call, (1, cols, pad // 2))]


def test_stft_too_short_signal_rejected():
    trace = Signal(samples=np.zeros(100), sample_rate_hz=1000.0)
    with pytest.raises(InvalidInputError):
        compute_stft(trace, frame_s=0.5, hop_s=0.125)


def test_stft_rejects_a_bad_frame_or_hop():
    trace = Signal(samples=np.zeros(4000), sample_rate_hz=1000.0)
    for bad in (float("nan"), float("inf"), -0.5):
        with pytest.raises(InvalidInputError, match=f"frame_s must be "
                           f"non-negative and finite, got {bad!r}"):
            compute_stft(trace, frame_s=bad, hop_s=0.125)
        with pytest.raises(InvalidInputError, match=f"hop_s must be "
                           f"non-negative and finite, got {bad!r}"):
            compute_stft(trace, frame_s=0.5, hop_s=bad)


def test_stft_tracks_chirp_frequency():
    wave = chirp_waveform(RumbleSpec(duration_s=4.0), 1000.0)
    trace = Signal(samples=wave, sample_rate_hz=1000.0)
    gram = compute_stft(trace, frame_s=0.5, hop_s=0.125)
    for i, t0 in enumerate(gram.frame_times_s):
        mid = t0 + 0.25  # frame center
        expected = rumble_instantaneous_freq(mid, 4.0, 20.0, 40.0, 20.0)
        observed = gram.freqs_hz[int(np.argmax(gram.magnitudes[i]))]
        assert observed == pytest.approx(expected, abs=2.5)


def test_containers_need_a_positive_finite_rate():
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match=f"got {rate!r}"):
            Signal(samples=np.zeros(10), sample_rate_hz=rate)


def test_synth_rumble_snr_definition():
    # noise-only region before onset measures the noise floor; the chirp
    # region must sit snr_db above it
    spec = RumbleSpec(duration_s=3.0, snr_db=20.0)
    trace = synth_rumble(spec, sample_rate_hz=1000.0, seed=1,
                         total_s=10.0, onset_s=5.0)
    assert len(trace.samples) == 10000
    noise = trace.samples[:4500]
    chirp = chirp_waveform(spec, 1000.0)
    chirp_rms = float(np.sqrt(np.mean(chirp ** 2)))
    noise_rms = float(np.sqrt(np.mean(noise ** 2)))
    measured_snr = 20 * np.log10(chirp_rms / noise_rms)
    assert measured_snr == pytest.approx(20.0, abs=0.5)


def test_synth_rumble_stream_places_events():
    events = [(2.0, RumbleSpec(duration_s=3.0, snr_db=30.0)),
              (10.0, RumbleSpec(duration_s=3.0, snr_db=30.0))]
    trace = synth_rumble_stream(events, total_s=16.0, seed=0)
    power = trace.samples ** 2
    within = power[2000:5000].mean()
    outside = power[6000:9000].mean()
    assert within > 10 * outside


def test_synth_rumble_stream_rejects_overflowing_chirp():
    # 6160 dB is a finite amplitude ratio on its own (about 1e308), but ten
    # times the noise RMS on top of it is not
    with pytest.raises(InvalidInputError, match="event at 1.0 s"):
        synth_rumble_stream([(1.0, RumbleSpec(3.5, snr_db=6160.0))],
                            total_s=8.0, noise_rms=10.0)


@pytest.mark.parametrize("bad, message", [
    ((3598.0, RumbleSpec(3.5)), "event does not fit in the stream"),
    # a finite amplitude ratio (about 1.5e308) whose chirp scale is not
    ((3000.0, RumbleSpec(3.5, snr_db=6163.5)), "event at 3000.0 s"),
])
def test_every_event_is_checked_before_any_noise_is_drawn(bad, message):
    # an hour at 1 kHz is 28.8 MB of noise; a bad last event must fail
    # before any of it exists, whether the trace is asked for whole or
    # scored in blocks. trigger_windows checks the events of every stream,
    # here with the bad event in the second, before it makes its 1 MB block
    # buffer
    events = [(10.0, RumbleSpec(3.5)), (20.0, RumbleSpec(4.0)), bad]
    for call in (lambda: synth_rumble_stream(events, 3600.0),
                 lambda: trigger_windows([(events[:2], 3600.0, 0),
                                          (events, 3600.0, 1)], 1000.0)):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=message):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_a_stream_with_no_rumble_draws_no_block(draws):
    # every window no rumble touches scores 0 by rule, so neither an hour
    # with no rumble nor a stream of no sample draws any noise
    assert trigger_windows([([], 3600.0, 0), ([], 0.0, 1)], 1000.0) == [[], []]
    assert draws == []


def test_a_rumble_in_the_first_block_draws_that_block_alone(draws):
    # an hour at 1 kHz is 28 blocks of 32 windows and a rest; a rumble in
    # window 31, the first block's last, draws the first 128,000 samples
    # only, which are those of a 128 s stream of the same seed
    events = [(124.25, RumbleSpec(3.5))]
    (hits,) = trigger_windows([(events, 3600.0, 4)], 1000.0)
    assert draws == [128_000]
    assert [(d.window_index, d.ds) for d in hits] == [(31, 2)]
    assert hits == [d for d in detect_stream(synth_rumble_stream(
        events, 128.0, 1000.0, 4)) if d.ds >= 1]


def test_synthesis_needs_a_finite_rate_and_duration():
    inf, nan = float("inf"), float("nan")
    for call, value in [
            (lambda: synth_rumble_stream([], total_s=8.0,
                                         sample_rate_hz=inf), "inf"),
            (lambda: synth_rumble_stream([], total_s=nan), "nan"),
            (lambda: synth_rumble(RumbleSpec(3.5), total_s=inf), "inf"),
            (lambda: synth_bee_buzz(duration_s=1.0, sample_rate_hz=0.0), "0.0"),
            (lambda: generate_pink_noise(100, -5.0, seed=0), "-5.0")]:
        with pytest.raises(InvalidInputError, match=f"got {value}"):
            call()


def test_synth_rumble_stream_deterministic():
    events = [(1.0, RumbleSpec(duration_s=3.0))]
    a = synth_rumble_stream(events, total_s=6.0, seed=9)
    b = synth_rumble_stream(events, total_s=6.0, seed=9)
    assert np.array_equal(a.samples, b.samples)


def test_bee_buzz_shape_and_pitch():
    clip = synth_bee_buzz(duration_s=2.0, seed=0)
    assert isinstance(clip, Signal)
    assert clip.sample_rate_hz == 8000.0
    assert np.max(np.abs(clip.samples)) <= 1.0
    gram = one_frame(clip.samples, clip.sample_rate_hz)
    assert 200.0 < peak_hz(gram) < 260.0  # fundamental near 230 Hz


def test_bee_buzz_deterministic_per_seed():
    a = synth_bee_buzz(seed=5)
    b = synth_bee_buzz(seed=5)
    c = synth_bee_buzz(seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_rumble_spec_validation():
    for duration_s in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            RumbleSpec(duration_s=duration_s)
    # the amplitude ratio 10 ** (snr_db / 20) must be finite and positive
    for snr_db in (float("nan"), 1e4, -1e4):
        with pytest.raises(InvalidInputError):
            RumbleSpec(duration_s=3.0, snr_db=snr_db)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=16, max_value=200), st.integers(1, 4),
       st.integers(0, 2 ** 31))
def test_spectrum_properties(n, frames, seed):
    # every STFT row is the one-frame spectrum of its own slice
    rng = np.random.default_rng(seed)
    hop = max(1, n // 3)
    samples = rng.standard_normal(n + (frames - 1) * hop)
    gram = rect_stft(samples, 500.0, n / 500.0, hop / 500.0)
    assert gram.magnitudes.shape[0] == frames
    assert np.all(gram.magnitudes >= 0.0)
    assert gram.freqs_hz[0] > 0.0
    assert np.all(np.diff(gram.freqs_hz) > 0)
    for k in range(frames):
        alone = one_frame(samples[k * hop:k * hop + n], 500.0)
        assert np.allclose(gram.magnitudes[k], alone.magnitudes[0], atol=1e-9)
