import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecsim.detection import Algorithm1Params, TriggerScreen
from hecsim.deterrent import generate_pink_noise
from hecsim.errors import InvalidInputError
from hecsim.signals import (RumbleSpec, Signal, chirp_waveform,
                            compute_stft, default_pad_length, next_pow2,
                            synth_bee_buzz, synth_rumble, synth_rumble_blocks,
                            synth_rumble_stream)
from oracles import naive_dft_magnitudes, rumble_instantaneous_freq


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


def one_frame(samples, rate):
    """Spectrogram of a single rectangular frame spanning the whole signal."""
    trace = Signal(samples=samples, sample_rate_hz=rate)
    return compute_stft(trace, trace.duration_s, trace.duration_s,
                        window_fn="rect")


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
    ((3000.0, RumbleSpec(3.5, snr_db=6160.0)), "event at 3000.0 s"),
])
def test_every_event_is_checked_before_any_noise_is_drawn(bad, message):
    # an hour at 1 kHz is 28.8 MB of noise; a bad last event must fail
    # before any of it exists, whether the trace is asked for whole or in
    # blocks; the block slots are made before tracing starts
    events = [(10.0, RumbleSpec(3.5)), (20.0, RumbleSpec(4.0)), bad]
    out = np.empty((2, TriggerScreen(1000.0).block_samples))
    for call in (lambda: synth_rumble_stream(events, 3600.0, noise_rms=10.0),
                 lambda: synth_rumble_blocks(events, 3600.0, noise_rms=10.0,
                                             out=out)):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=message):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _read_only(shape):
    out = np.empty(shape)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("out, message", [
    (np.empty(0), r"shape \(2, m\) with m >= 1, got \(0,\)"),
    (np.empty(1000), r"shape \(2, m\) with m >= 1, got \(1000,\)"),
    (np.empty((2, 0)), r"shape \(2, m\) with m >= 1, got \(2, 0\)"),
    (np.empty((3, 1000)), r"shape \(2, m\) with m >= 1, got \(3, 1000\)"),
    (np.empty((2, 5, 1)), r"shape \(2, m\) with m >= 1, got \(2, 5, 1\)"),
    ([[0.0] * 1000] * 2, "out must be a numpy array, got list"),
    (np.empty((2, 1000), np.float32), "out must be float64, got float32"),
    (_read_only((2, 1000)), "out must be writeable"),
    (np.empty((2, 1000), order="F"), "out must be C-contiguous"),
], ids=["empty", "one_slot_shape", "empty_slots", "three_slots", "3d",
        "list", "float32", "read_only", "fortran_order"])
def test_block_slots_are_checked_when_the_stream_is_made(out, message):
    # the check runs when synth_rumble_blocks is called, before any draw
    # or thread, not deep inside the first draw
    before = threading.active_count()
    with pytest.raises(InvalidInputError, match=message):
        synth_rumble_blocks([], total_s=1.0, out=out)
    assert threading.active_count() == before


def _ten_blocks():
    """10 s at 1 kHz, with a rumble, in blocks of 1,000 samples."""
    return synth_rumble_blocks([(2.0, RumbleSpec(3.5))], total_s=10.0,
                               seed=3, out=np.empty((2, 1000)))


def _run_to_end(stream):
    assert sum(1 for _ in stream) == 9


def _close(stream):
    stream.close()


def _raise_mid_stream(stream):
    with pytest.raises(RuntimeError, match="consumer"):
        for i, _ in enumerate(stream):
            if i == 2:
                raise RuntimeError("consumer")
    stream.close()


@pytest.mark.parametrize("consume", [_run_to_end, _close, _raise_mid_stream],
                         ids=["run_to_end", "close_after_first",
                              "consumer_raises"])
def test_look_ahead_thread_is_joined(consume):
    # the helper starts at the first next() and is joined when the stream
    # ends or is closed, whatever the consumer did
    before = threading.active_count()
    stream = _ten_blocks()
    assert threading.active_count() == before
    next(stream)
    assert threading.active_count() == before + 1
    consume(stream)
    assert threading.active_count() == before


def test_screen_that_scores_nothing_starts_no_thread():
    # run_low + 1 > 32 sub-segments: the screen returns without iterating
    screen = TriggerScreen(1000.0, Algorithm1Params(run_low=32, run_high=33))
    before = threading.active_count()
    assert screen(synth_rumble_blocks(
        [], total_s=60.0, out=np.empty((2, screen.block_samples)))) == []
    assert threading.active_count() == before


def test_screen_that_raises_closes_its_stream():
    # 1.5 windows a slot: the second block follows one ending inside a
    # window, so the screen raises while the helper draws the third. The
    # screen closes the stream itself, so the helper is gone even while the
    # traceback holds the screen's frame, and the slots can serve the next
    # stream at once
    screen = TriggerScreen(1000.0)
    out = np.empty((2, 6000))
    before = threading.active_count()
    with pytest.raises(InvalidInputError, match="ends inside window") as err:
        screen(synth_rumble_blocks([], total_s=60.0, out=out))
    assert threading.active_count() == before
    whole = synth_rumble_stream([(2.0, RumbleSpec(3.5))], 10.0, seed=3)
    joined = [block.tobytes() for block in synth_rumble_blocks(
        [(2.0, RumbleSpec(3.5))], total_s=10.0, seed=3, out=out)]
    assert b"".join(joined) == whole.samples.tobytes()
    assert err.traceback  # still held while the helper was checked


class DrawError(Exception):
    pass


def test_synthesis_error_on_the_helper_is_raised_in_the_caller(monkeypatch):
    default_rng, raised_on = np.random.default_rng, []

    class ThirdDrawFails:
        def __init__(self, seed):
            self.rng, self.calls = default_rng(seed), 0

        def standard_normal(self, *, out):
            self.calls += 1
            if self.calls == 3:
                raised_on.append(threading.current_thread())
                raise DrawError("third draw")
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", ThirdDrawFails)
    before, got = threading.active_count(), []
    with pytest.raises(DrawError, match="third draw"):
        for block in _ten_blocks():
            got.append(block.copy())
    assert len(got) == 2
    assert raised_on and raised_on[0] is not threading.current_thread()
    assert threading.active_count() == before


def test_a_block_is_not_redrawn_until_the_next_is_asked_for():
    # the helper runs ahead while the consumer holds a block, so a block
    # drawn into the slot the consumer holds would change under it
    whole = synth_rumble_stream([(2.0, RumbleSpec(3.5))], 10.0, seed=3)
    joined = []
    for block in _ten_blocks():
        checksum = zlib.crc32(block)
        time.sleep(0.02)
        assert zlib.crc32(block) == checksum
        joined.append(block.tobytes())
    assert b"".join(joined) == whole.samples.tobytes()
    # with threads switched as often as the interpreter allows, 1,429
    # blocks of 7 samples, each copied on receipt, still join to the trace
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        joined = [block.tobytes() for block in synth_rumble_blocks(
            [(2.0, RumbleSpec(3.5))], total_s=10.0, seed=3,
            out=np.empty((2, 7)))]
    finally:
        sys.setswitchinterval(interval)
    assert b"".join(joined) == whole.samples.tobytes()


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
    trace = Signal(samples=samples, sample_rate_hz=500.0)
    gram = compute_stft(trace, n / 500.0, hop / 500.0, window_fn="rect")
    assert gram.magnitudes.shape[0] == frames
    assert np.all(gram.magnitudes >= 0.0)
    assert gram.freqs_hz[0] > 0.0
    assert np.all(np.diff(gram.freqs_hz) > 0)
    for k in range(frames):
        alone = one_frame(samples[k * hop:k * hop + n], 500.0)
        assert np.allclose(gram.magnitudes[k], alone.magnitudes[0], atol=1e-9)
