"""Signal containers, the short-time spectrum, and synthetic sources.

A geophone trace and a bee-sound clip are both a Signal: a 1-D float array
with a sample rate and an absolute start time. Clip amplitudes are nominally
in [-1, 1]. Spectrograms exclude the DC bin so that a peak search can never
land on the mean.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import Positive, check_ranges
from .errors import InvalidInputError


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        return 1
    return 1 << (int(n) - 1).bit_length()


def check_rate(rate_hz: float) -> None:
    if not 0 < rate_hz < math.inf:
        raise InvalidInputError(
            f"sample rate must be positive and finite, got {rate_hz!r}")


def sample_count(duration_s: float, rate_hz: float,
                 what: str = "duration") -> int:
    """round(duration_s * rate_hz), for a positive, finite rate and a
    non-negative duration that gives a finite count."""
    check_rate(rate_hz)
    if not 0 <= duration_s * rate_hz < math.inf:
        raise InvalidInputError(
            f"{what} must be non-negative and finite, got {duration_s!r}")
    return int(round(duration_s * rate_hz))


def default_pad_length(n_samples: int) -> int:
    """FFT length used throughout: next power of two >= 4x the segment.

    The 4x interpolation keeps the bin spacing for a 0.125 s segment at
    1 kHz below 2 Hz, narrow enough to separate the 20 Hz band edge from
    neighboring energy.
    """
    return next_pow2(4 * n_samples)


@dataclass(frozen=True, eq=False)
class Signal:
    """Sampled 1-D signal with a sample rate and absolute start time."""

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInputError("signal samples must be 1-D")
        check_rate(self.sample_rate_hz)
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Short-time magnitude spectra; frame_times_s are frame start times."""

    frame_times_s: np.ndarray
    freqs_hz: np.ndarray
    magnitudes: np.ndarray  # shape (n_frames, n_freqs)

    def __post_init__(self):
        m = np.asarray(self.magnitudes, dtype=np.float64)
        if m.shape != (len(self.frame_times_s), len(self.freqs_hz)):
            raise InvalidInputError("spectrogram shape mismatch")
        object.__setattr__(self, "magnitudes", m)


RUMBLE_RAMP_HZ = (20.0, 40.0, 20.0)  # start, peak at mid-duration, end


@dataclass(frozen=True)
class RumbleSpec:
    """Elephant rumble: a flat-amplitude linear chirp through RUMBLE_RAMP_HZ."""

    duration_s: Positive
    snr_db: float = 20.0

    def __post_init__(self):
        check_ranges(self)
        # synthesis scales by this amplitude ratio and by its inverse
        try:
            ratio = 10.0 ** (self.snr_db / 20.0)
        except OverflowError:
            ratio = math.inf
        if not 0 < ratio < math.inf or 1 / ratio == math.inf:
            raise InvalidInputError(
                f"rumble snr_db {self.snr_db!r} gives no finite, positive "
                "amplitude ratio")


FFT_CHUNK_BYTES = 1 << 20  # of complex spectrum per FFT call of frame_spectra


def frame_spectra(frames: np.ndarray, window: np.ndarray | None = None,
                  rows: np.ndarray | None = None
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """Magnitude spectra above DC of the frames of a (rows, columns, m)
    array, or of its given rows only, each mean-removed, windowed if a
    window is given and zero-padded to default_pad_length(m).

    Each FFT call takes as many whole rows as FFT_CHUNK_BYTES of complex
    spectrum holds (one row at least) and yields (i, mags): the
    (c, columns, pad // 2) spectra of rows i .. i + c - 1 of those taken,
    in buffers the next call overwrites.
    """
    count = len(frames) if rows is None else len(rows)
    cols, m = frames.shape[1:]
    pad = default_pad_length(m)
    step = max(1, FFT_CHUNK_BYTES // (16 * (pad // 2 + 1)) // cols)
    n = min(count, step)
    buf = np.zeros((n, cols, pad))  # its padding stays zero
    spec = np.empty((n, cols, pad // 2 + 1), complex)
    mags = np.empty((n, cols, pad // 2))
    for i0 in range(0, count, step):
        chunk = frames[slice(i0, i0 + step) if rows is None
                       else rows[i0:i0 + step]]
        c = len(chunk)
        np.subtract(chunk, chunk.mean(axis=2, keepdims=True),
                    out=buf[:c, :, :m])
        if window is not None:
            buf[:c, :, :m] *= window
        # rfft of a padded buffer is faster than rfft(n=pad), same bits
        np.fft.rfft(buf[:c], axis=2, out=spec[:c])
        np.abs(spec[:c, :, 1:], out=mags[:c])
        yield i0, mags[:c]


def sliding_frames(x: np.ndarray, rate_hz: float, frame_s: float,
                   hop_s: float) -> tuple[np.ndarray, int]:
    """The frames of frame_s every hop_s of x, a (frames, 1, frame) view,
    and the hop in samples. There are floor((len(x) - frame) / hop) + 1; an
    x shorter than one frame is rejected."""
    frame = sample_count(frame_s, rate_hz, "frame_s")
    hop = sample_count(hop_s, rate_hz, "hop_s")
    if frame < 2 or hop < 1:
        raise InvalidInputError("frame_s and hop_s too small for the rate")
    if len(x) < frame:
        raise InvalidInputError("signal shorter than one frame")
    return sliding_window_view(x, frame)[::hop, None], hop


def compute_stft(signal: Signal, frame_s: float, hop_s: float) -> Spectrogram:
    """Short-time spectrum of sliding_frames' frames, by frame_spectra: each
    frame mean-removed, multiplied by a Hann window, zero-padded to the
    default FFT length."""
    rate = signal.sample_rate_hz
    frames, hop = sliding_frames(signal.samples, rate, frame_s, hop_s)
    frame = frames.shape[2]
    mags = np.empty((len(frames), default_pad_length(frame) // 2))
    for i, chunk in frame_spectra(frames, np.hanning(frame)):
        mags[i:i + len(chunk)] = chunk[:, 0]
    times = signal.start_time_s + np.arange(len(frames)) * hop / rate
    freqs = np.fft.rfftfreq(default_pad_length(frame), 1.0 / rate)[1:]
    return Spectrogram(frame_times_s=times, freqs_hz=freqs, magnitudes=mags)


def chirp_waveform(spec: RumbleSpec, sample_rate_hz: float) -> np.ndarray:
    """Phase-continuous rise/fall chirp of unit amplitude."""
    n = sample_count(spec.duration_s, sample_rate_hz)
    if n < 2:
        raise InvalidInputError("rumble too short for the sample rate")
    t = np.arange(n) / sample_rate_hz
    half = spec.duration_s / 2.0
    f_start, f_peak, f_end = RUMBLE_RAMP_HZ
    f_inst = np.where(
        t < half,
        f_start + (f_peak - f_start) * t / half,
        f_peak + (f_end - f_peak) * (t - half) / half,
    )
    phase = 2.0 * np.pi * np.cumsum(f_inst) / sample_rate_hz
    return np.sin(phase)


def synth_rumble(spec: RumbleSpec, sample_rate_hz: float = 1000.0,
                 seed: int = 0, total_s: float | None = None,
                 onset_s: float = 0.0) -> Signal:
    """Rumble chirp embedded in white background noise at spec.snr_db.

    SNR is the ratio of chirp RMS (over the chirp extent) to noise RMS.
    By default the trace covers exactly the rumble; total_s and onset_s
    place it inside a longer noisy record. This is a one-event
    synth_rumble_stream whose noise RMS is the chirp RMS over the SNR
    amplitude ratio.
    """
    if total_s is None:
        total_s = spec.duration_s
    chirp_rms = float(np.sqrt(np.mean(chirp_waveform(spec, sample_rate_hz) ** 2)))
    return synth_rumble_stream([(onset_s, spec)], total_s, sample_rate_hz,
                               seed, chirp_rms / 10.0 ** (spec.snr_db / 20.0))


def synth_rumble_stream(events: list[tuple[float, RumbleSpec]], total_s: float,
                        sample_rate_hz: float = 1000.0, seed: int = 0,
                        noise_rms: float = 1.0) -> Signal:
    """Background noise of the given RMS with one chirp added per event.

    Each event is (onset_s, spec); its chirp is scaled so that chirp RMS over
    noise RMS matches spec.snr_db. Events may overlap. The whole trace is
    drawn as one block.
    """
    _, draw = _rumble_blocks(events, total_s, sample_rate_hz, seed, noise_rms)
    x = np.empty(max(sample_count(total_s, sample_rate_hz), 1))
    return Signal(samples=next(draw(x), x[:0]), sample_rate_hz=sample_rate_hz)


def _rumble_blocks(events: list[tuple[float, RumbleSpec]], total_s: float,
                   sample_rate_hz: float, seed: int, noise_rms: float = 1.0
                   ) -> tuple[list[tuple[int, int]],
                              Callable[[np.ndarray], Iterator[np.ndarray]]]:
    """synth_rumble_stream's samples, drawn in blocks.

    Every event is checked to fit and to scale to finite samples, and its
    scaled chirp made, here, before any noise is drawn. Returns the sample
    span [i0, i1) of each event's chirp, cut at the stream end, and a
    function that takes buf, a float64 array of m samples, and yields the
    stream's blocks of m samples, the last one shorter, each drawn into the
    head of buf; a stream of no sample has no block. Its blocks join to the
    whole trace bit for bit: they draw one normal stream in pieces, in
    order, and each chirp sample is added to its own noise sample alone.
    """
    n = sample_count(total_s, sample_rate_hz)
    chirps = []
    for onset_s, spec in events:
        if not (onset_s >= 0 and onset_s + spec.duration_s <= total_s + 1e-9):
            raise InvalidInputError("event does not fit in the stream")
        chirp = chirp_waveform(spec, sample_rate_hz)
        chirp_rms = float(np.sqrt(np.mean(chirp ** 2)))
        scale = noise_rms * (10.0 ** (spec.snr_db / 20.0)) / chirp_rms
        if not math.isfinite(scale):
            raise InvalidInputError(f"event at {onset_s} s: chirp scale overflows")
        i0 = int(round(onset_s * sample_rate_hz))
        chirps.append((i0, chirp[:max(0, n - i0)] * scale))
    rng = np.random.default_rng(seed)

    def draw(buf: np.ndarray) -> Iterator[np.ndarray]:
        for b0 in range(0, n, len(buf)):
            x = buf[:min(len(buf), n - b0)]
            rng.standard_normal(out=x)
            if noise_rms != 1.0:  # x * 1.0 is x, so the pass is skipped
                x *= noise_rms
            b1 = b0 + len(x)
            for i0, chirp in chirps:
                lo, hi = max(i0, b0), min(i0 + len(chirp), b1)
                if lo < hi:
                    x[lo - b0:hi - b0] += chirp[lo - i0:hi - i0]
            yield x
    return [(i0, i0 + len(chirp)) for i0, chirp in chirps], draw


def synth_bee_buzz(duration_s: float = 2.0, sample_rate_hz: float = 8000.0,
                   seed: int = 0) -> Signal:
    """Synthetic bee-buzz: a harmonic stack over a shaped noise bed.

    The stack is 7 harmonics of 230 Hz with 1/h rolloff, slight vibrato and
    slow amplitude pulsing. The noise bed, 12 dB below it, has a low-pass
    envelope with a 500 Hz knee; it matters for spectrogram comparisons
    because its shape survives modifications that move the harmonic comb.
    """
    rng = np.random.default_rng(seed)
    n = sample_count(duration_s, sample_rate_hz)
    if n < 2:
        raise InvalidInputError("clip too short")
    t = np.arange(n) / sample_rate_hz
    x = np.zeros(n)
    vibrato = 1.0 + 0.01 * np.sin(2 * np.pi * 3.0 * t + rng.uniform(0, 2 * np.pi))
    phases = rng.uniform(0, 2 * np.pi, 7)
    for h in range(1, 8):
        f_inst = 230.0 * h * vibrato
        phase = 2 * np.pi * np.cumsum(f_inst) / sample_rate_hz + phases[h - 1]
        x += np.sin(phase) / h
    x *= 1.0 + 0.25 * np.sin(2 * np.pi * 0.7 * t + rng.uniform(0, 2 * np.pi))

    spectrum_shape = 1.0 / (1.0 + (np.fft.rfftfreq(n, 1.0 / sample_rate_hz) / 500.0) ** 2)
    noise = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * spectrum_shape, n=n)
    noise /= np.sqrt(np.mean(noise ** 2))
    x += noise * float(np.sqrt(np.mean(x ** 2))) * (10.0 ** (-12.0 / 20.0))
    x /= np.max(np.abs(x))
    return Signal(samples=x, sample_rate_hz=sample_rate_hz)
