"""Signal containers, the short-time spectrum, and synthetic sources.

A geophone trace and a bee-sound clip are both a Signal: a 1-D float array
with a sample rate and an absolute start time. Clip amplitudes are nominally
in [-1, 1]. Spectrograms exclude the DC bin so that a peak search can never
land on the mean.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    duration_s: float
    snr_db: float = 20.0

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise InvalidInputError("rumble duration must be positive and "
                                    f"finite, got {self.duration_s!r}")
        # synthesis scales by this amplitude ratio and by its inverse
        try:
            ratio = 10.0 ** (self.snr_db / 20.0)
        except OverflowError:
            ratio = math.inf
        if not 0 < ratio < math.inf or 1 / ratio == math.inf:
            raise InvalidInputError(
                f"rumble snr_db {self.snr_db!r} gives no finite, positive "
                "amplitude ratio")


def compute_stft(signal: Signal, frame_s: float, hop_s: float,
                 window_fn: str = "hann") -> Spectrogram:
    """Short-time spectrum over sliding frames.

    The frame count is floor((duration - frame_s) / hop_s) + 1; a signal
    shorter than one frame is rejected. Each frame is mean-removed,
    multiplied by the window, and zero-padded to the default FFT length.
    """
    x, rate = signal.samples, signal.sample_rate_hz
    frame = sample_count(frame_s, rate, "frame_s")
    hop = sample_count(hop_s, rate, "hop_s")
    if frame < 2 or hop < 1:
        raise InvalidInputError("frame_s and hop_s too small for the rate")
    if len(x) < frame:
        raise InvalidInputError("signal shorter than one frame")
    if window_fn == "hann":
        win = np.hanning(frame)
    elif window_fn == "rect":
        win = np.ones(frame)
    else:
        raise InvalidInputError(f"unknown window {window_fn!r}")

    frames = sliding_window_view(x, frame)[::hop]
    pad = default_pad_length(frame)
    # two steps, so only one frame-sized temporary is alive at a time
    segs = frames - frames.mean(axis=1, keepdims=True)
    segs *= win
    mags = np.abs(np.fft.rfft(segs, n=pad, axis=1))[:, 1:]
    freqs = np.fft.rfftfreq(pad, 1.0 / rate)[1:]
    times = signal.start_time_s + np.arange(len(frames)) * hop / rate
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
    noise RMS matches spec.snr_db. Events may overlap. This is
    synth_rumble_blocks with the whole trace as its one block, drawn inline.
    """
    n = sample_count(total_s, sample_rate_hz)
    chirps = _scaled_chirps(events, total_s, sample_rate_hz, noise_rms, n)
    x = np.empty(max(n, 1))
    next(_noise_blocks(np.random.default_rng(seed), n, noise_rms, chirps,
                       x[None]), None)
    return Signal(samples=x[:n], sample_rate_hz=sample_rate_hz)


def synth_rumble_blocks(events: list[tuple[float, RumbleSpec]], total_s: float,
                        sample_rate_hz: float = 1000.0, seed: int = 0,
                        noise_rms: float = 1.0, *, out: np.ndarray
                        ) -> Iterator[np.ndarray]:
    """synth_rumble_stream's samples as consecutive blocks, the last one
    shorter; a stream of no sample has no block.

    out is two slots of m samples, a writeable, C-contiguous float64 array
    of shape (2, m) with m >= 1, checked here before any draw; block j is
    drawn into the head of slot j % 2. A block is valid until the next one
    is asked for: copy it to keep it. A trigger screen takes blocks of whole
    windows, so its slots are TriggerScreen.block_samples long. One out can
    serve stream after stream, one at a time. Every event is checked, and
    its scaled chirp made, before any noise is drawn.

    A helper thread, started at the first next(), draws block j + 1 into
    the other slot while the caller works on block j; numpy's normal fill
    releases the GIL. It is joined when the stream ends, raises or is
    closed, and an error it raises is raised again here. Close a stream
    left unfinished before its out serves another. The blocks join to the
    whole trace bit for bit: the helper alone draws the same normal stream
    in pieces, in order, and each chirp sample is added to its noise
    sample alone.
    """
    if not isinstance(out, np.ndarray):
        raise InvalidInputError(
            f"out must be a numpy array, got {type(out).__name__}")
    if out.ndim != 2 or out.shape[0] != 2 or out.shape[1] < 1:
        raise InvalidInputError(
            f"out must have shape (2, m) with m >= 1, got {out.shape}")
    if out.dtype != np.float64:
        raise InvalidInputError(f"out must be float64, got {out.dtype}")
    if not out.flags.writeable:
        raise InvalidInputError("out must be writeable")
    if not out.flags.c_contiguous:
        raise InvalidInputError("out must be C-contiguous")
    n = sample_count(total_s, sample_rate_hz)
    chirps = _scaled_chirps(events, total_s, sample_rate_hz, noise_rms, n)
    blocks = _noise_blocks(np.random.default_rng(seed), n, noise_rms, chirps,
                           out)
    return _look_ahead(blocks)


def _look_ahead(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """blocks, each drawn on a helper thread while the caller holds the one
    before; a block's slot is drawn again only once the caller has asked
    for the block after it."""
    with ThreadPoolExecutor(1, thread_name_prefix="hecsim-synth") as helper:
        pending = helper.submit(next, blocks, None)
        while (block := pending.result()) is not None:
            pending = helper.submit(next, blocks, None)
            yield block


def _scaled_chirps(events: list[tuple[float, RumbleSpec]], total_s: float,
                   sample_rate_hz: float, noise_rms: float, n: int) -> list:
    """(first sample, scaled chirp clipped to the n samples) of each event,
    every event checked to fit and to scale to finite samples."""
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
    return chirps


def _noise_blocks(rng: np.random.Generator, n: int, noise_rms: float,
                  chirps: list, slots: np.ndarray) -> Iterator[np.ndarray]:
    """The stream's blocks, block j drawn into slots[j % len(slots)]."""
    m = slots.shape[1]
    for j, b0 in enumerate(range(0, n, m)):
        x = slots[j % len(slots), :min(m, n - b0)]
        rng.standard_normal(out=x)
        if noise_rms != 1.0:  # x * 1.0 is x, so the pass is skipped
            x *= noise_rms
        b1 = b0 + len(x)
        for i0, chirp in chirps:
            lo, hi = max(i0, b0), min(i0 + len(chirp), b1)
            if lo < hi:
                x[lo - b0:hi - b0] += chirp[lo - i0:hi - i0]
        yield x


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
