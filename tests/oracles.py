"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way, without
sharing code with the package: direct DFT summation instead of FFT, explicit
threshold enumeration instead of sorted sweeps, closed-form probability
instead of simulation. Tests compare package output against these. The two
exceptions read through the package's STFT and pin only what is built on
top of it: naive_stft_similarity pins the lag search and the frequency-grid
interpolation, and stft_window_max_run pins the batched window scoring.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from hecsim.deterrent import SIMILARITY_FRAME_S, SIMILARITY_HOP_S
from hecsim.signals import SeismicTrace, compute_stft


def naive_dft_magnitudes(samples, sample_rate_hz, pad_to=None):
    """Positive-frequency DFT magnitudes by direct summation, mean removed.

    Returns (freqs, mags) as plain lists; excludes the DC bin, matching the
    convention the spectrum code is expected to follow.
    """
    x = [float(v) for v in samples]
    mean = sum(x) / len(x)
    x = [v - mean for v in x]
    n = pad_to if pad_to is not None else len(x)
    if n < len(x):
        raise ValueError("pad_to shorter than the signal")
    x = x + [0.0] * (n - len(x))
    half = n // 2
    freqs = []
    mags = []
    for k in range(1, half + 1):
        acc = 0j
        for t, v in enumerate(x):
            acc += v * cmath.exp(-2j * math.pi * k * t / n)
        freqs.append(k * sample_rate_hz / n)
        mags.append(abs(acc))
    return freqs, mags


def naive_peak_frequency(samples, sample_rate_hz, pad_to=None):
    freqs, mags = naive_dft_magnitudes(samples, sample_rate_hz, pad_to)
    best = 0
    for i in range(1, len(mags)):
        if mags[i] > mags[best]:  # ties keep the lowest frequency
            best = i
    return freqs[best]


def longest_true_run(flags) -> int:
    best = run = 0
    for f in flags:
        run = run + 1 if f else 0
        best = max(best, run)
    return best


def stft_window_max_run(samples, rate, params):
    """Longest strict in-band run of one window, one STFT row per sub-segment.

    The per-window scoring that hecsim.detection's batched path replaced: a
    rectangular-window STFT with the hop equal to the sub-segment, its first
    subsegments_per_window rows, the peak frequency of each, and
    longest_true_run over the strict band test.
    """
    spec = compute_stft(SeismicTrace(samples=samples, sample_rate_hz=rate),
                        params.subsegment_s, params.subsegment_s,
                        window_fn="rect")
    mags = spec.magnitudes[:params.subsegments_per_window]
    peaks = spec.freqs_hz[np.argmax(mags, axis=1)]
    return longest_true_run(params.band_low_hz < f < params.band_high_hz
                            for f in peaks)


def rumble_instantaneous_freq(t, duration_s, f_start, f_peak, f_end):
    """Piecewise-linear rise/fall frequency trajectory at time t in [0, dur]."""
    half = duration_s / 2.0
    if t <= half:
        return f_start + (f_peak - f_start) * (t / half)
    return f_peak + (f_end - f_peak) * ((t - half) / half)


def delivery_probability(loss_prob: float, max_retries: int) -> float:
    """Chance one at-least-once transfer survives its retry budget."""
    return 1.0 - loss_prob ** (max_retries + 1)


def iou_fraction(a, b):
    """IoU of two (x0, y0, x1, y1) boxes using exact arithmetic on floats."""
    ix0, iy0 = max(a[0], b[0]), max(a[1], b[1])
    ix1, iy1 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix1 - ix0), max(0.0, iy1 - iy0)
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def brute_force_ap50(predictions, truths, iou_threshold=0.5):
    """All-point interpolated AP via explicit threshold enumeration.

    predictions: list of (confidence, frame_id, box); truths: dict
    frame_id -> list of boxes. For every distinct confidence level, take the
    predictions at or above it (ties broken by original order), greedily
    match each to its best unused truth box in its frame, and read off one
    precision/recall point; the AP is the area under the running-max
    precision envelope over recall.
    """
    n_truth = sum(len(v) for v in truths.values())
    if not predictions or n_truth == 0:
        return 0.0

    def pr_at(k):
        # first k predictions in confidence order, original order on ties
        order = sorted(range(len(predictions)),
                       key=lambda i: (-predictions[i][0], i))[:k]
        order.sort()  # matching runs in original submission order
        used = {fid: [False] * len(boxes) for fid, boxes in truths.items()}
        tp = 0
        for i in order:
            _, fid, box = predictions[i]
            best_iou, best_j = 0.0, -1
            for j, tbox in enumerate(truths.get(fid, [])):
                if used.get(fid, [])[j]:
                    continue
                v = iou_fraction(box, tbox)
                if v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0 and best_iou >= iou_threshold:
                used[fid][best_j] = True
                tp += 1
        return tp / k, tp / n_truth

    points = [pr_at(k) for k in range(1, len(predictions) + 1)]
    # running max of precision from the high-recall end
    best_prec = []
    running = 0.0
    for p, _ in reversed(points):
        running = max(running, p)
        best_prec.append(running)
    best_prec.reverse()
    area = 0.0
    prev_recall = 0.0
    for (p, r), env in zip(points, best_prec):
        if r > prev_recall:
            area += env * (r - prev_recall)
            prev_recall = r
    return area


def naive_ir_duty(action_rows, node, duration_s):
    """Camera-on fraction for one node, summed interval by interval.

    Replays the node's action rows from an initial idle state; every stretch
    between two rows (or the last row and duration_s) spent in a powered
    state counts, one state at a time.
    """
    powered = ("ir_active", "awaiting_decision")
    state, since, on = "idle", 0.0, 0.0
    for row in action_rows:
        if row["node"] != node:
            continue
        if state in powered:
            on += row["t"] - since
        state, since = row["state_to"], row["t"]
    if state in powered:
        on += duration_s - since
    return on / duration_s


def naive_stft_similarity(a, b):
    """Best normalized spectrogram cross-correlation, one lag at a time.

    The per-lag loop that hecsim.deterrent.stft_similarity replaced: both
    log-magnitude spectrograms on the coarser frequency grid (finer rows
    interpolated one by one), zero-mean and unit-norm as a whole; every
    integer frame lag is scored by naive_best_lag. Returns (max_xcorr,
    lag_frames).
    """
    def log_spectrogram(clip):
        spec = compute_stft(clip, SIMILARITY_FRAME_S, SIMILARITY_HOP_S,
                            window_fn="hann")
        return spec.freqs_hz, spec.magnitudes

    fa, ma = log_spectrogram(a)
    fb, mb = log_spectrogram(b)
    floor = 1e-6 * max(float(ma.max()), float(mb.max()))
    if floor == 0.0:
        floor = 1e-12
    la = np.log(ma + floor)
    lb = np.log(mb + floor)
    if fa[-1] <= fb[-1]:
        lb = np.array([np.interp(fa, fb, row) for row in lb])
    else:
        la = np.array([np.interp(fb, fa, row) for row in la])

    la = la - la.mean()
    norm_a = np.linalg.norm(la)
    lb = lb - lb.mean()
    norm_b = np.linalg.norm(lb)
    if norm_a == 0 or norm_b == 0:
        return 0.0, 0
    la /= norm_a
    lb /= norm_b
    return naive_best_lag(la, lb)


def naive_best_lag(la, lb):
    """(score, lag) of the best normalized inner product over frame lags.

    Row i of la meets row i - lag of lb. A lag whose overlap has zero norm
    on either side is skipped; the first (most negative) best lag wins.
    """
    n_a, n_b = len(la), len(lb)
    best = -2.0
    best_lag = 0
    for lag in range(-(n_b - 1), n_a):
        a0 = max(0, lag)
        a1 = min(n_a, lag + n_b)
        ov_a = la[a0:a1]
        ov_b = lb[a0 - lag:a1 - lag]
        na = np.linalg.norm(ov_a)
        nb = np.linalg.norm(ov_b)
        if na == 0 or nb == 0:
            continue
        score = float(np.dot(ov_a.ravel(), ov_b.ravel()) / (na * nb))
        if score > best:
            best = score
            best_lag = lag
    if best < -1.5:
        raise ValueError("no overlapping frames at any lag")
    return best, best_lag
