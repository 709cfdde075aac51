"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way, without
sharing code with the package: direct DFT summation instead of FFT, explicit
threshold enumeration instead of sorted sweeps, closed-form probability
instead of simulation. Tests compare package output against these. The
STFT references take their spectra from one_batch_stft, which frames,
windows and transforms the frames here in plain batches, not through the
package's kernel, so a kernel fault cannot move a reference with the code
it checks: compute_stft must equal one_batch_stft_magnitudes,
naive_stft_similarity pins the lag search and the frequency-grid
interpolation, stft_window_max_run pins the batched window scoring,
stft_tracker_events pins the batched tracker, and whole_stft_similarity,
which reads the package's lag search, pins the kept reference and the
analysis of changed frames by row bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from hecsim.detection import (ORACLE_BAND_HIGH_HZ, ORACLE_BAND_LOW_HZ,
                              ORACLE_FRAME_S, ORACLE_HOP_S, RumbleEvent)
from hecsim.deterrent import SIMILARITY_FRAME_S, SIMILARITY_HOP_S, _best_lag


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
    _, freqs, mags = one_batch_stft(samples, rate, params.subsegment_s,
                                    params.subsegment_s, window_fn="rect")
    peaks = freqs[np.argmax(mags[:params.subsegments_per_window], axis=1)]
    return longest_true_run(params.band_low_hz < f < params.band_high_hz
                            for f in peaks)


def stft_tracker_events(trace, min_event_s):
    """Events of the spectrogram tracker, from the whole trace's spectrogram.

    The tracking that hecsim.detection's batched tracker replaced: a Hann
    STFT of ORACLE_FRAME_S frames every ORACLE_HOP_S, the peak frequency of
    each frame, and the strict band test. Each maximal run of in-band
    frames, from its first frame's start to its last frame's end, is an
    event when it lasts at least min_event_s.
    """
    times, freqs, mags = one_batch_stft(trace.samples, trace.sample_rate_hz,
                                        ORACLE_FRAME_S, ORACLE_HOP_S,
                                        trace.start_time_s)
    peaks = freqs[np.argmax(mags, axis=1)]
    flags = [ORACLE_BAND_LOW_HZ < f < ORACLE_BAND_HIGH_HZ for f in peaks]
    events, first = [], None
    for i, flag in enumerate(flags + [False]):
        if flag and first is None:
            first = i
        elif not flag and first is not None:
            t_start = float(times[first])
            t_end = float(times[i - 1]) + ORACLE_FRAME_S
            if t_end - t_start >= min_event_s:
                events.append(RumbleEvent(t_start_s=t_start, t_end_s=t_end))
            first = None
    return events


def rumble_instantaneous_freq(t, duration_s, f_start, f_peak, f_end):
    """Piecewise-linear rise/fall frequency trajectory at time t in [0, dur]."""
    half = duration_s / 2.0
    if t <= half:
        return f_start + (f_peak - f_start) * (t / half)
    return f_peak + (f_end - f_peak) * ((t - half) / half)


def delivery_probability(loss_prob: float, max_retries: int) -> float:
    """Chance one at-least-once transfer survives its retry budget."""
    return 1.0 - loss_prob ** (max_retries + 1)


def partition_severs(partitions, a, b, t) -> bool:
    """Whether a partition (t_start, t_end, nodes) active at t holds
    exactly one of a and b; the window is closed at its start only."""
    return any(t_start <= t < t_end and (a in nodes) != (b in nodes)
               for t_start, t_end, nodes in partitions)


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


def naive_cn_bookkeeping(events):
    """Label each central-node event, with the pending count after it.

    Each event is ("frame", frame_id, pn_id), ("decision", frame_id,
    elephant_present) or ("other", type_name). Pending frames are a list of
    (frame_id, pn_id) pairs and decided ids a list, both scanned in full on
    every event. Returns one (label, pending count) pair per event; a label
    is run_detector:fid, negative:fid, repel:fid or anomaly:<reason>.
    """
    pending, decided, out = [], [], []
    for kind, *args in events:
        if kind == "frame":
            fid, pn = args
            if fid in decided or fid in [f for f, _ in pending]:
                label = f"anomaly:duplicate frame {fid}"
            else:
                pending.append((fid, pn))
                label = f"run_detector:{fid}"
        elif kind == "decision":
            fid, present = args
            if fid in decided:
                label = f"anomaly:repeat decision for frame {fid}"
            elif fid not in [f for f, _ in pending]:
                label = f"anomaly:decision for unknown frame {fid}"
            else:
                pending = [(f, pn) for f, pn in pending if f != fid]
                decided.append(fid)
                label = f"{'repel' if present else 'negative'}:{fid}"
        else:
            label = f"anomaly:unknown event {args[0]}"
        out.append((label, len(pending)))
    return out


def naive_stft_similarity(a, b):
    """Best normalized spectrogram cross-correlation, one lag at a time.

    The per-lag loop that hecsim.deterrent.stft_similarity replaced: both
    log-magnitude spectrograms on the coarser frequency grid (finer rows
    interpolated one by one), zero-mean and unit-norm as a whole; every
    integer frame lag is scored by naive_best_lag. Returns (max_xcorr,
    lag_frames).
    """
    def log_spectrogram(clip):
        _, freqs, mags = one_batch_stft(clip.samples, clip.sample_rate_hz,
                                        SIMILARITY_FRAME_S, SIMILARITY_HOP_S)
        return freqs, mags

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

    if la.min() == la.max() or lb.min() == lb.max():
        return 0.0, 0  # a flat spectrogram, before centering's residue
    la = la - la.mean()
    lb = lb - lb.mean()
    la /= np.linalg.norm(la)
    lb /= np.linalg.norm(lb)
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


def one_batch_stft_magnitudes(samples, rate, frame_s, hop_s, window_fn="hann"):
    """compute_stft's magnitudes with every frame stacked and transformed in
    one batch: mean removed, windowed, zero-padded to the next power of two
    of 4x the frame, DC bin dropped."""
    frame, hop = int(round(frame_s * rate)), int(round(hop_s * rate))
    n = (len(samples) - frame) // hop + 1
    frames = np.stack([samples[k * hop:k * hop + frame] for k in range(n)])
    win = np.hanning(frame) if window_fn == "hann" else np.ones(frame)
    segs = (frames - frames.mean(axis=1, keepdims=True)) * win
    pad = 1 << (4 * frame - 1).bit_length()
    return np.abs(np.fft.rfft(segs, n=pad, axis=1))[:, 1:]


def one_batch_stft(samples, rate, frame_s, hop_s, start_time_s=0.0,
                   window_fn="hann"):
    """(frame start times, frequencies, magnitudes) of compute_stft, with
    the magnitudes from one_batch_stft_magnitudes, taken 1,000 frames a
    batch so that an hour-long trace stays small."""
    frame, hop = int(round(frame_s * rate)), int(round(hop_s * rate))
    n = (len(samples) - frame) // hop + 1
    mags = np.concatenate([
        one_batch_stft_magnitudes(
            samples[k * hop:(min(n, k + 1000) - 1) * hop + frame], rate,
            frame_s, hop_s, window_fn)
        for k in range(0, n, 1000)])
    pad = 1 << (4 * frame - 1).bit_length()
    freqs = np.fft.rfftfreq(pad, 1.0 / rate)[1:]
    return start_time_s + np.arange(n) * hop / rate, freqs, mags


def whole_stft_similarity(a, b):
    """stft_similarity(a, b) in one pass over both whole spectrograms, with
    nothing kept between calls and no row taken from another analysis.

    The same arithmetic in the same order as the package, so the results
    must agree bit for bit; the lag search is the package's _best_lag, which
    naive_best_lag pins. Returns (max_xcorr, lag_frames).
    """
    _, fa, ma = one_batch_stft(a.samples, a.sample_rate_hz,
                               SIMILARITY_FRAME_S, SIMILARITY_HOP_S)
    _, fb, mb = one_batch_stft(b.samples, b.sample_rate_hz,
                               SIMILARITY_FRAME_S, SIMILARITY_HOP_S)
    floor = 1e-6 * max(float(ma.max()), float(mb.max()))
    if floor == 0.0:
        floor = 1e-12
    la, lb = np.log(ma + floor), np.log(mb + floor)

    def onto(grid, freqs, rows):
        j = np.searchsorted(freqs, grid, side="right") - 1
        j = np.clip(j, 0, len(freqs) - 2)
        w = np.clip((grid - freqs[j]) / (freqs[j + 1] - freqs[j]), 0.0, 1.0)
        return rows[:, j] * (1.0 - w) + rows[:, j + 1] * w

    if fa[-1] < fb[-1]:
        lb = onto(fa, fb, lb)
    elif fb[-1] < fa[-1]:
        la = onto(fb, fa, la)
    if la.min() == la.max() or lb.min() == lb.max():
        return 0.0, 0
    la = la - la.mean()
    lb = lb - lb.mean()
    la /= np.linalg.norm(la)
    lb /= np.linalg.norm(lb)
    score = _best_lag(la, lb)
    return score.max_xcorr, score.lag_frames
