import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecsim import deterrent
from hecsim.deterrent import (ModificationKind, ModificationParams,
                              apply_modification, generate_pink_noise,
                              insert_silence_gaps, l2_delta,
                              modify_frame_rate, overlay_pink_noise,
                              pick_modification, stft_similarity)
from hecsim.errors import InvalidInputError
from hecsim.seeds import derive_seed
from hecsim.signals import Signal, compute_stft, synth_bee_buzz
from oracles import (naive_best_lag, naive_stft_similarity,
                     whole_stft_similarity)


def test_pick_modification_is_replayable():
    a = pick_modification(123)
    b = pick_modification(123)
    assert a == b
    assert a.seed == 123
    assert a.kind in tuple(ModificationKind)
    assert 0.5 <= a.alpha <= 1.5


@pytest.mark.parametrize("n", [1, 0])
def test_pink_noise_needs_two_samples(n):
    with pytest.raises(InvalidInputError, match="need at least two samples"):
        generate_pink_noise(n, 8000.0, seed=0)


def test_pick_modification_rejects_junk():
    with pytest.raises(InvalidInputError):
        pick_modification("not a seed")
    with pytest.raises(InvalidInputError):
        pick_modification(np.random.default_rng(9))


@pytest.mark.parametrize("draw", [
    pick_modification,
    lambda seed: generate_pink_noise(100, 8000.0, seed),
    lambda seed: overlay_pink_noise(synth_bee_buzz(0.5), 1.0, seed),
    lambda seed: insert_silence_gaps(synth_bee_buzz(1.5), 1.0, seed),
], ids=["pick_modification", "generate_pink_noise", "overlay_pink_noise",
        "insert_silence_gaps"])
def test_a_negative_seed_is_rejected_by_name(draw):
    with pytest.raises(InvalidInputError, match="seed .*got -1"):
        draw(-1)
    draw(0)


def test_pick_modification_hits_every_kind():
    kinds = {pick_modification(s).kind for s in range(40)}
    assert kinds == set(ModificationKind)


def test_frame_rate_scale_keeps_samples(bee_clip):
    out = modify_frame_rate(bee_clip, 1.25)
    assert out.sample_rate_hz == pytest.approx(bee_clip.sample_rate_hz * 1.25)
    np.testing.assert_array_equal(out.samples, bee_clip.samples)
    assert out.duration_s == pytest.approx(bee_clip.duration_s / 1.25)
    with pytest.raises(InvalidInputError):
        modify_frame_rate(bee_clip, 0.0)


def test_pink_noise_unit_rms_and_determinism():
    a = generate_pink_noise(8192, 8000.0, seed=3)
    b = generate_pink_noise(8192, 8000.0, seed=3)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert float(np.sqrt(np.mean(a.samples ** 2))) == pytest.approx(1.0)
    c = generate_pink_noise(8192, 8000.0, seed=4)
    assert not np.array_equal(a.samples, c.samples)


def test_pink_noise_spectral_slope():
    # log-log slope of the power spectrum should sit near -1
    slopes = []
    for seed in range(10):
        clip = generate_pink_noise(2 ** 14, 8000.0, seed=seed)
        spec = np.abs(np.fft.rfft(clip.samples)) ** 2
        f = np.fft.rfftfreq(len(clip.samples), 1.0 / 8000.0)
        keep = (f >= 10.0) & (f <= 3000.0)
        slope = np.polyfit(np.log(f[keep]), np.log(spec[keep]), 1)[0]
        slopes.append(slope)
    assert np.mean(slopes) == pytest.approx(-1.0, abs=0.2)


def test_overlay_scales_with_alpha(bee_clip):
    rms = float(np.sqrt(np.mean(bee_clip.samples ** 2)))
    out = overlay_pink_noise(bee_clip, alpha=1.0, seed=5)
    added = out.samples - bee_clip.samples
    got = float(np.sqrt(np.mean(added ** 2)))
    assert got == pytest.approx(0.1 * rms, rel=1e-9)


def test_overlay_alpha_zero_is_identity(bee_clip):
    assert overlay_pink_noise(bee_clip, 0.0, seed=5) is bee_clip
    silent = Signal(samples=np.zeros(1000), sample_rate_hz=8000.0)
    assert overlay_pink_noise(silent, 1.0, seed=5) is silent
    for alpha in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="alpha"):
            overlay_pink_noise(bee_clip, alpha, seed=5)


def test_overlay_renormalizes_when_clipping():
    loud = Signal(samples=np.full(8000, 0.999), sample_rate_hz=8000.0)
    out = overlay_pink_noise(loud, alpha=1.5, seed=0)
    assert float(np.max(np.abs(out.samples))) == pytest.approx(1.0)


def gapped_frames(clip, out, alpha):
    """Read the gaps back from the output alone.

    In every 1 s frame the changed samples are either none or one zero run
    of round(alpha * 0.1 * rate) samples, clamped to the frame; the partial
    frame at the end is never touched. Returns the gapped frame indices.
    """
    frame_n = int(round(clip.sample_rate_hz))
    gap_n = min(int(round(alpha * 0.1 * clip.sample_rate_hz)), frame_n)
    assert len(out.samples) == len(clip.samples)
    n_frames = len(clip.samples) // frame_n
    tail = slice(n_frames * frame_n, None)
    np.testing.assert_array_equal(out.samples[tail], clip.samples[tail])
    gapped = []
    for k in range(n_frames):
        frame = slice(k * frame_n, (k + 1) * frame_n)
        changed = np.flatnonzero(out.samples[frame] != clip.samples[frame])
        if changed.size == 0:
            continue
        assert changed.size == gap_n
        assert changed[-1] - changed[0] + 1 == gap_n  # one contiguous run
        assert not out.samples[frame][changed].any()
        gapped.append(k)
    return gapped


def test_gaps_have_planned_length_and_stay_in_frame(bee_clip):
    out = insert_silence_gaps(bee_clip, alpha=0.8, seed=11)
    assert len(gapped_frames(bee_clip, out, 0.8)) >= 1


def test_gaps_forced_frame_when_chance_selects_none(bee_clip):
    # seed 1: the 0.3 mask over the clip's two frames selects nothing, so
    # exactly one frame is forced
    assert not (np.random.default_rng(1).random(2) < 0.3).any()
    out = insert_silence_gaps(bee_clip, alpha=1.0, seed=1)
    assert len(gapped_frames(bee_clip, out, 1.0)) == 1


def test_gap_longer_than_frame_clamps_with_warning(bee_clip, caplog):
    with caplog.at_level("WARNING", logger="hecsim.deterrent"):
        out = insert_silence_gaps(bee_clip, alpha=20.0, seed=3)
    # the 2 s gap is clamped to the 1 s frame, which it then fills
    assert gapped_frames(bee_clip, out, 20.0)
    assert any("clamped" in rec.message for rec in caplog.records)


def test_gaps_validate_inputs(bee_clip):
    for alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="alpha"):
            insert_silence_gaps(bee_clip, alpha=alpha, seed=0)


def test_gaps_never_return_the_clip_unmodified():
    # a clip with no whole 1 s frame, or a gap of no sample, has nowhere to
    # put the forced gap, so it fails instead of coming back unchanged
    short = Signal(samples=np.ones(7999), sample_rate_hz=8000.0)
    with pytest.raises(InvalidInputError, match=re.escape(
            "no gap fits: 7999 samples at 8000.0 Hz hold 0 whole frames")):
        insert_silence_gaps(short, alpha=1.0, seed=0)
    one_frame = Signal(samples=np.ones(8000), sample_rate_hz=8000.0)
    assert len(gapped_frames(one_frame,
                             insert_silence_gaps(one_frame, 1.0, 0), 1.0)) == 1
    # 0.1 * alpha * 8000 rounds to 0 samples
    for alpha in (0.0, 0.0006):
        with pytest.raises(InvalidInputError, match=re.escape(
                f"1 whole frames, and alpha {alpha!r} gives a 0-sample gap")):
            insert_silence_gaps(one_frame, alpha=alpha, seed=0)


def test_apply_modification_dispatch(bee_clip):
    for kind in ModificationKind:
        # alpha 1.2: an alpha of exactly 1 makes the rate scale a no-op
        params = ModificationParams(kind=kind, alpha=1.2, seed=7)
        out = apply_modification(bee_clip, params)
        assert isinstance(out, Signal)
        assert l2_delta(bee_clip, out) > 0.0


def test_similarity_of_identical_clips_is_one(bee_clip):
    score = stft_similarity(bee_clip, bee_clip)
    assert score.max_xcorr == pytest.approx(1.0, abs=1e-9)
    assert score.lag_frames == 0


def test_stationary_tone_scores_one_up_to_rounding():
    # every lag of a steady tone ties within rounding, so rounding picks the
    # lag, and the score may sit a rounding step above 1; it is not clamped
    t = np.arange(16000) / 8000.0
    tone = Signal(samples=0.5 * np.sin(2 * np.pi * 220 * t),
                  sample_rate_hz=8000.0)
    assert abs(stft_similarity(tone, tone).max_xcorr - 1) <= 1e-12


def test_similarity_recovers_time_shift(bee_clip):
    hop = 0.032
    shift_frames = 8
    pad = np.zeros(int(round(shift_frames * hop * bee_clip.sample_rate_hz)))
    shifted = Signal(samples=np.concatenate([pad, bee_clip.samples]),
                     sample_rate_hz=bee_clip.sample_rate_hz)
    score = stft_similarity(bee_clip, shifted)
    # the padded region drags the score a little below the self-score of 1
    assert score.max_xcorr > 0.85
    assert abs(score.lag_frames - (-shift_frames)) <= 1


def test_similarity_rejects_unrelated_noise(bee_clip):
    rng = np.random.default_rng(0)
    noise = Signal(samples=rng.uniform(-1, 1, len(bee_clip.samples)),
                   sample_rate_hz=bee_clip.sample_rate_hz)
    score = stft_similarity(bee_clip, noise)
    assert score.max_xcorr < 0.3


def test_modified_clips_stay_similar(bee_clip):
    for seed in (0, 1, 2, 3, 4):
        params = pick_modification(seed)
        out = apply_modification(bee_clip, params)
        score = stft_similarity(bee_clip, out)
        assert score.max_xcorr >= 0.5, (params, score)


@pytest.mark.parametrize("level", [0.0, 0.5], ids=["silent", "dc"])
@pytest.mark.parametrize("n", [16000, 12345, 8000])
def test_flat_spectrogram_scores_zero(bee_clip, level, n):
    # a constant clip's log spectrogram is flat; centering it leaves
    # rounding residue that would otherwise score 1 against itself
    flat = Signal(samples=np.full(n, level), sample_rate_hz=8000.0)
    for a, b in ((flat, flat), (flat, bee_clip), (bee_clip, flat)):
        score = stft_similarity(a, b)
        assert (score.max_xcorr, score.lag_frames) == (0.0, 0)
        assert naive_stft_similarity(a, b) == (0.0, 0)


def unmemoized(a, b):
    """stft_similarity(a, b) with no reference spectrogram kept from before."""
    deterrent._reference = None
    return stft_similarity(a, b)


def test_reference_changed_in_place_is_analyzed_again(bee_clip):
    clip = Signal(samples=bee_clip.samples.copy(), sample_rate_hz=8000.0)
    out = overlay_pink_noise(bee_clip, 1.0, 3)
    before = stft_similarity(clip, out)
    clip.samples[:4000] = 0.0
    after = stft_similarity(clip, out)
    assert after == unmemoized(clip, out)
    assert after != before


def test_reference_read_at_a_new_rate_is_analyzed_again(bee_clip):
    faster = modify_frame_rate(bee_clip, 1.3)
    assert faster.samples is bee_clip.samples
    stft_similarity(bee_clip, faster)
    score = stft_similarity(faster, bee_clip)
    assert score == unmemoized(faster, bee_clip)
    assert score != stft_similarity(bee_clip, faster)


def test_swapped_arguments_score_as_without_the_memo(bee_clip):
    out = insert_silence_gaps(bee_clip, 1.0, 5)
    for a, b in ((bee_clip, out), (out, bee_clip), (bee_clip, out)):
        deterrent._reference = None
        want = stft_similarity(a, b)
        stft_similarity(b, a)
        assert stft_similarity(a, b) == want


def test_silent_reference_after_a_bee_clip_scores_zero(bee_clip):
    silent = Signal(samples=np.zeros_like(bee_clip.samples),
                    sample_rate_hz=8000.0)
    stft_similarity(bee_clip, bee_clip)
    score = stft_similarity(silent, bee_clip)
    assert score == unmemoized(silent, bee_clip)
    assert (score.max_xcorr, score.lag_frames) == (0.0, 0)


def traced_peak_with_the_reference_kept(clip, out):
    stft_similarity(clip, out)
    tracemalloc.start()
    try:
        stft_similarity(clip, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_similarity_memory_with_the_reference_kept():
    # the 10 s sweep clip at 8 kHz: 311 frames of 1,024 bins, 2.5 MB each
    # spectrogram; 10.5 MiB traced while the whole complex spectrum was held
    clip = synth_bee_buzz(duration_s=10.0, seed=derive_seed(1, "clip"))
    out = overlay_pink_noise(clip, 1.0, 3)
    assert traced_peak_with_the_reference_kept(clip, out) < 8 * 2**20


def test_similarity_memory_of_a_draw_read_at_a_lower_rate():
    # 445 frames at 0.7 times the rate, and the reference interpolated onto
    # their grid; 16.8 MiB traced while the whole complex spectrum was held
    # and the log spectrograms and the interpolation were made in copies
    clip = synth_bee_buzz(duration_s=10.0, seed=derive_seed(1, "clip"))
    out = modify_frame_rate(clip, 0.7)
    assert traced_peak_with_the_reference_kept(clip, out) < 12 * 2**20


def assert_kept_reference_changes_nothing(pairs):
    """stft_similarity over pairs, in order with its record kept, gives the
    scores of fresh calls and of one pass over whole spectrograms, exactly."""
    deterrent._reference = None
    got = [stft_similarity(a, b) for a, b in pairs]
    assert got == [unmemoized(a, b) for a, b in pairs]
    assert ([(s.max_xcorr, s.lag_frames) for s in got]
            == [whole_stft_similarity(a, b) for a, b in pairs])


def edited(clip, start, stop, factor):
    samples = clip.samples.copy()
    samples[start:stop] *= factor
    return Signal(samples=samples, sample_rate_hz=clip.sample_rate_hz)


def test_kept_reference_scores_the_sweep_draws_exactly():
    clip = synth_bee_buzz(duration_s=10.0, seed=derive_seed(1, "clip"))
    assert_kept_reference_changes_nothing([
        (clip, apply_modification(clip, pick_modification(
            derive_seed(1, "draw", i)))) for i in range(16)])


def test_kept_reference_with_a_louder_then_a_quieter_draw(bee_clip):
    louder, quieter = (edited(bee_clip, 4000, 6000, f) for f in (4.0, 0.25))
    peak = compute_stft(bee_clip, deterrent.SIMILARITY_FRAME_S,
                        deterrent.SIMILARITY_HOP_S).magnitudes.max()
    for draw, is_louder in ((louder, True), (quieter, False)):
        mags = compute_stft(draw, deterrent.SIMILARITY_FRAME_S,
                            deterrent.SIMILARITY_HOP_S).magnitudes
        assert bool(mags.max() > peak) is is_louder
    assert_kept_reference_changes_nothing(
        [(bee_clip, louder), (bee_clip, quieter), (bee_clip, louder)])


@pytest.mark.parametrize("n", [16000, 62 * 256], ids=["tail", "whole_hops"])
def test_kept_reference_with_an_equal_draw_or_one_end_changed(bee_clip, n):
    # 16,000 samples leave a tail that no frame covers; 62 hops of 256 end
    # with the last frame, so a change in the last sample reaches one frame
    clip = Signal(samples=bee_clip.samples[:n], sample_rate_hz=8000.0)
    same = Signal(samples=clip.samples.copy(), sample_rate_hz=8000.0)
    first, last = edited(clip, 0, 1, -1.0), edited(clip, -1, None, -1.0)
    assert_kept_reference_changes_nothing(
        [(clip, same), (clip, first), (clip, last)])
    assert stft_similarity(clip, same).max_xcorr == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0.5, 0.7, 1.3]), st.integers(3, 40), st.integers(1, 99),
       st.lists(st.tuples(st.floats(0, 1), st.integers(1, 2000),
                          st.floats(0, 2)), min_size=1, max_size=4),
       st.floats(0.5, 1.5))
def test_kept_reference_on_partial_hops(scale, hops, part, edits, alpha):
    # a clip of whole hops plus part of one, edited in runs, read again at
    # its own rate, and reinterpreted at alpha times that rate
    rate = 8000.0 * scale
    hop = int(round(deterrent.SIMILARITY_HOP_S * rate))
    n = hops * hop + max(1, part * hop // 100)
    clip = synth_bee_buzz(duration_s=n / rate, sample_rate_hz=rate, seed=hops)
    assert len(clip.samples) % hop != 0
    draw = clip
    for at, length, factor in edits:
        start = int(at * (n - 1))
        draw = edited(draw, start, start + length, factor)
    assert_kept_reference_changes_nothing(
        [(clip, draw), (clip, modify_frame_rate(clip, alpha)), (clip, draw)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("which", ["a", "b"])
def test_a_non_finite_sample_is_rejected_by_argument(bee_clip, bad, which):
    broken = edited(bee_clip, 100, 101, bad)
    args = (broken, bee_clip) if which == "a" else (bee_clip, broken)
    for fn in (stft_similarity, l2_delta):
        with pytest.raises(InvalidInputError, match=f"clip {which} has a NaN"):
            fn(*args)


def test_a_kept_reference_made_non_finite_in_place_is_rejected(bee_clip):
    clip = Signal(samples=bee_clip.samples.copy(), sample_rate_hz=8000.0)
    stft_similarity(clip, bee_clip)
    clip.samples[5] = float("nan")
    with pytest.raises(InvalidInputError, match="clip a has a NaN"):
        stft_similarity(clip, bee_clip)


def assert_matches_loop(a, b):
    score = stft_similarity(a, b)
    best, lag = naive_stft_similarity(a, b)
    assert type(score.max_xcorr) is float and type(score.lag_frames) is int
    assert score.lag_frames == lag
    assert abs(score.max_xcorr - best) <= 1e-12


def test_similarity_matches_loop_on_sweep_draws():
    # the 16 draws of the seed-1 deterrent sweep benchmark, on its 10 s clip
    clip = synth_bee_buzz(duration_s=10.0, seed=derive_seed(1, "clip"))
    for i in range(16):
        out = apply_modification(clip, pick_modification(derive_seed(1, "draw", i)))
        assert_matches_loop(clip, out)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(list(ModificationKind)),
       st.floats(0.5, 1.5), st.floats(0.2, 3.0), st.booleans())
def test_similarity_matches_loop(seed, kind, alpha, clip_s, swap):
    clip = synth_bee_buzz(duration_s=clip_s, seed=seed)
    params = ModificationParams(kind, alpha, seed)
    if kind is ModificationKind.SILENCE_GAPS and \
            len(clip.samples) < clip.sample_rate_hz:
        # no whole 1 s frame holds the forced gap
        with pytest.raises(InvalidInputError, match="0 whole frames"):
            apply_modification(clip, params)
        return
    out = apply_modification(clip, params)
    assert_matches_loop(*((out, clip) if swap else (clip, out)))


def int_rows(bins):
    return st.lists(st.lists(st.integers(-1, 1), min_size=bins, max_size=bins),
                    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda bins: st.tuples(int_rows(bins),
                                                        int_rows(bins))))
def test_lag_search_matches_loop_exactly(rows):
    # on small integers every sum is exact, so the scores agree bit for bit
    # and the zero-overlap skip and the first-lag tie rule are both hit
    la, lb = (np.array(r, dtype=float) for r in rows)
    try:
        want = naive_best_lag(la, lb)
    except ValueError:
        with pytest.raises(InvalidInputError, match="no overlapping frames"):
            deterrent._best_lag(la, lb)
        return
    got = deterrent._best_lag(la, lb)
    assert (got.max_xcorr, got.lag_frames) == want


def test_lag_search_skips_zero_overlaps_and_keeps_the_first_tie():
    la = np.array([[1.0], [0.0], [1.0]])
    got = deterrent._best_lag(la, np.array([[1.0]]))
    assert (got.max_xcorr, got.lag_frames) == (1.0, 0)
    got = deterrent._best_lag(np.array([[1.0]]), la)
    assert (got.max_xcorr, got.lag_frames) == (1.0, -2)
    # the 1e-18 energy of the last row vanishes from the cumulative sum, so
    # lag 1 has a live row but no norm: it is skipped, never divided by 0
    got = deterrent._best_lag(np.array([[1.0], [1e-9]]), np.array([[1.0]]))
    assert (got.max_xcorr, got.lag_frames) == (1.0, 0)


def test_l2_delta_same_grid(bee_clip):
    assert l2_delta(bee_clip, bee_clip) == 0.0
    bumped = Signal(samples=bee_clip.samples * 1.01,
                    sample_rate_hz=bee_clip.sample_rate_hz)
    assert l2_delta(bee_clip, bumped) == pytest.approx(0.01, rel=1e-9)


def test_l2_delta_of_a_silent_reference_is_finite():
    # a silent reference has no norm to divide by; a stand-in of 1e-30
    # keeps the distance finite and zero only for another silent clip
    silent = Signal(samples=np.zeros(100), sample_rate_hz=100.0)
    assert l2_delta(silent, silent) == 0.0
    same_grid = Signal(samples=np.full(100, 0.5), sample_rate_hz=100.0)
    assert l2_delta(silent, same_grid) == pytest.approx(5.0e30)
    # the resampled path, onto the finer grid of a clip at twice the rate
    assert l2_delta(silent, Signal(samples=np.zeros(200),
                                   sample_rate_hz=200.0)) == 0.0
    resampled = Signal(samples=np.ones(200), sample_rate_hz=200.0)
    assert l2_delta(silent, resampled) == pytest.approx(200 ** 0.5 * 1e30)


def test_l2_delta_sees_rate_change(bee_clip):
    out = modify_frame_rate(bee_clip, 1.3)
    assert l2_delta(bee_clip, out) > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_modification_never_silences_or_blows_up(seed):
    rng = np.random.default_rng(41)
    clip = Signal(samples=0.5 * np.sin(2 * np.pi * 220.0
                                       * np.arange(16000) / 8000.0),
                  sample_rate_hz=8000.0)
    params = pick_modification(seed)
    out = apply_modification(clip, params)
    assert np.all(np.isfinite(out.samples))
    assert float(np.max(np.abs(out.samples))) <= 1.0 + 1e-12
    assert float(np.sqrt(np.mean(out.samples ** 2))) > 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.5, 1.5, allow_nan=False))
def test_gaps_always_fit_their_frames(seed, alpha):
    # 3.5 s: the half frame at the end must stay untouched
    clip = Signal(samples=np.ones(28000), sample_rate_hz=8000.0)
    out = insert_silence_gaps(clip, alpha=alpha, seed=seed)
    assert len(gapped_frames(clip, out, alpha)) >= 1
