"""Command-line front end.

Stdout is JSON alone, with sorted keys: simulate prints the metrics report
as one indented document, the bytes of metrics.json; detect prints one
object per window, oracle one per event (none when it finds none), and the
others one report each.

Exit codes: 0 on success, 1 on a runtime failure, 2 on a usage error
(bad flags, missing input files). A bad flag prints argparse's usage and
then its error line; every other failure prints one line to stderr.
Subcommands that draw random numbers accept --seed, an integer in
[0, 2**63 - 1]; when it is omitted a fresh seed is drawn from the OS and
echoed in the output so the run can be repeated. synth writes a trace
CSV to a .csv path and a peak-normalized WAV to any other path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .central import (LabeledFrameSet, OracleDetector, StochasticDetector,
                      StochasticDetectorParams, evaluate_ap50)
from .detection import (ORACLE_FRAME_S, ORACLE_HOP_S, Algorithm1Params,
                        detect_stream, match_and_recall, stft_oracle_detect)
from .deterrent import (SIMILARITY_FRAME_S, SIMILARITY_HOP_S,
                        ModificationKind, apply_modification,
                        generate_pink_noise, l2_delta, pick_modification,
                        stft_similarity)
from .errors import InvalidConfigError, InvalidInputError, ParseError
from .harness import Scenario, SimConfig, run_scenario_with_logs
from .signals import RumbleSpec, Signal, compute_stft, sample_count, \
    synth_bee_buzz, synth_rumble
from .sigio import load_trace_csv, load_wav, save_trace_csv, save_wav

MAX_SEED = (1 << 63) - 1


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") & MAX_SEED


def _seed_arg(text: str) -> int:
    """The --seed type: an integer in the range _fresh_seed draws from."""
    if text.isdecimal() and int(text) <= MAX_SEED:
        return int(text)
    raise argparse.ArgumentTypeError(
        f"expected an integer in [0, {MAX_SEED}], got {text!r}")


def _load_trace(path: str) -> Signal:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return load_trace_csv(p)
    if p.suffix.lower() == ".wav":
        return load_wav(p)
    p.stat()  # a missing input is a usage error whatever its suffix
    raise InvalidInputError(f"cannot read a trace from {p.suffix!r} files")


def _peak_normalized(samples: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(samples))) if samples.size else 0.0
    if peak > 1.0:
        return samples * (0.99 / peak)
    return samples


def _emit(obj, indent: int | None = None) -> None:
    print(json.dumps(obj, sort_keys=True, indent=indent))


# ---- subcommand bodies ----

def cmd_detect(args) -> int:
    trace = _load_trace(args.input)
    for det in detect_stream(trace, Algorithm1Params(window_s=args.window_s)):
        _emit({"window": det.window_index, "t_start_s": det.window_start_s,
               "max_run": det.max_run, "ds": det.ds})
    return 0


def cmd_oracle(args) -> int:
    trace = _load_trace(args.input)
    events = stft_oracle_detect(trace, min_event_s=args.min_event_s)
    for i, ev in enumerate(events):
        _emit({"event": i, "t_start_s": ev.t_start_s, "t_end_s": ev.t_end_s,
               "duration_s": ev.duration_s})
    return 0


def cmd_eval_recall(args) -> int:
    trace = _load_trace(args.input)
    params = Algorithm1Params(window_s=args.window_s)
    detections = detect_stream(trace, params)
    events = stft_oracle_detect(trace, min_event_s=args.min_event_s)
    report = match_and_recall(detections, events, ds_min=args.ds_min,
                              window_s=params.window_s)
    _emit({"oracle_events": report.oracle_count,
           "matched": report.matched_count, "recall": report.recall})
    return 0


def cmd_modify_sound(args) -> int:
    clip = load_wav(args.input)
    seed = args.seed if args.seed is not None else _fresh_seed()
    params = pick_modification(seed)
    if args.method is not None:
        params = replace(params, kind=ModificationKind(args.method))
    if args.alpha is not None:
        params = replace(params, alpha=args.alpha)
    modified = apply_modification(clip, params)
    out_path = Path(args.out) if args.out else \
        Path(args.input).with_suffix(".mod.wav")
    save_wav(modified, out_path)
    score = stft_similarity(clip, modified)
    _emit({"input": str(args.input), "output": str(out_path),
           "method": params.kind.value, "alpha": round(params.alpha, 6),
           "seed": seed, "max_xcorr": round(score.max_xcorr, 6),
           "lag_frames": score.lag_frames,
           "l2_delta_rel": round(l2_delta(clip, modified), 6)})
    return 0


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    out = Path(args.out)
    if args.signal == "rumble":
        spec = RumbleSpec(duration_s=args.duration_s, snr_db=args.snr_db)
        signal = synth_rumble(spec, sample_rate_hz=args.rate, seed=seed,
                              total_s=args.total_s, onset_s=args.onset_s)
    elif args.signal == "bee":
        signal = synth_bee_buzz(duration_s=args.duration_s,
                                sample_rate_hz=args.rate, seed=seed)
    else:  # pinknoise
        signal = generate_pink_noise(sample_count(args.duration_s, args.rate),
                                     args.rate, seed)
    if out.suffix.lower() == ".csv":
        save_trace_csv(signal, out)
    else:
        save_wav(replace(signal, samples=_peak_normalized(signal.samples)),
                 out)
    _emit({"signal": args.signal, "out": str(out), "seed": seed,
           "duration_s": args.duration_s, "rate_hz": args.rate})
    return 0


def cmd_simulate(args) -> int:
    scenario = Scenario.load(args.scenario)
    config = SimConfig.load(args.config) if args.config else SimConfig()
    report, _ = run_scenario_with_logs(scenario, config, out_dir=args.out)
    _emit(report.to_json(), indent=2)
    if args.out:
        print(f"metrics written to {Path(args.out) / 'metrics.json'}",
              file=sys.stderr)
    return 0


def cmd_eval_ap50(args) -> int:
    frame_set = LabeledFrameSet.load(args.labels)
    if args.detector == "oracle":
        detector = OracleDetector()
        seed = None  # nothing random to reproduce
    else:
        seed = args.seed if args.seed is not None else _fresh_seed()
        detector = StochasticDetector(seed, StochasticDetectorParams(
            tpr=args.tpr, fpr=args.fpr))
    ap = evaluate_ap50(detector, frame_set)
    _emit({"ap50": round(ap, 6), "detector": args.detector,
           "frames": len(frame_set.frames), "seed": seed})
    return 0


def cmd_spectrogram(args) -> int:
    signal = _load_trace(args.input)
    if Path(args.input).suffix.lower() == ".csv":  # a trace: the tracker's
        defaults = (ORACLE_FRAME_S, ORACLE_HOP_S)
    else:  # a clip: the similarity check's frames
        defaults = (SIMILARITY_FRAME_S, SIMILARITY_HOP_S)
    frame_s = defaults[0] if args.frame_s is None else args.frame_s
    hop_s = defaults[1] if args.hop_s is None else args.hop_s
    gram = compute_stft(signal, frame_s=frame_s, hop_s=hop_s)
    out = Path(args.out)
    with open(out, "w", encoding="ascii") as fh:
        fh.write("t_s," + ",".join(f"{f:.6f}" for f in gram.freqs_hz) + "\n")
        for i, t in enumerate(gram.frame_times_s):
            fh.write(f"{t:.6f}," +
                     ",".join(f"{m:.8e}" for m in gram.magnitudes[i]) + "\n")
    _emit({"out": str(out), "frames": len(gram.frame_times_s),
           "freq_bins": len(gram.freqs_hz), "frame_s": frame_s, "hop_s": hop_s})
    return 0


# ---- parser ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecsim",
        description="Elephant detection, deterrence, and mesh simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="score a seismic trace window by window")
    p.add_argument("--input", required=True)
    p.add_argument("--window-s", type=float, default=4.0, dest="window_s")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="locate rumble events with the STFT tracker")
    p.add_argument("--input", required=True)
    p.add_argument("--min-event-s", type=float, default=3.0, dest="min_event_s")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval-recall",
                       help="windowed detector recall against the STFT tracker")
    p.add_argument("--input", required=True)
    p.add_argument("--window-s", type=float, default=4.0, dest="window_s")
    p.add_argument("--min-event-s", type=float, default=3.0, dest="min_event_s")
    p.add_argument("--ds-min", type=int, default=1, dest="ds_min")
    p.set_defaults(func=cmd_eval_recall)

    p = sub.add_parser("modify-sound",
                       help="apply a seeded random playback modification")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=_seed_arg)
    p.add_argument("--method",
                   choices=[k.value for k in ModificationKind])
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_modify_sound)

    p = sub.add_parser("synth", help="generate test signals")
    p.add_argument("signal", choices=["rumble", "bee", "pinknoise"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed_arg)
    p.add_argument("--duration-s", type=float, default=3.5, dest="duration_s")
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--snr-db", type=float, default=20.0, dest="snr_db")
    p.add_argument("--total-s", type=float, default=None, dest="total_s")
    p.add_argument("--onset-s", type=float, default=0.0, dest="onset_s")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run a scenario end to end")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval-ap50",
                       help="average precision at IoU 0.5 on a labeled set")
    p.add_argument("--labels", required=True)
    p.add_argument("--detector", choices=["oracle", "stochastic"],
                   default="oracle")
    p.add_argument("--tpr", type=float, default=0.9)
    p.add_argument("--fpr", type=float, default=0.05)
    p.add_argument("--seed", type=_seed_arg)
    p.set_defaults(func=cmd_eval_ap50)

    p = sub.add_parser("spectrogram", help="export an STFT magnitude grid")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frame-s", type=float, default=None, dest="frame_s")
    p.add_argument("--hop-s", type=float, default=None, dest="hop_s")
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "signal", None) is not None and args.rate is None:
        # seismic work defaults to 1 kHz, audio to 8 kHz
        args.rate = 1000.0 if args.signal == "rumble" else 8000.0
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"hecsim: {exc}", file=sys.stderr)
        return 2
    except (ParseError, InvalidInputError, InvalidConfigError) as exc:
        print(f"hecsim: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is still one line on stderr
        print(f"hecsim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
