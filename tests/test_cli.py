import hashlib
import json
from pathlib import Path

import pytest

from hecsim.cli import main
from hecsim.deterrent import pick_modification
from hecsim.signals import RumbleSpec, synth_rumble
from hecsim.sigio import save_trace_csv

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def rumble_csv(tmp_path):
    trace = synth_rumble(RumbleSpec(duration_s=3.5, snr_db=20.0),
                         seed=3, total_s=12.0, onset_s=4.25)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# ---- detect / oracle / eval-recall ----

def test_detect_prints_json_lines(rumble_csv, capsys):
    code, out, err = run_cli(capsys, "detect", "--input", str(rumble_csv))
    assert code == 0 and err == ""
    rows = json_lines(out)
    assert [r["window"] for r in rows] == [0, 1, 2]  # three 4 s windows
    assert rows[1]["ds"] >= 1  # the rumble lives in the second window
    assert set(rows[0]) == {"window", "t_start_s", "max_run", "ds"}


def test_oracle_finds_the_event(rumble_csv, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--input", str(rumble_csv))
    assert code == 0
    rows = json_lines(out)
    assert len(rows) == 1
    assert rows[0]["t_start_s"] == pytest.approx(4.25, abs=0.7)


def test_oracle_reports_no_events_on_noise(tmp_path, capsys):
    trace = synth_rumble(RumbleSpec(duration_s=0.1, snr_db=-40.0),
                         seed=0, total_s=8.0)
    path = tmp_path / "noise.csv"
    save_trace_csv(trace, path)
    code, out, err = run_cli(capsys, "oracle", "--input", str(path))
    assert code == 0
    assert out == "" and err == ""  # one line per event, and there are none


def test_eval_recall_json(rumble_csv, capsys):
    code, out, _ = run_cli(capsys, "eval-recall", "--input", str(rumble_csv))
    assert code == 0
    report = json.loads(out)
    assert report["oracle_events"] == 1
    assert report["matched"] == 1
    assert report["recall"] == 1.0


# ---- synth ----

def test_synth_rumble_csv_round_trips(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code, out, _ = run_cli(capsys, "synth", "rumble", "--out", str(out_path),
                           "--seed", "5", "--total-s", "8.0",
                           "--onset-s", "2.0")
    assert code == 0
    echo = json.loads(out)
    assert echo["seed"] == 5
    assert echo["rate_hz"] == 1000.0  # seismic default
    code, out, _ = run_cli(capsys, "detect", "--input", str(out_path))
    assert any(r["ds"] >= 1 for r in json_lines(out))


def test_synth_bee_defaults_to_audio_rate(tmp_path, capsys):
    out_path = tmp_path / "bee.wav"
    code, out, _ = run_cli(capsys, "synth", "bee", "--out", str(out_path),
                           "--seed", "1", "--duration-s", "1.0")
    assert code == 0
    assert json.loads(out)["rate_hz"] == 8000.0
    assert out_path.stat().st_size > 1000


def test_synth_bee_to_csv_writes_a_trace(tmp_path, capsys):
    # a .csv path gets a trace CSV whatever the signal, not WAV bytes
    bee_csv = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, "synth", "bee", "--out", str(bee_csv),
                         "--seed", "1", "--duration-s", "1.0")
    assert code == 0
    gram = tmp_path / "gram.csv"
    code, _, _ = run_cli(capsys, "spectrogram", "--input", str(bee_csv),
                         "--out", str(gram))
    assert code == 0
    # the top bin sits at Nyquist: the trace was read at 8000 Hz
    header = gram.read_text().splitlines()[0].split(",")
    assert float(header[-1]) == 4000.0


def test_synth_echoes_fresh_seed_and_it_reproduces(tmp_path, capsys):
    a = tmp_path / "a.wav"
    code, out, _ = run_cli(capsys, "synth", "pinknoise", "--out", str(a),
                           "--duration-s", "0.5")
    assert code == 0
    seed = json.loads(out)["seed"]
    assert isinstance(seed, int) and 0 <= seed < 2 ** 63
    b = tmp_path / "b.wav"
    code, _, _ = run_cli(capsys, "synth", "pinknoise", "--out", str(b),
                         "--duration-s", "0.5", "--seed", str(seed))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


# ---- modify-sound ----

@pytest.fixture()
def bee_wav(tmp_path, capsys):
    path = tmp_path / "bee.wav"
    main(["synth", "bee", "--out", str(path), "--seed", "0",
          "--duration-s", "1.0"])
    capsys.readouterr()
    return path


def test_modify_sound_is_seed_deterministic(bee_wav, tmp_path, capsys):
    outputs = []
    reports = []
    for name in ("m1.wav", "m2.wav"):
        out_path = tmp_path / name
        code, out, _ = run_cli(capsys, "modify-sound", "--input", str(bee_wav),
                               "--out", str(out_path), "--seed", "9")
        assert code == 0
        reports.append(json.loads(out))
        outputs.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
    assert outputs[0] == outputs[1]
    assert reports[0]["method"] == reports[1]["method"]
    assert reports[0]["max_xcorr"] == reports[1]["max_xcorr"]
    assert reports[0]["seed"] == 9
    assert reports[0]["max_xcorr"] >= 0.5
    assert reports[0]["l2_delta_rel"] > 0.0


def test_modify_sound_forced_method(bee_wav, tmp_path, capsys):
    out_path = tmp_path / "gaps.wav"
    code, out, _ = run_cli(capsys, "modify-sound", "--input", str(bee_wav),
                           "--out", str(out_path), "--seed", "2",
                           "--method", "silence_gaps", "--alpha", "0.8")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "silence_gaps"
    assert report["alpha"] == 0.8


def test_modify_sound_method_keeps_the_drawn_alpha(bee_wav, tmp_path, capsys):
    # --method replaces the kind pick_modification drew, not its alpha
    code, out, _ = run_cli(capsys, "modify-sound", "--input", str(bee_wav),
                           "--out", str(tmp_path / "gaps.wav"), "--seed", "4",
                           "--method", "silence_gaps")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "silence_gaps"
    assert report["alpha"] == round(pick_modification(4).alpha, 6)


def test_modify_sound_default_output_name(bee_wav, capsys):
    code, out, _ = run_cli(capsys, "modify-sound", "--input", str(bee_wav),
                           "--seed", "4")
    assert code == 0
    expected = bee_wav.with_suffix(".mod.wav")
    assert json.loads(out)["output"] == str(expected)
    assert expected.exists()


# ---- simulate ----

def test_simulate_bundled_scenario(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        capsys, "simulate",
        "--scenario", str(REPO / "scenarios/example_scenario.json"),
        "--config", str(REPO / "scenarios/example_sim.json"),
        "--out", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert report["recall"] == 1.0
    metrics_path = out_dir / "metrics.json"
    assert metrics_path.exists()
    assert "recall" in json.loads(metrics_path.read_text())
    assert str(metrics_path) in err


def test_simulate_without_out_dir_writes_nothing(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate",
        "--scenario", str(REPO / "scenarios/example_scenario.json"))
    assert code == 0
    assert json.loads(out)["recall"] == 1.0
    assert err == ""


# ---- eval-ap50 ----

@pytest.fixture()
def labels_json(tmp_path):
    data = {"frames": [
        {"frame_id": "a", "width": 32, "height": 24, "boxes": [[4, 4, 20, 18]]},
        {"frame_id": "b", "width": 32, "height": 24, "boxes": []},
    ]}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(data))
    return path


def test_eval_ap50_oracle(labels_json, capsys):
    code, out, _ = run_cli(capsys, "eval-ap50", "--labels", str(labels_json))
    assert code == 0
    report = json.loads(out)
    assert report["ap50"] == 1.0
    assert report["frames"] == 2
    assert report["seed"] is None  # the oracle draws nothing


def test_eval_ap50_stochastic_echoes_seed(labels_json, capsys):
    code, out, _ = run_cli(capsys, "eval-ap50", "--labels", str(labels_json),
                           "--detector", "stochastic", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3
    assert 0.0 <= report["ap50"] <= 1.0


def test_eval_ap50_bundled_labels(capsys):
    code, out, _ = run_cli(capsys, "eval-ap50", "--labels",
                           str(REPO / "scenarios/example_labels.json"))
    assert code == 0
    assert json.loads(out) == {"ap50": 1.0, "detector": "oracle",
                               "frames": 2, "seed": None}


def test_eval_ap50_rejects_a_bad_label(labels_json, capsys):
    # a negative width fails at load, before the stochastic detector draws
    # a false-alarm box inside it
    data = json.loads(labels_json.read_text())
    data["frames"][1]["width"] = -5
    labels_json.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "eval-ap50", "--labels",
                             str(labels_json), "--detector", "stochastic",
                             "--fpr", "1", "--seed", "3")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("hecsim: LabeledFrameSet.frames[1]: "), err
    assert "Error" not in err, err


# ---- spectrogram ----

def test_spectrogram_csv_defaults(rumble_csv, tmp_path, capsys):
    out_path = tmp_path / "gram.csv"
    code, out, _ = run_cli(capsys, "spectrogram", "--input", str(rumble_csv),
                           "--out", str(out_path))
    assert code == 0
    echo = json.loads(out)
    assert echo["frame_s"] == 0.5 and echo["hop_s"] == 0.125
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("t_s,")
    assert len(lines) == echo["frames"] + 1


def test_spectrogram_wav_defaults(bee_wav, tmp_path, capsys):
    out_path = tmp_path / "gram.csv"
    code, out, _ = run_cli(capsys, "spectrogram", "--input", str(bee_wav),
                           "--out", str(out_path))
    assert code == 0
    echo = json.loads(out)
    assert echo["frame_s"] == 0.064 and echo["hop_s"] == 0.032


# ---- the output contract ----

def test_every_subcommand_prints_json(rumble_csv, bee_wav, tmp_path, capsys):
    labels = str(REPO / "scenarios/example_labels.json")
    for argv in (("detect", "--input", str(rumble_csv)),
                 ("oracle", "--input", str(rumble_csv)),
                 ("eval-recall", "--input", str(rumble_csv)),
                 ("modify-sound", "--input", str(bee_wav), "--seed", "1"),
                 ("synth", "bee", "--out", str(tmp_path / "b.wav"),
                  "--seed", "1", "--duration-s", "0.5"),
                 ("eval-ap50", "--labels", labels),
                 ("spectrogram", "--input", str(rumble_csv), "--out",
                  str(tmp_path / "gram.csv"))):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.endswith("\n"), argv
        for line in out.splitlines():
            assert isinstance(json.loads(line), dict), (argv, line)
    # simulate prints the metrics report as one indented document
    code, out, _ = run_cli(
        capsys, "simulate",
        "--scenario", str(REPO / "scenarios/example_scenario.json"),
        "--out", str(tmp_path / "run"))
    assert code == 0 and len(out.splitlines()) > 1
    assert out == (tmp_path / "run" / "metrics.json").read_text()
    assert json.loads(out)["scenario"] == "river-crossing"


# ---- failure modes ----

def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "detect", "--input", "missing.csv")
    assert code == 2
    assert err.startswith("hecsim: ")
    assert len(err.strip().splitlines()) == 1
    # a missing file is a usage error before its suffix is looked at
    missing = str(tmp_path / "missing.xyz")
    for argv in (("detect", "--input", missing),
                 ("oracle", "--input", missing),
                 ("eval-recall", "--input", missing),
                 ("spectrogram", "--input", missing, "--out",
                  str(tmp_path / "gram.csv"))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "missing.xyz" in err


def test_unreadable_content_is_a_runtime_error(bee_wav, rumble_csv, tmp_path,
                                               capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("definitely,not,a trace\n1,2,3\n")
    code, _, err = run_cli(capsys, "detect", "--input", str(bad))
    assert code == 1
    assert err.startswith("hecsim: ")
    # non-finite input fails at once instead of scoring as silence or
    # overflowing deep in windowing or WAV writing
    header = "# sample_rate_hz=1000.0\n"
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text(header + "0.0\n" * 4000 + "nan\n" + "0.0\n" * 3999)
    inf_rate = tmp_path / "inf_rate.csv"
    inf_rate.write_text("# sample_rate_hz=inf\n" + "0.0\n" * 8000)
    outs = tmp_path / "outs"
    outs.mkdir()

    def modify(method, alpha):
        return ("modify-sound", "--input", str(bee_wav), "--out",
                str(outs / f"{method}-{alpha}.wav"), "--method", method,
                "--alpha", alpha, "--seed", "1")

    def ap50(flag, value):
        return ("eval-ap50", "--labels",
                str(REPO / "scenarios/example_labels.json"),
                "--detector", "stochastic", flag, value, "--seed", "1")

    def synth(signal, flag, value):
        return ("synth", signal, "--out", str(outs / f"{signal}.wav"),
                flag, value, "--seed", "1")

    for argv, needle in [
            (("detect", "--input", str(nan_csv)),
             f"bad sample value 'nan' (byte offset {len(header) + 4 * 4000})"),
            (("oracle", "--input", str(nan_csv)), "'nan'"),
            # NaN compares false with every event length, so it would keep
            # every blip; a score is 0, 1 or 2, so a ds_min of 0 or 3 would
            # match every window or none
            (("oracle", "--input", str(rumble_csv), "--min-event-s", "nan"),
             "min_event_s must be non-negative, got nan"),
            (("oracle", "--input", str(rumble_csv), "--min-event-s", "-1"),
             "got -1.0"),
            (("eval-recall", "--input", str(rumble_csv), "--min-event-s",
              "nan"), "got nan"),
            (("eval-recall", "--input", str(rumble_csv), "--ds-min", "0"),
             "ds_min must be 1 or 2, got 0"),
            (("eval-recall", "--input", str(rumble_csv), "--ds-min", "3"),
             "ds_min must be 1 or 2, got 3"),
            (("spectrogram", "--input", str(rumble_csv), "--out",
              str(outs / "gram.csv"), "--frame-s", "nan"),
             "frame_s must be non-negative and finite, got nan"),
            (("spectrogram", "--input", str(rumble_csv), "--out",
              str(outs / "gram.csv"), "--hop-s", "inf"),
             "hop_s must be non-negative and finite, got inf"),
            (("detect", "--input", str(inf_rate)), "sample_rate_hz=inf"),
            # a bad window or detector rate names the field and the value
            (("detect", "--input", str(rumble_csv), "--window-s", "nan"),
             "window_s must be positive and finite, got nan"),
            (("detect", "--input", str(rumble_csv), "--window-s", "-4"),
             "window_s must be positive and finite, got -4.0"),
            (("detect", "--input", str(rumble_csv), "--window-s", "inf"),
             "window_s must be positive and finite, got inf"),
            (ap50("--tpr", "nan"), "tpr must lie in [0, 1], got nan"),
            (ap50("--fpr", "2"), "fpr must lie in [0, 1], got 2.0"),
            (modify("frame_rate_scale", "inf"),
             "sample rate must be positive and finite, got inf"),
            # a non-finite alpha fails before any sample is computed, and a
            # bad synthesis rate or duration before synthesis; each message
            # names the value
            (modify("pink_noise_overlay", "nan"), "alpha"),
            (modify("pink_noise_overlay", "inf"), "alpha"),
            (modify("silence_gaps", "inf"), "alpha"),
            (modify("silence_gaps", "nan"), "alpha"),
            (synth("rumble", "--rate", "inf"), "rate"),
            (synth("rumble", "--duration-s", "inf"), "duration"),
            (synth("rumble", "--total-s", "inf"), "duration"),
            (synth("bee", "--duration-s", "inf"), "duration"),
            (synth("bee", "--rate", "0"), "rate"),
            (synth("pinknoise", "--duration-s", "nan"), "duration"),
            (synth("pinknoise", "--rate", "-5"), "rate")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == "" and len(err.strip().splitlines()) == 1, argv
        assert err.startswith("hecsim: ") and needle in err, (argv, err)
        if argv[0] in ("modify-sound", "synth"):
            assert f"got {float(argv[-3])!r}" in err, err
            assert "Error" not in err, err
    assert list(outs.iterdir()) == []


def test_unknown_suffix_is_a_runtime_error(tmp_path, capsys):
    path = tmp_path / "trace.xyz"
    path.write_text("")
    # the spectrogram loads a trace or a clip the same way detect does
    for argv in (("detect", "--input", str(path)),
                 ("spectrogram", "--input", str(path), "--out",
                  str(tmp_path / "gram.csv"))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "xyz" in err


def test_bad_scenario_is_a_runtime_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "broken"}))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert err.startswith("hecsim: ")
    data = json.loads((REPO / "scenarios/example_scenario.json").read_text())
    data["network"]["failover"]["miss_treshold"] = 2
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert err == ("hecsim: Scenario.network.failover: "
                   "unknown key 'miss_treshold'\n")
    data["network"] = {"seed": 5}
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert err == ("hecsim: Scenario: network seed must be 0: the mesh seed "
                   "comes from master_seed\n")
    # the network has no second home in the sim config
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"mesh": {}}))
    code, _, err = run_cli(
        capsys, "simulate",
        "--scenario", str(REPO / "scenarios/example_scenario.json"),
        "--config", str(config))
    assert code == 1
    assert err == "hecsim: SimConfig: unknown key 'mesh'\n"
    # a rumble is a duration and an SNR; its old shape keys are unknown
    data = json.loads((REPO / "scenarios/example_scenario.json").read_text())
    data["events"][0]["rumble"]["envelope"] = "flat"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 1
    assert err == ("hecsim: Scenario.events[0].rumble: "
                   "unknown key 'envelope'\n")


def test_bad_json_exits_one_naming_the_file(tmp_path, capsys):
    bundled = str(REPO / "scenarios/example_scenario.json")
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"frames": [')
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"frames": [{"frame_id": "\xe9", "boxes": []}]}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv, prefix in [
            (["eval-ap50", "--labels", str(truncated)], "LabeledFrameSet"),
            (["eval-ap50", "--labels", str(latin)], "LabeledFrameSet"),
            (["eval-ap50", "--labels", str(deep)], "LabeledFrameSet"),
            (["simulate", "--scenario", str(truncated)], "Scenario"),
            (["simulate", "--scenario", bundled, "--config", str(truncated)],
             "SimConfig")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert len(err.strip().splitlines()) == 1, err
        bad = next((f for f in (latin, deep) if str(f) in argv), truncated)
        assert err.startswith(f"hecsim: {prefix}: {bad}: "), err
        assert "DecodeError" not in err and "RecursionError" not in err, err
    # a file that is not there is still a usage error
    code, _, err = run_cli(capsys, "eval-ap50", "--labels",
                           str(tmp_path / "absent.json"))
    assert code == 2 and "absent.json" in err, err


def test_usage_errors_exit_two(capsys):
    # argparse prints its usage block, then one "hecsim ...: error:" line
    for argv in ([],
                 ["detect"],  # --input is required
                 ["synth", "theremin", "--out", "x.wav"],
                 # a seed lies in [0, 2**63 - 1], the range a fresh seed is
                 # drawn from
                 ["synth", "bee", "--out", "x.wav", "--seed", "-1"],
                 ["synth", "bee", "--out", "x.wav", "--seed", str(2 ** 63)],
                 ["synth", "bee", "--out", "x.wav", "--seed", "1.5"],
                 ["modify-sound", "--input", "x.wav", "--seed", "-3"],
                 ["eval-ap50", "--labels", "x.json",
                  "--detector", "stochastic", "--seed", "-1"],
                 # stdout is always JSON, so no flag asks for it
                 ["detect", "--input", "x.csv", "--json"],
                 ["oracle", "--input", "x.csv", "--json"],
                 ["eval-recall", "--input", "x.csv", "--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("hecsim") and "error:" in last, (argv, last)
        if "--seed" in argv:
            assert "--seed" in last, (argv, last)
