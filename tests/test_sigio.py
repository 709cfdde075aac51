import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecsim.errors import ParseError
from hecsim.signals import Signal
from hecsim.sigio import (load_trace_csv, load_wav, save_trace_csv, save_wav,
                          write_jsonl)


def test_wav_round_trip_is_exact_after_quantization(tmp_path):
    rng = np.random.default_rng(0)
    samples = np.clip(rng.standard_normal(500) * 0.3, -1, 1)
    clip = Signal(samples=samples, sample_rate_hz=8000.0)
    path = tmp_path / "x.wav"
    save_wav(clip, path)
    back = load_wav(path)
    assert back.sample_rate_hz == 8000.0
    quantized = np.round(samples * 32767.0).astype(np.int16) / 32767.0
    assert np.allclose(back.samples, quantized, atol=1e-12)
    # a second pass through the quantizer is the identity
    save_wav(back, tmp_path / "y.wav")
    again = load_wav(tmp_path / "y.wav")
    assert np.array_equal(back.samples, again.samples)


def test_wav_clamps_out_of_range(tmp_path):
    clip = Signal(samples=np.array([2.0, -2.0, 0.0]), sample_rate_hz=1000.0)
    save_wav(clip, tmp_path / "c.wav")
    back = load_wav(tmp_path / "c.wav")
    assert back.samples[0] == pytest.approx(1.0, abs=1e-4)
    assert back.samples[1] == pytest.approx(-1.0, abs=1e-4)


def test_wav_bad_magic_rejected_with_offset(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"NOTARIFF AT ALL....." * 3)
    with pytest.raises(ParseError) as err:
        load_wav(p)
    assert err.value.byte_offset == 0


def test_wav_truncated_data_rejected(tmp_path):
    p = tmp_path / "t.wav"
    clip = Signal(samples=np.zeros(100), sample_rate_hz=1000.0)
    save_wav(clip, p)
    whole = p.read_bytes()
    p.write_bytes(whole[:-10])
    with pytest.raises(ParseError):
        load_wav(p)


def test_wav_skips_unknown_chunks(tmp_path):
    p = tmp_path / "x.wav"
    save_wav(Signal(samples=np.array([0.5, -0.5]), sample_rate_hz=4000.0), p)
    raw = bytearray(p.read_bytes())
    # splice a LIST chunk between fmt and data
    fmt_end = raw.index(b"data")
    extra = b"LIST" + (5).to_bytes(4, "little") + b"INFOx" + b"\x00"  # padded
    patched = raw[:fmt_end] + extra + raw[fmt_end:]
    riff_size = len(patched) - 8
    patched[4:8] = riff_size.to_bytes(4, "little")
    p.write_bytes(bytes(patched))
    back = load_wav(p)
    assert back.sample_rate_hz == 4000.0
    assert len(back.samples) == 2


def _chunk(chunk_id, body):
    pad = b"\x00" * (len(body) % 2)
    return chunk_id + struct.pack("<I", len(body)) + body + pad


def _fmt(audio_format=1, channels=1, bits=16):
    return _chunk(b"fmt ", struct.pack("<HHIIHH", audio_format, channels,
                                       8000, 16000, 2, bits))


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("raw, message, offset", [
    (b"RIFF\x04\x00\x00\x00", "file too short for a RIFF header", 0),
    (b"RIFF\x04\x00\x00\x00AVI ", "missing WAVE form type", 8),
    (_riff(_chunk(b"fmt ", bytes(14)), _chunk(b"data", bytes(2))),
     "fmt chunk too short", 20),
    (_riff(_fmt(audio_format=3), _chunk(b"data", bytes(2))),
     "unsupported audio format 3", 20),
    (_riff(_fmt(channels=2), _chunk(b"data", bytes(4))),
     "expected mono, got 2 channels", 22),
    (_riff(_fmt(bits=8), _chunk(b"data", bytes(2))),
     "expected 16-bit samples, got 8", 34),
    (_riff(_chunk(b"data", bytes(2)), _fmt()),
     "data chunk before fmt chunk", 12),
    (_riff(_fmt(), _chunk(b"data", bytes(3))),
     "odd data chunk size for 16-bit samples", 40),
    (_riff(), "no data chunk found", 12),
], ids=["too_short", "not_wave", "short_fmt", "not_pcm", "stereo", "8_bit",
        "data_before_fmt", "odd_data_size", "no_data"])
def test_wav_faults_name_their_byte_offset(tmp_path, raw, message, offset):
    p = tmp_path / "bad.wav"
    p.write_bytes(raw)
    with pytest.raises(ParseError, match=re.escape(
            f"{message} (byte offset {offset})")) as err:
        load_wav(p)
    assert err.value.byte_offset == offset


@pytest.mark.parametrize("text, message", [
    ("# foo=1\n", "bad header line '# foo=1'"),
    ("", "missing sample_rate_hz header"),
], ids=["unknown_header", "empty_file"])
def test_trace_csv_header_faults_are_at_offset_zero(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=re.escape(
            f"{message} (byte offset 0)")) as err:
        load_trace_csv(p)
    assert err.value.byte_offset == 0


def test_trace_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    trace = Signal(samples=rng.standard_normal(300),
                   sample_rate_hz=1000.0, start_time_s=12.5)
    p = tmp_path / "t.csv"
    save_trace_csv(trace, p)
    back = load_trace_csv(p)
    assert back.sample_rate_hz == trace.sample_rate_hz
    assert back.start_time_s == trace.start_time_s
    assert np.array_equal(back.samples, trace.samples)  # repr() round trip


def test_trace_csv_missing_header_rejected(tmp_path):
    p = tmp_path / "no_header.csv"
    p.write_text("0.1\n0.2\n")
    with pytest.raises(ParseError):
        load_trace_csv(p)


def test_trace_csv_bad_value_reports_offset(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# sample_rate_hz=1000.0\n0.1\nnot-a-number\n")
    with pytest.raises(ParseError) as err:
        load_trace_csv(p)
    assert err.value.byte_offset > 0


@pytest.mark.parametrize("text, bad_line", [
    # a late header would re-rate (or move) the samples read before it
    ("# sample_rate_hz=1000.0\n1.0\n2.0\n# sample_rate_hz=500.0\n3.0\n",
     "# sample_rate_hz=500.0"),
    ("# sample_rate_hz=1000.0\n1.0\n# start_time_s=5.0\n2.0\n",
     "# start_time_s=5.0"),
    ("# sample_rate_hz=1000.0\n# start_time_s=1.0\n# start_time_s=2.0\n"
     "1.0\n", "# start_time_s=2.0"),
    ("# sample_rate_hz=1000.0\n# sample_rate_hz=1000.0\n1.0\n",
     "# sample_rate_hz=1000.0"),
])
def test_trace_csv_late_or_repeated_header_is_a_fault(tmp_path, text,
                                                      bad_line):
    p = tmp_path / "headers.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        load_trace_csv(p)
    assert err.value.byte_offset == text.rindex(bad_line)


def test_jsonl_round_trip(tmp_path):
    rows = [{"b": 2, "a": 1}, {"x": [1, 2, 3]}]
    p = tmp_path / "r.jsonl"
    write_jsonl(rows, p)
    text = p.read_text()
    assert text.splitlines()[0] == '{"a": 1, "b": 2}'  # sorted keys
    assert [json.loads(line) for line in text.splitlines()] == rows


def test_jsonl_writes_what_json_dumps_writes(tmp_path):
    rows = [{"name": "Éléphant ☂ 象", "z": None, "a": True},
            {"nested": {"b": [1.5, {"y": "ü", "x": -0.0}], "a": []}},
            {"f": [0.1, 1e-300, 1.7976931348623157e308, 2.5e16, -3.0],
             "big": 2 ** 70, "nan": float("nan"), "inf": float("-inf")},
            {}]
    p = tmp_path / "r.jsonl"
    write_jsonl(rows, p)
    assert p.read_text(encoding="ascii") == "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in rows)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64),
       st.floats(min_value=1.0, max_value=96000.0,
                 allow_nan=False, allow_infinity=False))
def test_trace_csv_round_trip_property(samples, rate):
    import tempfile
    trace = Signal(samples=np.array(samples), sample_rate_hz=rate)
    with tempfile.TemporaryDirectory() as d:
        p = f"{d}/t.csv"
        save_trace_csv(trace, p)
        back = load_trace_csv(p)
    assert np.array_equal(back.samples, trace.samples)
    assert back.sample_rate_hz == trace.sample_rate_hz
