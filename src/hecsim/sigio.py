"""File formats: PCM16 WAV audio, seismic trace CSV, and JSON-lines records.

All parsers report the byte offset of the first fault so a bad file can be
inspected directly.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .signals import Signal

_PCM16_FULL_SCALE = 32767.0


def save_wav(clip: Signal, path: str | Path) -> None:
    """Write a mono PCM16 WAV file; samples are clamped to [-1, 1]."""
    x = np.clip(clip.samples, -1.0, 1.0)
    ints = np.round(x * _PCM16_FULL_SCALE).astype(np.int16)
    data = ints.tobytes()
    rate = int(round(clip.sample_rate_hz))
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def load_wav(path: str | Path) -> Signal:
    """Read a mono PCM16 WAV file written by save_wav or compatible tools."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ParseError("file too short for a RIFF header", byte_offset=0)
    if raw[0:4] != b"RIFF":
        raise ParseError("missing RIFF magic", byte_offset=0)
    if raw[8:12] != b"WAVE":
        raise ParseError("missing WAVE form type", byte_offset=8)

    offset = 12
    rate = None
    samples = None
    while offset + 8 <= len(raw):
        chunk_id = raw[offset:offset + 4]
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        body_start = offset + 8
        if body_start + size > len(raw):
            raise ParseError(f"truncated {chunk_id!r} chunk", byte_offset=len(raw))
        if chunk_id == b"fmt ":
            if size < 16:
                raise ParseError("fmt chunk too short", byte_offset=body_start)
            audio_format, channels, rate_raw, _, _, bits = struct.unpack_from(
                "<HHIIHH", raw, body_start)
            if audio_format != 1:
                raise ParseError(f"unsupported audio format {audio_format}",
                                 byte_offset=body_start)
            if channels != 1:
                raise ParseError(f"expected mono, got {channels} channels",
                                 byte_offset=body_start + 2)
            if bits != 16:
                raise ParseError(f"expected 16-bit samples, got {bits}",
                                 byte_offset=body_start + 14)
            rate = float(rate_raw)
        elif chunk_id == b"data":
            if rate is None:
                raise ParseError("data chunk before fmt chunk", byte_offset=offset)
            if size % 2 != 0:
                raise ParseError("odd data chunk size for 16-bit samples",
                                 byte_offset=offset + 4)
            ints = np.frombuffer(raw, dtype="<i2", count=size // 2, offset=body_start)
            samples = np.clip(ints.astype(np.float64) / _PCM16_FULL_SCALE, -1.0, 1.0)
        # chunks are word-aligned: odd sizes carry a pad byte
        offset = body_start + size + (size % 2)
    if samples is None:
        raise ParseError("no data chunk found", byte_offset=len(raw))
    return Signal(samples=samples, sample_rate_hz=rate)


def save_trace_csv(trace: Signal, path: str | Path) -> None:
    """One sample per line after a '# sample_rate_hz=...' header.

    repr() formatting keeps the round trip bit-identical.
    """
    lines = [f"# sample_rate_hz={trace.sample_rate_hz!r}"]
    if trace.start_time_s != 0.0:
        lines.append(f"# start_time_s={trace.start_time_s!r}")
    lines.extend(repr(float(v)) for v in trace.samples)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


def load_trace_csv(path: str | Path) -> Signal:
    """Read a trace written by save_trace_csv; NaN and infinity are faults.

    Each header comes once, before the first sample.
    """
    raw = Path(path).read_bytes()
    text = raw.decode("ascii", errors="replace")
    offset = 0
    headers: dict[str, float] = {}
    values: list[float] = []
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("#"):
            key, _, val = stripped[1:].strip().partition("=")
            key = key.strip()
            if values or key in headers:
                where = "after the first sample" if values else "given twice"
                raise ParseError(f"header {key!r} {where}", byte_offset=offset)
            try:
                if key not in ("sample_rate_hz", "start_time_s"):
                    raise ValueError
                headers[key] = _finite(val)
            except ValueError:
                raise ParseError(f"bad header line {stripped!r}", byte_offset=offset)
        elif stripped:
            if "sample_rate_hz" not in headers:
                raise ParseError("sample before the sample_rate_hz header",
                                 byte_offset=offset)
            try:
                values.append(_finite(stripped))
            except ValueError:
                raise ParseError(f"bad sample value {stripped!r}", byte_offset=offset)
        offset += len(line.encode("ascii", errors="replace"))
    if "sample_rate_hz" not in headers:
        raise ParseError("missing sample_rate_hz header", byte_offset=0)
    return Signal(samples=np.array(values, dtype=np.float64),
                  sample_rate_hz=headers["sample_rate_hz"],
                  start_time_s=headers.get("start_time_s", 0.0))


# the encoder json.dumps(rec, sort_keys=True) builds anew for every call
_encode = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(records: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(_encode(rec) + "\n")
