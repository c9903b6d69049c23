"""Wire fuzzing: hostile bytes through ``WireSession`` + ``respond``.

Arbitrary bytes, truncated frames and frames declaring oversized
counts are pushed through the one protocol shell every transport runs
(:class:`repro.api.wire.WireSession` framing plus
:meth:`repro.api.transport.RequestEngine.respond`), on a fresh JSON
session and on one negotiated to ``binary-v2``.  Nothing may escape
as an exception, and every frame must get typed answers (each one a
decodable frame whose error ``code`` is in the published vocabulary)
or end the session as ``fatal``.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Classifier, ReproConfig
from repro.api.transport import RequestEngine
from repro.api.wire import (
    CODEC_BINARY_V2,
    ERROR_CODES,
    FRAME_BATCH,
    FRAME_JSON,
    FRAME_PREDICT,
    FRAME_PREDICT_STREAM,
    HEADER,
    JSON_CODEC,
    WireSession,
)

#: a small frame bound keeps oversized declarations cheap to reach.
MAX_BYTES = 4096

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def engine(tiny_dataset) -> RequestEngine:
    clf = Classifier(ReproConfig(profile="unit")).train(tiny_dataset)
    return RequestEngine(clf, metrics=False)


def _typed(frame) -> None:
    assert isinstance(frame, dict), frame
    if frame.get("ok") is not True:
        assert frame["ok"] is False and frame["code"] in ERROR_CODES, frame


def _check_answer(codec, blob: bytes) -> None:
    """Every frame in *blob*, encoded by *codec*, is a typed answer."""
    assert blob
    if codec is JSON_CODEC:
        lines = blob.split(b"\n")
        assert lines.pop() == b""
        for line in lines:
            _typed(json.loads(line))
        return
    offset = 0
    while offset < len(blob):
        length, = struct.unpack_from("<I", blob, offset)
        end = offset + HEADER.size + length
        frame = codec.decode_response(blob[offset + 4:end])
        if "stream" not in frame:
            _typed(frame)
        offset = end
    assert offset == len(blob)


def _drive(engine, wire, chunks) -> None:
    """Push *chunks* and answer every frame until the stream ends."""
    for chunk in chunks:
        wire.push(chunk)
        while not wire.fatal:
            raw = wire.next_frame()
            if raw is None:
                break
            codec = wire.codec  # a hello is answered in the old codec
            answer = engine.respond(raw, wire)
            if answer is None:
                # only a blank JSON line goes unanswered
                assert codec is JSON_CODEC and not raw.strip(), raw
            else:
                _check_answer(codec, answer)
        if wire.fatal:
            farewell = wire.take_pending_error()
            if farewell is not None:
                _check_answer(wire.codec, farewell)
            return


def _v2_session(engine) -> WireSession:
    wire = WireSession(max_bytes=MAX_BYTES)
    wire.push(b'{"cmd": "hello", "codecs": ["binary-v2"]}\n')
    assert engine.respond(wire.next_frame(), wire) is not None
    assert wire.codec.name == CODEC_BINARY_V2
    return wire


JSON_LINES = st.sampled_from([
    b'{"cmd": "info", "id": 1}\n',
    b'{"cmd": "health"}\n',
    b'{"cmd": "hello", "codecs": ["json"]}\n',
    b'{"cmd": "hello", "codecs": ["binary-v2"]}\n',
    b'{"cmd": "hello", "codecs": "binary-v2"}\n',
    b'{"features": [1.0, 2.0], "id": "x"}\n',
    b'{"rows": [[1.0], [2, 3]]}\n',
    b"null\n",
    b"[" * 5000 + b"\n",
    b'{"id": 1, "note": "\xff\xfe"}\n',
    b"\n",
])


@FUZZ
@given(st.lists(st.one_of(st.binary(max_size=64), JSON_LINES), max_size=8))
def test_fresh_json_session_survives_arbitrary_bytes(engine, chunks):
    wire = WireSession(max_bytes=MAX_BYTES)
    _drive(engine, wire, chunks)
    if not wire.fatal:
        # whatever is left is a partial line; at EOF it is answered too
        tail = wire.eof_tail()
        if tail is not None:
            answer = engine.respond(tail, wire)
            if answer is not None:
                _check_answer(JSON_CODEC, answer)


U32 = st.integers(min_value=0, max_value=2 ** 32 - 1)


@st.composite
def v2_frames(draw) -> bytes:
    """One binary-v2 frame: well-formed, lying about its counts,
    truncated, of an unknown type or declaring an oversized payload."""
    kind = draw(st.sampled_from(
        ["raw", "stream", "predict", "batch", "json", "oversized"]))
    if kind == "oversized":
        return HEADER.pack(draw(st.integers(MAX_BYTES + 1, 2 ** 32 - 1)),
                           draw(st.integers(0, 255)))
    if kind == "raw":
        ftype = draw(st.integers(0, 255))
        payload = draw(st.binary(max_size=96))
    elif kind == "stream":
        count, cols = draw(U32), draw(st.integers(0, 8))
        ftype = FRAME_PREDICT_STREAM
        payload = struct.pack("<II", count, cols)
        if draw(st.booleans()):  # honest sizes for small counts
            count %= 4
            payload = (struct.pack("<II", count, cols)
                       + bytes(8 * count + 4 * count * cols))
        payload += draw(st.binary(max_size=32))
    elif kind == "predict":
        ftype = FRAME_PREDICT
        payload = (struct.pack("<qI", draw(st.integers(-5, 5)), draw(U32))
                   + draw(st.binary(max_size=64)))
    elif kind == "batch":
        ftype = FRAME_BATCH
        payload = (struct.pack("<qII", 1, draw(U32), draw(U32))
                   + draw(st.binary(max_size=64)))
    else:
        ftype = FRAME_JSON
        payload = draw(st.one_of(JSON_LINES, st.binary(max_size=64)))
    frame = HEADER.pack(len(payload), ftype) + payload
    if draw(st.booleans()):
        # truncated: the session must simply wait for more bytes
        frame = frame[:draw(st.integers(0, len(frame)))]
    return frame


@FUZZ
@given(st.lists(v2_frames(), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=64))
def test_binary_v2_session_survives_hostile_frames(engine, frames, split):
    wire = _v2_session(engine)
    stream = b"".join(frames)
    _drive(engine, wire,
           [stream[i:i + split] for i in range(0, len(stream), split)])

