"""The scoring wire: protocol vocabulary, frames and codecs.

Every serving path — ``repro serve`` on stdin/stdout and the socket
daemons — decodes and encodes through this module, so the paths cannot
drift apart.  Success frames are ``{"ok": true, ...payload...}``; error
frames are::

    {"ok": false, "code": "<machine-readable>", "error": "<human text>"}

with the request ``"id"`` echoed on both when the request carried one.
The error ``code`` is one of the ``ERROR_*`` constants below, so
clients (see :class:`repro.api.client.ScoringClient`) can dispatch on
it without parsing prose.

Two codecs are registered:

* ``json`` — one JSON object per line in, one per line out.  Every
  connection starts here, and clients that never negotiate stay here.
* ``binary-v2`` — length-prefixed packed frames for the hot verbs::

      u32 payload_len (LE) | u8 frame_type | payload

  ====== =================== =========================================
  type   name                payload
  ====== =================== =========================================
  0x00   JSON                one UTF-8 JSON object (any verb, any error)
  0x01   PREDICT             i64 id | u32 n | f32[n] features
  0x02   BATCH               i64 id | u32 rows | u32 cols
                             | f32[rows*cols]
  0x03   PREDICT_STREAM      u32 count | u32 cols | i64 ids[count]
                             | f32[count*cols] rows
  0x81   PREDICTION          i64 id | i32 prediction
  0x82   PREDICTIONS         i64 id | u32 n | i32[n] predictions
  0x83   PREDICTIONS_STREAM  u32 count | i64 ids[count]
                             | i32 preds[count]
  ====== =================== =========================================

  All integers are little-endian; an ``id`` of ``-2**63`` means "no
  request id".  Feature payloads are contiguous float32 arrays — a
  batch row never materializes a per-row Python list server-side.
  Anything that is not a hot-path predict travels as an embedded JSON
  frame (0x00), so admin verbs, model routing and every error shape
  work identically under both codecs.

  A PREDICT_STREAM packs *count* **independent** single-row requests
  (one id + one f32 row each) into one frame, so a pipelined client
  flushes its whole in-flight window with one send instead of one
  frame (and one syscall) per row.  The server decodes it to a
  :class:`PredictStream` — two ``np.frombuffer`` views, never Python
  floats — and answers each coalesced chunk with packed
  PREDICTIONS_STREAM frames scatter-gathered by request id.  Rows that
  fail validation are answered individually as embedded JSON error
  frames; the response streams carry only successes, so every id is
  answered exactly once either way.  Stream requests always score the
  connection's *default* model — model-routed rows use the per-request
  PREDICT frames.

Codecs are negotiated per connection: a client opens with the JSON
request ``{"cmd": "hello", "codecs": ["binary-v2"]}`` and the server
answers ``{"ok": true, "codec": "<chosen>"}`` *in the old codec*, then
both sides switch.  Unknown codec names are skipped — a hello offering
only unknown codecs falls back to ``json`` — and clients that never
send hello are never switched.

Size guards: a JSON line longer than :data:`MAX_REQUEST_BYTES` draws a
typed ``too_large`` frame, and so does a binary frame whose declared
payload length exceeds it — followed by a teardown, because the stream
cannot be trusted.  A malformed frame inside a negotiated binary stream
draws a typed ``invalid_frame`` error followed by a clean teardown —
unlike a JSON line, a corrupted length-prefixed stream has no newline
to resync on.  JSON that cannot be parsed, nested too deeply included,
draws a typed ``invalid_json`` frame on either codec (on a binary
connection followed by the same teardown).
"""

from __future__ import annotations

import json
import struct

import numpy as np

# -- the protocol vocabulary -----------------------------------------------

#: the request line was not valid JSON at all.
ERROR_INVALID_JSON = "invalid_json"
#: the request decoded but could not be served (unknown kernel, missing
#: features, bad shapes, unsupported verb, non-object request, ...).
ERROR_BAD_REQUEST = "bad_request"
#: the server hit an unexpected condition; the connection survives.
ERROR_INTERNAL = "internal"
#: the request named a model key the serving fleet does not know and
#: cannot load (see :mod:`repro.api.fleet`).
ERROR_UNKNOWN_MODEL = "unknown_model"
#: the request line exceeded :data:`MAX_REQUEST_BYTES`.
ERROR_TOO_LARGE = "too_large"
#: a frame on a negotiated binary connection could not be decoded
#: (unknown frame type, truncated or inconsistent payload); the
#: connection is torn down after answering, because a length-prefixed
#: stream cannot be resynchronized.
ERROR_INVALID_FRAME = "invalid_frame"
#: the server is draining (graceful shutdown: it answers in-flight
#: work but accepts no new scoring requests).  Clients should retry on
#: another endpoint — :class:`repro.api.client.ScoringClient` treats
#: this code as retryable and re-resolves the shard registry, so a
#: drained shard hands its traffic to its siblings (see
#: :mod:`repro.api.supervisor`).
ERROR_DRAINING = "draining"

ERROR_CODES = (
    ERROR_INVALID_JSON,
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_UNKNOWN_MODEL,
    ERROR_TOO_LARGE,
    ERROR_INVALID_FRAME,
    ERROR_DRAINING,
)

#: upper bound on one request line (16 MiB — a ~40k-row batch of the
#: paper's 24-feature vectors fits comfortably).  Decoding refuses
#: longer lines with a typed ``too_large`` frame instead of burning CPU
#: JSON-parsing unbounded input.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: upper bound on one response line, enforced *client-side* by
#: :class:`repro.api.client.ScoringClient`: a misbehaving or
#: desynchronized server streaming bytes without a newline must not
#: grow the client's receive buffer without limit.  Mirrors the
#: server-side request guard.
MAX_RESPONSE_BYTES = MAX_REQUEST_BYTES


def request_id(request) -> object | None:
    """The correlation id of a decoded request, if it carries one."""
    if isinstance(request, dict) and "id" in request:
        return request["id"]
    return None


def ok_frame(payload: dict, req_id=None) -> dict:
    """A success frame carrying *payload*, echoing the request id."""
    frame: dict = {"ok": True}
    if req_id is not None:
        frame["id"] = req_id
    frame.update(payload)
    return frame


def error_frame(code: str, message: str, req_id=None) -> dict:
    """A typed error frame (``ok=false`` + machine-readable ``code``)."""
    frame: dict = {"ok": False, "code": code, "error": message}
    if req_id is not None:
        frame["id"] = req_id
    return frame


def encode_frame(frame: dict) -> str:
    """Serialize one response frame, newline-terminated."""
    return json.dumps(frame) + "\n"


CODEC_JSON = "json"
CODEC_BINARY_V2 = "binary-v2"

#: codecs a server offers by default, in server preference order.  The
#: JSON codec is always the pre-negotiation state and the fallback.
DEFAULT_CODECS = (CODEC_BINARY_V2, CODEC_JSON)

#: binary frame header: u32 payload length (LE) + u8 frame type.
HEADER = struct.Struct("<IB")
_U32 = struct.Struct("<I")

FRAME_JSON = 0x00
FRAME_PREDICT = 0x01
FRAME_BATCH = 0x02
FRAME_PREDICT_STREAM = 0x03
FRAME_PREDICTION = 0x81
FRAME_PREDICTIONS = 0x82
FRAME_PREDICTIONS_STREAM = 0x83

_PREDICT_HEAD = struct.Struct("<qI")    # id, n_features
_BATCH_HEAD = struct.Struct("<qII")     # id, rows, cols
_PREDICTION_FULL = struct.Struct("<IBqi")  # header + id + prediction
_PREDICTION_BODY = struct.Struct("<qi")
_PREDICTIONS_HEAD = struct.Struct("<qI")   # id, n
_STREAM_HEAD = struct.Struct("<II")        # count, cols
_PSTREAM_HEAD = struct.Struct("<I")        # count

#: the i64 sentinel meaning "this request carried no id".
NO_ID = -(2 ** 63)

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1
_I32_MIN, _I32_MAX = -(2 ** 31), 2 ** 31 - 1


# -- the JSON shell ---------------------------------------------------------


def prediction_frame(req_id, prediction: int) -> str:
    """An encoded single-prediction success frame.

    Byte-identical to ``encode_frame(ok_frame(...))`` but skips the
    dict build and ``json.dumps`` for the int/absent request ids every
    sane client sends — a few µs per row that matter at tens of
    thousands of rows per second.
    """
    if req_id is None:
        return '{"ok": true, "prediction": %d}\n' % prediction
    if type(req_id) is int:
        return '{"ok": true, "id": %d, "prediction": %d}\n' % (
            req_id, prediction)
    return encode_frame(ok_frame({"prediction": prediction}, req_id))


def too_large_frame(n_bytes: int) -> dict:
    return error_frame(
        ERROR_TOO_LARGE,
        f"request line is {n_bytes} bytes; the protocol "
        f"accepts at most {MAX_REQUEST_BYTES}")


def flood_frame() -> dict:
    return error_frame(
        ERROR_TOO_LARGE,
        f"request line exceeds {MAX_REQUEST_BYTES} bytes "
        f"without a newline; closing the connection")


def _parse_json(raw: bytes):
    """``(request, None)`` or ``(None, typed error frame)`` for *raw*.

    The one JSON request parser.  Invalid UTF-8 is a ``ValueError``
    here, and nesting past the interpreter's recursion limit is caught
    too: neither may escape into a serving loop.  A JSON ``null`` is
    answered here as the non-object request it is, because a ``None``
    request would read as a blank line and go unanswered.
    """
    try:
        request = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        return None, error_frame(ERROR_INVALID_JSON, f"invalid JSON: {exc}")
    if request is None:
        return None, error_frame(ERROR_BAD_REQUEST,
                                 "request must be a JSON object")
    return request, None


def decode_json_raw(raw: bytes):
    """Decode one raw byte line — THE framing shell of every path.

    Returns ``(request, None)`` on success, ``(None, error_frame)``
    for oversized or malformed lines and ``(None, None)`` for blank
    lines.  ``json.loads`` accepts the bytes directly, skipping a
    per-line utf-8 decode + copy.
    """
    if len(raw) > MAX_REQUEST_BYTES:
        return None, too_large_frame(len(raw))
    raw = raw.strip()
    if not raw:
        return None, None
    return _parse_json(raw)


def _parse_json_response(raw: bytes):
    """Client-side JSON parse: any undecodable frame is a ``ValueError``."""
    try:
        return json.loads(raw)
    except RecursionError as exc:
        raise ValueError(f"undecodable JSON frame: {exc}") from None


def _json_safe(frame: dict) -> dict:
    """Re-list ndarray payload fields so json.dumps accepts the frame.

    The client builds ``rows``/``features`` as arrays under the binary
    codec; when a retry lands on a JSON-only server the same request
    dict must still encode.
    """
    out = None
    for key in ("rows", "features"):
        value = frame.get(key)
        if isinstance(value, np.ndarray):
            out = dict(frame) if out is None else out
            out[key] = value.tolist()
    return out if out is not None else frame


# -- codecs ----------------------------------------------------------------


class JsonCodec:
    """JSON lines: the pre-negotiation codec every connection starts in."""

    name = CODEC_JSON

    # server side
    def decode_request(self, raw: bytes):
        return decode_json_raw(raw)

    def encode_response(self, frame: dict) -> bytes:
        return encode_frame(frame).encode("utf-8")

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return prediction_frame(req_id, prediction).encode("utf-8")

    # client side
    def encode_request(self, frame: dict) -> bytes:
        return (json.dumps(_json_safe(frame)) + "\n").encode("utf-8")

    def decode_response(self, raw: bytes):
        return _parse_json_response(raw)  # ValueError on garbage


class PredictStream:
    """A decoded ``FRAME_PREDICT_STREAM``: N independent single-row
    requests that never became Python objects.

    ``ids`` is an ``<i8`` array of per-row request ids and ``rows`` a
    ``(count, cols)`` ``<f4`` matrix — both zero-copy
    ``np.frombuffer`` views over the received frame, so decoding a
    stream costs two buffer views regardless of row count.  The
    engine's stream fast path lifts ``rows`` to float64 **once per
    coalesced batch** (exact: every f32 is representable) and answers
    through packed :meth:`BinaryV2Codec.encode_predictions_stream`
    frames paired back by id.
    """

    __slots__ = ("ids", "rows")

    def __init__(self, ids, rows) -> None:
        self.ids = ids
        self.rows = rows

    def __len__(self) -> int:
        return len(self.ids)


class BinaryV2Codec:
    """Length-prefixed packed frames; JSON embedding for cold verbs."""

    name = CODEC_BINARY_V2

    _SINGLE_KEYS = frozenset(("ok", "id", "prediction"))
    _BATCH_KEYS = frozenset(("ok", "id", "predictions"))

    # -- server side -------------------------------------------------------

    def decode_request(self, raw: bytes):
        """Decode one de-framed frame (type byte + payload).

        Hot-path frames decode straight into the request shapes the
        engine already understands: PREDICT_STREAM yields a
        :class:`PredictStream`, PREDICT a ``features`` list (fast-path
        eligible), BATCH ``rows`` as a contiguous float64 matrix — no
        per-row Python lists.
        """
        ftype = raw[0]
        payload = memoryview(raw)[1:]
        try:
            if ftype == FRAME_PREDICT_STREAM:
                count, cols = _STREAM_HEAD.unpack_from(payload)
                if count < 1:
                    raise ValueError(
                        "PREDICT_STREAM must carry at least one row")
                if len(payload) != (_STREAM_HEAD.size + 8 * count
                                    + 4 * count * cols):
                    raise ValueError(
                        f"PREDICT_STREAM declares {count}x{cols} but "
                        f"carries {len(payload) - _STREAM_HEAD.size} "
                        f"payload bytes")
                ids = np.frombuffer(payload, dtype="<i8", count=count,
                                    offset=_STREAM_HEAD.size)
                rows = np.frombuffer(
                    payload, dtype="<f4", count=count * cols,
                    offset=_STREAM_HEAD.size + 8 * count).reshape(
                        count, cols)
                return PredictStream(ids, rows), None
            if ftype == FRAME_PREDICT:
                req_id, n = _PREDICT_HEAD.unpack_from(payload)
                if len(payload) != _PREDICT_HEAD.size + 4 * n:
                    raise ValueError(
                        f"PREDICT declares {n} features but carries "
                        f"{len(payload) - _PREDICT_HEAD.size} payload bytes")
                features = np.frombuffer(
                    payload, dtype="<f4", count=n,
                    offset=_PREDICT_HEAD.size).astype(np.float64).tolist()
                request: dict = {"features": features}
                if req_id != NO_ID:
                    request["id"] = req_id
                return request, None
            if ftype == FRAME_BATCH:
                req_id, rows, cols = _BATCH_HEAD.unpack_from(payload)
                if len(payload) != _BATCH_HEAD.size + 4 * rows * cols:
                    raise ValueError(
                        f"BATCH declares {rows}x{cols} but carries "
                        f"{len(payload) - _BATCH_HEAD.size} payload bytes")
                matrix = np.frombuffer(
                    payload, dtype="<f4",
                    offset=_BATCH_HEAD.size).astype(
                        np.float64).reshape(rows, cols)
                request = {"rows": matrix}
                if req_id != NO_ID:
                    request["id"] = req_id
                return request, None
        except (struct.error, ValueError) as exc:
            return None, error_frame(
                ERROR_INVALID_FRAME,
                f"malformed binary frame (type 0x{ftype:02x}): {exc}")
        if ftype == FRAME_JSON:
            return _parse_json(bytes(payload))
        return None, error_frame(
            ERROR_INVALID_FRAME,
            f"unknown binary frame type 0x{ftype:02x}")

    def encode_response(self, frame: dict) -> bytes:
        if frame.get("ok") is True:
            req_id = frame.get("id", NO_ID)
            if type(req_id) is int and _I64_MIN <= req_id <= _I64_MAX:
                keys = frame.keys()
                if "prediction" in frame and keys <= self._SINGLE_KEYS:
                    p = frame["prediction"]
                    if type(p) is int and _I32_MIN <= p <= _I32_MAX:
                        return _PREDICTION_FULL.pack(
                            _PREDICTION_BODY.size, FRAME_PREDICTION,
                            req_id, p)
                elif "predictions" in frame and keys <= self._BATCH_KEYS:
                    packed = self._pack_predictions(
                        req_id, frame["predictions"])
                    if packed is not None:
                        return packed
        return self._embed_json(frame)

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        if req_id is None:
            req_id = NO_ID
        if (type(req_id) is int and _I64_MIN <= req_id <= _I64_MAX
                and _I32_MIN <= prediction <= _I32_MAX):
            return _PREDICTION_FULL.pack(_PREDICTION_BODY.size,
                                         FRAME_PREDICTION, req_id,
                                         prediction)
        if req_id == NO_ID:
            req_id = None
        return self._embed_json(ok_frame({"prediction": prediction},
                                         req_id))

    def encode_predictions_stream(self, ids, predictions) -> bytes:
        """One PREDICTIONS_STREAM from parallel id/prediction arrays."""
        id_arr = np.ascontiguousarray(ids, dtype="<i8")
        pred_arr = np.ascontiguousarray(predictions, dtype="<i4")
        body = id_arr.tobytes() + pred_arr.tobytes()
        return (HEADER.pack(_PSTREAM_HEAD.size + len(body),
                            FRAME_PREDICTIONS_STREAM)
                + _PSTREAM_HEAD.pack(id_arr.size) + body)

    def _pack_predictions(self, req_id: int, predictions) -> bytes | None:
        if not isinstance(predictions, list):
            return None
        try:
            arr = np.asarray(predictions, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            return None
        if arr.ndim != 1 or (arr.size and (
                arr.max() > _I32_MAX or arr.min() < _I32_MIN)):
            return None
        body = arr.astype("<i4").tobytes()
        return (HEADER.pack(_PREDICTIONS_HEAD.size + len(body),
                            FRAME_PREDICTIONS)
                + _PREDICTIONS_HEAD.pack(req_id, arr.size) + body)

    def _embed_json(self, frame: dict) -> bytes:
        body = json.dumps(frame).encode("utf-8")
        return HEADER.pack(len(body), FRAME_JSON) + body

    # -- client side -------------------------------------------------------

    def encode_request(self, frame: dict) -> bytes:
        keys = frame.keys()
        req_id = frame.get("id", NO_ID)
        if type(req_id) is int and _I64_MIN <= req_id <= _I64_MAX:
            if "features" in frame and keys <= {"id", "features"}:
                body = self._pack_f32(frame["features"], ndim=1)
                if body is not None:
                    return (HEADER.pack(_PREDICT_HEAD.size + len(body),
                                        FRAME_PREDICT)
                            + _PREDICT_HEAD.pack(req_id, len(body) // 4)
                            + body)
            elif "rows" in frame and keys <= {"id", "rows"}:
                rows = frame["rows"]
                try:
                    arr = np.ascontiguousarray(rows, dtype="<f4")
                except (TypeError, ValueError):
                    arr = None
                if arr is not None and arr.ndim == 2:
                    body = arr.tobytes()
                    return (HEADER.pack(_BATCH_HEAD.size + len(body),
                                        FRAME_BATCH)
                            + _BATCH_HEAD.pack(req_id, arr.shape[0],
                                               arr.shape[1])
                            + body)
        return self._embed_json(_json_safe(frame))

    def encode_predict_stream(self, ids, rows) -> bytes:
        """One PREDICT_STREAM from an id array + (n, cols) f32 matrix.

        Built straight from ``(req_id, row)`` arrays — the pipelined
        client never constructs per-request dicts under this codec.
        """
        id_arr = np.ascontiguousarray(ids, dtype="<i8")
        row_arr = np.ascontiguousarray(rows, dtype="<f4")
        body = id_arr.tobytes() + row_arr.tobytes()
        return (HEADER.pack(_STREAM_HEAD.size + len(body),
                            FRAME_PREDICT_STREAM)
                + _STREAM_HEAD.pack(row_arr.shape[0], row_arr.shape[1])
                + body)

    @staticmethod
    def _pack_f32(values, ndim: int) -> bytes | None:
        try:
            arr = np.ascontiguousarray(values, dtype="<f4")
        except (TypeError, ValueError):
            return None
        if arr.ndim != ndim:
            return None
        return arr.tobytes()

    def decode_response(self, raw: bytes):
        ftype = raw[0]
        payload = memoryview(raw)[1:]
        try:
            if ftype == FRAME_PREDICTIONS_STREAM:
                count, = _PSTREAM_HEAD.unpack_from(payload)
                if len(payload) != _PSTREAM_HEAD.size + 12 * count:
                    raise ValueError(
                        f"PREDICTIONS_STREAM declares {count} entries "
                        f"but carries {len(payload) - _PSTREAM_HEAD.size} "
                        f"bytes")
                ids = np.frombuffer(payload, dtype="<i8", count=count,
                                    offset=_PSTREAM_HEAD.size)
                predictions = np.frombuffer(
                    payload, dtype="<i4", count=count,
                    offset=_PSTREAM_HEAD.size + 8 * count)
                return {"ok": True, "stream": (ids, predictions)}
            if ftype == FRAME_PREDICTION:
                req_id, prediction = _PREDICTION_BODY.unpack(payload)
                frame: dict = {"ok": True}
                if req_id != NO_ID:
                    frame["id"] = req_id
                frame["prediction"] = prediction
                return frame
            if ftype == FRAME_PREDICTIONS:
                req_id, n = _PREDICTIONS_HEAD.unpack_from(payload)
                if len(payload) != _PREDICTIONS_HEAD.size + 4 * n:
                    raise ValueError(
                        f"PREDICTIONS declares {n} entries but carries "
                        f"{len(payload) - _PREDICTIONS_HEAD.size} bytes")
                frame = {"ok": True}
                if req_id != NO_ID:
                    frame["id"] = req_id
                frame["predictions"] = np.frombuffer(
                    payload, dtype="<i4", count=n,
                    offset=_PREDICTIONS_HEAD.size).tolist()
                return frame
            if ftype == FRAME_JSON:
                return _parse_json_response(bytes(payload))
        except struct.error as exc:
            raise ValueError(f"truncated binary frame: {exc}") from exc
        raise ValueError(f"unknown binary frame type 0x{ftype:02x}")


JSON_CODEC = JsonCodec()
BINARY_V2_CODEC = BinaryV2Codec()
CODECS = {CODEC_JSON: JSON_CODEC, CODEC_BINARY_V2: BINARY_V2_CODEC}


def get_codec(name: str):
    """The registered codec singleton for *name* (KeyError if unknown)."""
    return CODECS[name]


# -- per-connection state --------------------------------------------------


class WireSession:
    """Per-connection wire state: framing, the active codec, the hello
    handshake, fatal-error bookkeeping and per-codec traffic counters.

    Framing is *lazy* — push bytes in, pull frames out one at a time —
    so a codec switch negotiated by frame N applies to frame N+1 even
    when both arrived in a single ``recv`` chunk.
    """

    __slots__ = ("codec", "offered", "max_bytes", "buf", "fatal",
                 "_pending_error", "requests", "bytes_in", "bytes_out")

    def __init__(self, offered=DEFAULT_CODECS,
                 max_bytes: int = MAX_REQUEST_BYTES) -> None:
        self.codec = JSON_CODEC
        self.offered = tuple(offered)
        self.max_bytes = max_bytes
        self.buf = bytearray()
        self.fatal = False
        self._pending_error: dict | None = None
        self.requests: dict = {}
        self.bytes_in: dict = {}
        self.bytes_out: dict = {}

    # -- framing -----------------------------------------------------------

    def push(self, data: bytes) -> None:
        """Absorb one ``recv`` chunk (counted under the active codec)."""
        name = self.codec.name
        self.bytes_in[name] = self.bytes_in.get(name, 0) + len(data)
        self.buf += data

    def next_frame(self) -> bytes | None:
        """The next complete de-framed frame; None until more bytes land.

        Framing failures that cannot be resynchronized (a newline-less
        JSON flood, a binary frame declaring an oversized payload) set
        :attr:`fatal` and park a typed error frame for
        :meth:`take_pending_error`.
        """
        if self.fatal:
            return None
        if self.codec.name == CODEC_JSON:
            idx = self.buf.find(b"\n")
            if idx < 0:
                if len(self.buf) > self.max_bytes:
                    self.fatal = True
                    self._pending_error = flood_frame()
                return None
            raw = bytes(self.buf[:idx])
            del self.buf[:idx + 1]
            return raw
        if len(self.buf) < HEADER.size:
            return None
        length, = _U32.unpack_from(self.buf)
        if length > self.max_bytes:
            self.fatal = True
            self._pending_error = too_large_frame(length)
            return None
        total = HEADER.size + length
        if len(self.buf) < total:
            return None
        raw = bytes(self.buf[4:total])  # frame type byte + payload
        del self.buf[:total]
        return raw

    def eof_tail(self) -> bytes | None:
        """A final newline-less JSON line at EOF (shutdown(WR) clients).

        Binary framing is self-delimiting, so only the JSON codec has a
        meaningful tail.
        """
        if self.codec.name != CODEC_JSON or self.fatal:
            return None
        tail = bytes(self.buf)
        self.buf.clear()
        return tail if tail.strip() else None

    # -- codec-mediated decode/encode --------------------------------------

    def decode(self, raw: bytes):
        request, error = self.codec.decode_request(raw)
        if request is not None or error is not None:
            name = self.codec.name
            # a stream frame carries N independent requests; counting
            # rows keeps the per-codec request totals comparable across
            # framing styles
            n = (len(request) if type(request) is PredictStream else 1)
            self.requests[name] = self.requests.get(name, 0) + n
        if error is not None and self.codec.name != CODEC_JSON:
            # a malformed frame inside a length-prefixed stream means
            # client and server disagree about the protocol; answer
            # once, then tear down rather than guess at a resync point
            self.fatal = True
        return request, error

    def encode(self, frame: dict) -> bytes:
        return self.codec.encode_response(frame)

    def encode_prediction(self, req_id, prediction: int) -> bytes:
        return self.codec.encode_prediction(req_id, prediction)

    def count_out(self, n: int) -> None:
        """Attribute *n* sent bytes to the active codec."""
        name = self.codec.name
        self.bytes_out[name] = self.bytes_out.get(name, 0) + n

    def take_pending_error(self) -> bytes | None:
        """Encode-and-clear the parked framing error, if any."""
        frame, self._pending_error = self._pending_error, None
        if frame is None:
            return None
        return self.encode(frame)

    # -- negotiation -------------------------------------------------------

    def negotiate(self, request) -> bytes | None:
        """Answer a hello request; ``None`` when it is not a hello.

        The response is encoded in the codec the hello arrived under;
        every frame after it speaks the chosen codec.  Unknown codec
        names are skipped, so a hello offering only unknown codecs
        falls back to JSON — the floor every server speaks.
        """
        if not (isinstance(request, dict)
                and request.get("cmd") == "hello"):
            return None
        req_id = request_id(request)
        offers = request.get("codecs", [])
        if not isinstance(offers, list):
            return self.encode(error_frame(
                ERROR_BAD_REQUEST,
                "hello 'codecs' must be a list of codec names", req_id))
        chosen = CODEC_JSON
        for name in offers:
            if (isinstance(name, str) and name in self.offered
                    and name in CODECS):
                chosen = name
                break
        response = self.encode(ok_frame({"codec": chosen}, req_id))
        self.codec = CODECS[chosen]
        return response


class CodecCounters:
    """Server-side aggregate of per-connection codec activity."""

    def __init__(self, offered=DEFAULT_CODECS) -> None:
        self.offered = tuple(offered)
        self.connections: dict = {}
        self.requests: dict = {}
        self.bytes_in: dict = {}
        self.bytes_out: dict = {}

    def fold(self, wire: WireSession) -> None:
        """Absorb a finished connection's counters (call at close).

        Connections are attributed to the codec they ended on — the
        codec a negotiated client actually did its work in.
        """
        name = wire.codec.name
        self.connections[name] = self.connections.get(name, 0) + 1
        for field in ("requests", "bytes_in", "bytes_out"):
            mine = getattr(self, field)
            for codec_name, n in getattr(wire, field).items():
                mine[codec_name] = mine.get(codec_name, 0) + n

    def snapshot(self) -> dict:
        return {
            "offered": list(self.offered),
            "connections": dict(self.connections),
            "requests": dict(self.requests),
            "bytes_in": dict(self.bytes_in),
            "bytes_out": dict(self.bytes_out),
        }


def merge_codec_stats(sections) -> dict:
    """Sum per-server codec sections (the shard aggregation helper)."""
    merged: dict = {"offered": [], "connections": {}, "requests": {},
                    "bytes_in": {}, "bytes_out": {}}
    for section in sections:
        if not isinstance(section, dict):
            continue
        for name in section.get("offered", []):
            if name not in merged["offered"]:
                merged["offered"].append(name)
        for field in ("connections", "requests", "bytes_in", "bytes_out"):
            for codec_name, n in section.get(field, {}).items():
                merged[field][codec_name] = (
                    merged[field].get(codec_name, 0) + n)
    return merged
