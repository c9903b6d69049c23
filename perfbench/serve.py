"""``serve_rows`` and ``serve_stream``: closed-loop load on ``repro serve``.

Set-up trains the paper's decision tree on the warm-rebuilt ``unit``
dataset, saves it as an artifact and spawns ``repro serve --model
<artifact> --socket <path>``; ``setup_s`` is the median time from
spawning a daemon to its first answered request, over several spawns.

The rows are seeded uniform draws inside each feature's observed range
(rounded to the float32 grid, so both codecs carry identical values),
so they traverse the real tree.  Every answer is compared with the
in-process reference backend's prediction for its row.

The load is the repository's own :class:`repro.api.client.ScoringClient`
-- the client users run -- on one connection driven by one thread,
which makes one call after another and times each call.  The daemon,
the client and the speed probe share one CPU (see README.md):

* ``serve_rows`` -- a JSON connection.  A call is ``predict_pipelined``
  over one window of single-row ``predict`` requests: the client's
  default window (``DEFAULT_PIPELINE_WINDOW``, 32 rows), so every row of
  a call is in flight at once and the daemon's event loop coalesces them;
* ``serve_stream`` -- a binary-v2 connection.  A call is one block of
  10 000 rows (the batch size ``benchmarks/bench_pipeline.py`` measures)
  sent both ways a v2 client sends rows: ``predict_pipelined`` at the
  default window, which flushes it as packed ``PREDICT_STREAM`` frames,
  then ``predict_batch``, one zero-decode block.  Both paths carry the
  same rows, so the mix is 1 : 1 by rows; by time the stream path is
  most of a call.

``wall_s`` (the median call) and ``p90_us`` / ``p99_us`` are medians
over the window's whole seconds of that second's call-latency quantile,
each second scaled to the reference host by the speed probe's chunks of
that second (``probe.py``), so neither a stalled second nor the host's
drift decides a run.  An arrival-schedule (open-loop) generator was not
used: on a small shared box its send times jitter by milliseconds, which
measures the host's timer rather than the daemon.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

from common import (
    SETUP_REPEATS,
    SRC,
    median,
    peak_rss_kib,
    quantile,
    tail_quantile,
)
from data import check_dataset, copy_tracked_cache, warm_rebuild
from probe import Probe
from spans import Tracer

#: distinct rows the load cycles through.
POOL_ROWS = 20_000
#: serve_stream: rows per call (bench_pipeline.py's batch size).
BLOCK_ROWS = 10_000
#: load before the measured window (connection and caches warm up).
WARMUP_S = 0.5
#: a call that sees no reply for this long fails (the client's socket
#: timeout).
REPLY_TIMEOUT_S = 10.0

#: the stages must explain the load thread's wall to within this share.
LEDGER_TOLERANCE = 0.03
#: ledger stages of the traced load loop -> the span names each sums.
STAGES = {
    "client.call": ("client.pipelined", "client.batch"),
    "wire.client_encode": ("wire.client_encode",),
    "socket.recv": ("socket.recv",),
    "wire.client_decode": ("wire.client_decode",),
    "bench": ("bench.rows", "bench.check"),
}


class LoadError(RuntimeError):
    """The daemon could not be started or spoke the wrong codec."""


# -- model and rows -----------------------------------------------------------


class Model:
    """The served artifact, the workload's rows and their expected answers."""

    def __init__(self, ctx) -> None:
        from repro.api import Classifier, ReproConfig

        cache = ctx.ws.sub("unit")
        copy_tracked_cache(cache)
        dataset, _, warm = warm_rebuild(cache, ctx.jobs)
        ctx.checks.check(warm, "warm guard: set-up simulated")
        check_dataset(ctx.checks, dataset, ctx.pins["unit_dataset"],
                      "unit dataset")
        trained = Classifier(ReproConfig(profile="unit")).train(dataset)
        self.artifact = ctx.ws.sub("model.json")
        trained.save(self.artifact)
        X = dataset.matrix(trained.feature_names_)
        rng = np.random.default_rng(ctx.seed)
        self.rows32 = rng.uniform(X.min(axis=0), X.max(axis=0),
                                  size=(POOL_ROWS, X.shape[1])
                                  ).astype("<f4")
        self.rows64 = self.rows32.astype(np.float64)
        self.row_lists = self.rows64.tolist()
        reference = Classifier.load(self.artifact, backend="reference")
        self.expected = np.asarray(reference.predict_batch(self.rows64),
                                   dtype=np.int64)
        self.expected_list = self.expected.tolist()
        ctx.meta.update(features=len(trained.feature_names_),
                        pool_rows=POOL_ROWS,
                        class_mix=np.bincount(self.expected,
                                              minlength=9)[1:].tolist())


# -- the daemon ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess on a Unix socket in the workspace."""

    def __init__(self, ctx, artifact: str, name: str) -> None:
        self.ctx = ctx
        self.artifact = artifact
        self.log_path = ctx.ws.sub(name + ".log")
        # relative paths keep the socket path under the AF_UNIX limit
        # however deep the checkout is
        self.sock_name = name + ".sock"
        self.proc = None

    @property
    def address(self) -> str:
        return os.path.relpath(self.ctx.ws.sub(self.sock_name))

    def client(self, codec: str):
        from repro.api.client import ScoringClient

        return ScoringClient(socket_path=self.address, codec=codec,
                             timeout=REPLY_TIMEOUT_S, reconnect_retries=0)

    def start(self, first_row, expected: int) -> tuple:
        """Spawn, then wait for the first answered request; returns the
        ``perf_counter_ns`` span from spawn to that answer."""
        from repro.errors import ScoringError

        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter_ns()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--model",
                 self.artifact, "--socket", self.sock_name],
                cwd=self.ctx.ws.path, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log)
        deadline = time.perf_counter() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise LoadError(f"daemon exited with {self.proc.returncode}"
                                f"; see {self.log_path}")
            try:
                with self.client("json") as client:
                    answer = client.predict(first_row)
                break
            except ScoringError:
                if time.perf_counter() > deadline:
                    raise LoadError("daemon did not answer within 60 s")
                time.sleep(0.005)
        end = time.perf_counter_ns()
        self.ctx.checks.check(answer == expected, f"first answer {answer}")
        return start, end

    def peak_rss_mib(self) -> float:
        return peak_rss_kib(self.proc.pid) / 1024.0

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- the load -----------------------------------------------------------------


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class Load:
    """Outcome of one load run: the measured calls and the failures."""

    def __init__(self, t_start: int) -> None:
        self.t_start = t_start
        self.calls: list = []    # (end ns, wall ns, rows answered correctly)
        self.rows_sent = 0
        self.rows_failed = 0
        self.errors: list = []

    def _bins(self) -> list:
        """``(start ns, end ns, calls)`` for each whole second of the
        window, holding the calls that ended in it; a partial last
        second is dropped when there are others."""
        bins: dict = {}
        for call in self.calls:
            bins.setdefault((call[0] - self.t_start) // 1_000_000_000,
                            []).append(call)
        keys = sorted(bins)
        return [(self.t_start + k * 1_000_000_000,
                 self.t_start + (k + 1) * 1_000_000_000, bins[k])
                for k in (keys[:-1] if len(keys) > 1 else keys)]

    def per_second(self, rows_per_call: int, probe=None) -> dict:
        """The call-latency quantiles, each the median over the window's
        whole seconds of that second's own quantile, so one stalled
        second on a shared host does not decide a run.

        With a *probe*, each second's quantiles are first scaled to the
        reference host by the probe's chunks of that second (the raw
        medians are kept as ``host.*``).  ``wall_s`` is the median call
        and ``rows_per_s`` the same call as a rate: rows per call over
        its wall.  ``host.rows_per_s`` is the median of each second's
        rows answered correctly per second spent in calls, which also
        counts the host's stalls.  A second's tail (``p99_us``) is its
        highest quantile, capped at p99, with at least 10 calls beyond
        it (the maximum below 20 calls).
        """
        seconds = []
        for start, end, group in self._bins():
            walls = sorted(wall / 1000.0 for _, wall, _ in group)
            rate = (sum(good for _, _, good in group)
                    / (sum(wall for _, wall, _ in group) / 1e9))
            seconds.append((
                probe.factor(start, end) if probe is not None else 1.0,
                quantile(walls, 0.5), quantile(walls, 0.9),
                quantile(walls, tail_quantile(len(walls))), rate,
                len(walls)))
        if not seconds:  # a failed run: _count reports it
            seconds = [(1.0, 0.0, 0.0, 0.0, 0.0, 0)]
        factors, p50s, p90s, tails, rates, counts = zip(*seconds)
        p50_us = median([p / f for p, f in zip(p50s, factors)])
        return {
            "wall_s": p50_us / 1e6,
            "rows_per_s": rows_per_call / p50_us * 1e6 if p50_us else 0.0,
            "p50_us": p50_us,
            "p90_us": median([p / f for p, f in zip(p90s, factors)]),
            "p99_us": median([p / f for p, f in zip(tails, factors)]),
            "host.wall_s": median(p50s) / 1e6,
            "host.rows_per_s": median(rates),
            "host.speed_factor": median(factors),
            "calls_per_second": list(counts),
            "tail_quantile": tail_quantile(min(counts)),
        }


def _calls(model: Model, stream: bool):
    """The workload's calls as ``(rows, expected, call(client))``,
    cycling through the row pool."""
    if stream:
        per_call = BLOCK_ROWS

        def call(client, rows):
            return (client.predict_pipelined(rows)
                    + client.predict_batch(rows))
    else:
        from repro.api.client import DEFAULT_PIPELINE_WINDOW as per_call

        def call(client, rows):
            return client.predict_pipelined(rows)
    start = 0
    while True:
        index = (np.arange(per_call) + start) % POOL_ROWS
        start += per_call
        if stream:
            rows = model.rows32[index]
            expected = np.concatenate([model.expected[index]] * 2).tolist()
        else:
            rows = [model.row_lists[i] for i in index.tolist()]
            expected = [model.expected_list[i] for i in index.tolist()]
        yield rows, expected, call


def drive(daemon: Daemon, model: Model, stream: bool, seconds: float,
          tracer: Tracer | None = None) -> Load:
    """Calls back to back on one connection: WARMUP_S unmeasured, then
    *seconds* measured.

    A call that raises (an error frame, a timeout, a dropped connection)
    counts all its rows as failed; a transport failure ends the load.
    """
    from repro.api.client import ERROR_ID_MISMATCH, ERROR_TRANSPORT
    from repro.errors import ScoringError

    clock = time.perf_counter_ns
    calls = _calls(model, stream)
    with daemon.client("binary-v2" if stream else "json") as client:
        if stream and client.codec != "binary-v2":
            raise LoadError(f"negotiated {client.codec!r}, not binary-v2")
        load = Load(clock() + int(WARMUP_S * 1e9))
        t_start = load.t_start
        t_stop = t_start + int(seconds * 1e9)
        while True:
            with _span(tracer, "bench.rows"):
                rows, expected, call = next(calls)
            begin = clock()
            if begin >= t_stop:
                break
            try:
                got = call(client, rows)
            except ScoringError as exc:
                load.rows_sent += len(expected)
                load.rows_failed += len(expected)
                if len(load.errors) < 3:
                    load.errors.append(f"{exc.code}: {exc}")
                if exc.code in (ERROR_TRANSPORT, ERROR_ID_MISMATCH):
                    break  # the connection is gone or desynchronized
                continue
            end = clock()
            with _span(tracer, "bench.check"):
                good = (len(expected) if got == expected else
                        sum(a == b for a, b in zip(got, expected)))
            load.rows_sent += len(expected)
            load.rows_failed += len(expected) - good
            if begin >= t_start:
                load.calls.append((end, end - begin, good))
    return load


# -- in-process layer timings (traced run) ------------------------------------


def _per_call_s(fn, rounds: int = 5) -> float:
    """Median wall seconds of *fn()* over *rounds* calls."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def json_codec_us(model: Model, n: int = 2000) -> dict:
    """Per-row JSON codec cost on the workload's rows, both directions."""
    from repro.api.wire import JSON_CODEC as codec

    rows = model.row_lists[:n]
    preds = model.expected_list[:n]
    requests = [codec.encode_request({"id": i, "features": r})
                for i, r in enumerate(rows)]
    replies = [codec.encode_prediction(i, p) for i, p in enumerate(preds)]
    cost = {
        "client_encode": _per_call_s(lambda: [
            codec.encode_request({"id": i, "features": r})
            for i, r in enumerate(rows)]),
        "server_decode": _per_call_s(lambda: [
            codec.decode_request(raw) for raw in requests]),
        "server_encode": _per_call_s(lambda: [
            codec.encode_prediction(i, p) for i, p in enumerate(preds)]),
        "client_decode": _per_call_s(lambda: [
            codec.decode_response(raw) for raw in replies]),
    }
    return {k: v / n * 1e6 for k, v in cost.items()}


def v2_codec_us(model: Model) -> dict:
    """binary-v2 codec cost per 1000 rows of one serve_stream call: the
    block as window-sized stream frames plus the block as one batch."""
    from repro.api.client import DEFAULT_PIPELINE_WINDOW as window
    from repro.api.wire import BINARY_V2_CODEC as codec

    rows = model.rows32[:BLOCK_ROWS]
    preds = model.expected[:BLOCK_ROWS]
    ids = np.arange(BLOCK_ROWS, dtype="<i8")
    chunks = range(0, BLOCK_ROWS, window)

    def client_encode():
        out = [codec.encode_predict_stream(ids[i:i + window],
                                           rows[i:i + window])
               for i in chunks]
        out.append(codec.encode_request({"id": 1, "rows": rows}))
        return out

    def server_encode():
        out = [codec.encode_predictions_stream(ids[i:i + window],
                                               preds[i:i + window])
               for i in chunks]
        out.append(codec.encode_response(
            {"ok": True, "id": 1, "predictions": preds.tolist()}))
        return out

    requests = [raw[4:] for raw in client_encode()]
    replies = [raw[4:] for raw in server_encode()]
    cost = {
        "client_encode": _per_call_s(client_encode),
        "server_decode": _per_call_s(
            lambda: [codec.decode_request(raw) for raw in requests]),
        "server_encode": _per_call_s(server_encode),
        "client_decode": _per_call_s(
            lambda: [codec.decode_response(raw) for raw in replies]),
    }
    krows = 2 * BLOCK_ROWS / 1000.0
    return {k: v / krows * 1e6 for k, v in cost.items()}


def predict_ns_per_row(model: Model) -> float:
    from repro.api import Classifier

    compiled = Classifier.load(model.artifact)
    return _per_call_s(lambda: compiled.predict_batch(model.rows64),
                       rounds=21) / len(model.rows64) * 1e9


# -- daemon telemetry ---------------------------------------------------------


def _series(snapshot: dict) -> dict:
    out = {}
    for row in snapshot.get("series", []):
        key = (row["name"], tuple(sorted(row.get("labels", {}).items())))
        out[key] = row
    return out


def metric_delta(before: dict, after: dict, name: str, **labels) -> dict:
    """A histogram's bucket-wise change between two snapshots, summed
    over every series of *name* whose labels match *labels*."""
    merged = None
    previous = _series(before)
    for (metric, lbls), row in _series(after).items():
        d = dict(lbls)
        if metric != name or any(d.get(k) != v for k, v in labels.items()):
            continue
        prev = previous.get((metric, lbls))
        counts = list(row["counts"])
        count, total = row["count"], row["sum"]
        if prev is not None:
            counts = [a - b for a, b in zip(counts, prev["counts"])]
            count -= prev["count"]
            total -= prev["sum"]
        if merged is None:
            merged = {"bounds": row["bounds"], "counts": counts,
                      "count": count, "sum": total}
        else:
            merged["counts"] = [a + b for a, b in
                                zip(merged["counts"], counts)]
            merged["count"] += count
            merged["sum"] += total
    return merged or {"bounds": [], "counts": [], "count": 0, "sum": 0.0}


def _gauge(snapshot: dict, name: str) -> float:
    return max((row.get("value", 0) for row in snapshot.get("series", [])
                if row["name"] == name), default=0.0)


def _metrics(address: str) -> dict:
    from repro.api.admin import AdminClient

    with AdminClient(socket_path=address) as admin:
        return admin.metrics()


# -- the workload -------------------------------------------------------------


def run(ctx) -> dict:
    from repro.api.client import DEFAULT_PIPELINE_WINDOW

    stream = ctx.workload == "serve_stream"
    rows_per_call = 2 * BLOCK_ROWS if stream else DEFAULT_PIPELINE_WINDOW
    ctx.meta.update(connections=1, window=DEFAULT_PIPELINE_WINDOW,
                    rows_per_call=rows_per_call, warmup_s=WARMUP_S,
                    serving_cpus=1)
    model = Model(ctx)
    probe = Probe()
    daemons = []
    cpus = os.sched_getaffinity(0)
    try:
        # the daemon (a child), the load and the probe share one CPU:
        # with one connection in a closed loop they take turns anyway,
        # and a wake-up across the vCPUs of a shared host waits for the
        # host to run the idle vCPU, which made serve_stream's median
        # call swing 3x from second to second
        os.sched_setaffinity(0, {min(cpus)})
        with nullcontext() if ctx.trace else probe:
            setups = []
            for i in range(SETUP_REPEATS):
                if daemons:
                    daemons[-1].stop()
                daemons.append(Daemon(ctx, model.artifact, f"d{i}"))
                setups.append(daemons[-1].start(model.row_lists[0],
                                                model.expected_list[0]))
            daemon = daemons[-1]
            if ctx.trace:
                return _traced(ctx, model, daemon, stream)
            load = drive(daemon, model, stream, ctx.seconds)
            peak = daemon.peak_rss_mib()
    finally:
        for d in daemons:
            d.stop()
        os.sched_setaffinity(0, cpus)
    _count(ctx, load)
    figures = load.per_second(rows_per_call, probe)
    setup_walls = probe.scaled_setups(setups)
    host_setups = [(b - a) / 1e9 for a, b in setups]
    ctx.meta.update(setups_s=setup_walls, host_setups_s=host_setups,
                    rows_sent=load.rows_sent,
                    calls_per_second=figures.pop("calls_per_second"),
                    tail_quantile=figures.pop("tail_quantile"))
    return dict(figures, setup_s=median(setup_walls), peak_rss_mb=peak,
                **{"host.setup_s": median(host_setups)})


def _count(ctx, load: Load) -> None:
    ctx.checks.count(load.rows_sent, load.rows_failed,
                     "rows answered wrongly, with an error or not at all")
    ctx.checks.reasons.extend(load.errors)
    ctx.checks.check(bool(load.calls), "no call completed in the window")


def _traced(ctx, model, daemon, stream) -> dict:
    from repro.api.client import ScoringClient
    from repro.api.wire import BinaryV2Codec, JsonCodec
    from repro.obs import histogram_quantile

    codec = BinaryV2Codec if stream else JsonCodec
    header = 4 if stream else 0  # the length prefix _recv_frame strips
    tracer = Tracer()
    before = _metrics(daemon.address)
    for owner, attr, name, attrs_of in (
            (ScoringClient, "predict_pipelined", "client.pipelined", None),
            (ScoringClient, "predict_batch", "client.batch", None),
            (ScoringClient, "_recv_frame", "socket.recv",
             lambda raw: {"bytes": len(raw) + header}),
            (codec, "encode_request", "wire.client_encode",
             lambda raw: {"bytes": len(raw)}),
            (codec, "decode_response", "wire.client_decode", None)) + ((
            (codec, "encode_predict_stream", "wire.client_encode",
             lambda raw: {"bytes": len(raw)}),) if stream else ()):
        tracer.instrument(owner, attr, name, attrs_of)
    try:
        with tracer.span("serve.load") as root:
            load = drive(daemon, model, stream, ctx.seconds, tracer)
    finally:
        tracer.restore()
    after = _metrics(daemon.address)
    _count(ctx, load)
    tracer.write_chrome(ctx.chrome_path())
    ledger = ctx.ledger_gate(tracer, root, STAGES, LEDGER_TOLERANCE)
    lat = load.per_second(1)

    def wire_bytes(name):
        return sum(tracer.attrs[s[0]]["bytes"] for s in tracer.by_name(name))

    codec_us = v2_codec_us(model) if stream else json_codec_us(model)
    service = metric_delta(before, after, "repro_request_latency_us",
                           codec="stream" if stream else "coalesced")
    service_p50 = histogram_quantile(service, 0.5)
    queue = metric_delta(before, after, "repro_loop_queue_wait_us")
    fast = metric_delta(before, after, "repro_loop_fast_batch_rows")
    stream_rows = metric_delta(before, after, "repro_loop_stream_rows")
    rows = max(1, load.rows_sent - load.rows_failed)
    stages = ledger["stages_s"]
    # per call: what the client spends encoding and decoding, and the
    # daemon's service time.  The daemon records each row of a coalesced
    # chunk with the whole chunk's time, so the chunks' summed time is
    # the histogram's sum over the mean rows per chunk.
    calls = max(1, tracer.count("client.pipelined"))
    client_us = (stages["wire.client_encode"]
                 + stages["wire.client_decode"]) / calls * 1e6
    chunks = stream_rows if stream else fast
    service_us = (service["sum"] * chunks["count"] / chunks["sum"] / calls
                  if chunks["sum"] else 0.0)
    prefix = "wire.v2_" if stream else "wire.json_"
    suffix = "_us_per_krow" if stream else "_us"
    ctx.meta.update(ledger=ledger, latency=lat, codec_us=codec_us,
                    service=service, client_codec_us_per_call=client_us,
                    service_us_per_call=service_us)
    return {
        f"{prefix}encode{suffix}": codec_us["client_encode"]
        + codec_us["server_encode"],
        f"{prefix}decode{suffix}": codec_us["server_decode"]
        + codec_us["client_decode"],
        "transport.queue_wait_us.p50": histogram_quantile(queue, 0.5),
        "transport.batch_rows.mean": (fast["sum"] / fast["count"]
                                      if fast["count"] else 0.0),
        "transport.stream_rows.mean": (stream_rows["sum"]
                                       / stream_rows["count"]
                                       if stream_rows["count"] else 0.0),
        "transport.service_us.p50": service_p50,
        "transport.loop_lag_us": _gauge(after, "repro_loop_lag_us"),
        "transport.bytes_in_per_row": wire_bytes("wire.client_encode") / rows,
        "transport.bytes_out_per_row": wire_bytes("socket.recv") / rows,
        "socket.remainder_us": lat["p50_us"] - service_us - client_us,
        "ml.predict_ns_per_row": predict_ns_per_row(model),
        "ledger.coverage": ledger["coverage"],
        "trace.overhead_pct": tracer.overhead_pct(ledger["wall_s"]),
    }
