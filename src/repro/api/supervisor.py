"""Self-healing shard supervision: respawn, drain, restart, hot swap.

:class:`ShardSupervisor` closes the gap between "the client routes
around corpses" and "the fleet heals": it owns a
:class:`repro.api.shard.ShardManager` operationally, health-checking
every shard on an interval and respawning the dead, and it composes
the drain protocol (see :data:`repro.api.wire.ERROR_DRAINING`)
into fleet-level operations:

* **crash healing** — a shard whose process exited (or whose health
  probe keeps failing while the process lingers) is respawned and the
  shard registry refreshed, so clients re-resolve to the replacement
  on their next (re)connect;
* **graceful drain** — :meth:`drain_shard` deregisters one shard (no
  fresh connections), sends the ``drain`` verb (no fresh requests,
  in-flight work finishes) and waits for the process to exit;
* **rolling restart** — :meth:`rolling_restart` cycles the fleet one
  shard at a time (drain → respawn → healthy), so it never drops
  below N-1 serving shards;
* **zero-downtime model hot-swap** — :meth:`hot_swap` warm-loads a
  new model key into a canary shard's pool, scores a probe set
  against it via per-request model routing (the serving default stays
  untouched), then promotes the key fleet-wide and verifies the
  default route answers byte-identically everywhere.

Per-shard addressing needs unix-socket deployments (shard *i* listens
at ``<base>.<i>``); on sharded TCP (one ``SO_REUSEPORT`` port, the
kernel picks the shard) supervision degrades to process-liveness
healing and drain/hot-swap are unavailable.

Usage::

    manager = ShardManager(factory, shards=4, socket_path=base)
    with manager, ShardSupervisor(manager) as supervisor:
        ...                            # crashes now self-heal
        supervisor.rolling_restart()   # pick up a new artifact/config
        supervisor.hot_swap("forest:static-all", probe_rows)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.api.admin import AdminClient
from repro.api.shard import ShardManager, shard_socket_path
from repro.errors import DaemonError, ScoringError
from repro.obs import MetricsRegistry, get_logger

__all__ = [
    "DEFAULT_INTERVAL",
    "DEFAULT_PROBE_FAILURES",
    "DEFAULT_PROBE_TIMEOUT",
    "HotSwapReport",
    "ShardSupervisor",
]

#: seconds between supervision passes.
DEFAULT_INTERVAL = 1.0
#: per-probe connect/answer budget, seconds.
DEFAULT_PROBE_TIMEOUT = 5.0
#: consecutive failed probes of a live process before it is replaced.
DEFAULT_PROBE_FAILURES = 3

#: bound on the retained event history.
_EVENT_LIMIT = 256


@dataclass(frozen=True)
class HotSwapReport:
    """What one :meth:`ShardSupervisor.hot_swap` did.

    ``predictions`` is the canary's probe-set scoring under the new
    model; ``shard_predictions[i]`` is what shard ``promoted[i]``
    answered on the *default* route after promotion.  ``identical``
    is the acceptance gate: every shard's default route reproduced
    the canary predictions exactly.
    """

    model: str
    canary_shard: int
    predictions: tuple
    promoted: tuple
    shard_predictions: tuple
    identical: bool


class ShardSupervisor:
    """Health-check, heal and operate a :class:`ShardManager` fleet.

    The supervision loop runs on a dedicated thread
    (:meth:`start` / :meth:`stop`, or the context manager); every
    *interval* seconds each shard is checked — process liveness first,
    then (unix deployments) a ``health`` probe over its socket — and
    dead or persistently unhealthy shards are respawned through the
    manager, refreshing the registry.  Manual operations
    (:meth:`drain_shard`, :meth:`rolling_restart`, :meth:`hot_swap`)
    exclude their shards from healing while they run, so the loop
    never fights an operator.

    *on_event* (optional) is called with one dict per supervision
    event (``{"event": "respawn", "shard": 2, "pid": ..., ...}``);
    the same events are kept on :attr:`events` (bounded history).
    """

    def __init__(
        self,
        manager: ShardManager,
        interval: float = DEFAULT_INTERVAL,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        max_probe_failures: int = DEFAULT_PROBE_FAILURES,
        drain_timeout: float = 60.0,
        op_timeout: float = 60.0,
        on_event=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if interval <= 0:
            raise DaemonError(f"interval must be > 0, got {interval}")
        if max_probe_failures < 1:
            raise DaemonError(
                f"max_probe_failures must be >= 1, got {max_probe_failures}")
        self.manager = manager
        self.interval = float(interval)
        self.probe_timeout = float(probe_timeout)
        self.max_probe_failures = int(max_probe_failures)
        self.drain_timeout = float(drain_timeout)
        self.op_timeout = float(op_timeout)
        self.on_event = on_event
        # supervision telemetry: event counters by kind plus the
        # health-probe round-trip distribution (see repro.obs)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._obs_probe_rtt = self.metrics.histogram(
            "repro_supervisor_probe_rtt_us"
        )
        self._log = get_logger("supervisor")
        # _lock guards the bookkeeping (exclusions, probe failures,
        # events); _ops serializes the process-level mutations (heal
        # vs drain vs restart) so two actors never respawn one shard
        self._lock = threading.Lock()
        self._ops = threading.Lock()
        self._excluded: set = set()
        self._failures: dict = {}
        self._events: list = []
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    # -- the supervision loop ----------------------------------------------

    def start(self) -> "ShardSupervisor":
        if self._thread is not None and self._thread.is_alive():
            raise DaemonError("supervisor is already running")
        self._halt.clear()
        thread = threading.Thread(target=self._supervise,
                                  name="repro-supervise", daemon=True)
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        self._halt.set()
        thread = self._thread
        if thread is not None:
            thread.join(self.interval + self.probe_timeout + 30.0)
            self._thread = None

    def __enter__(self) -> "ShardSupervisor":
        if self._thread is None or not self._thread.is_alive():
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _supervise(self) -> None:
        # the dedicated supervision thread: never dies on a bad pass —
        # a supervisor that crashes on the failure it exists to handle
        # is worse than none
        while not self._halt.wait(self.interval):
            try:
                self.check_once()
            except Exception as exc:
                self._emit("error", None, error=str(exc))

    def check_once(self) -> list:
        """One supervision pass; returns the shard indexes healed.

        Dead processes are respawned immediately; live processes that
        fail their health probe ``max_probe_failures`` times in a row
        (wedged event loop, unreachable socket) are killed and
        respawned.  Shards under a manual operation are skipped.
        """
        healed: list = []
        for index in range(self.manager.shards):
            with self._lock:
                if index in self._excluded:
                    continue
            try:
                proc = self.manager.proc(index)
            except DaemonError:
                break  # the manager stopped under us
            try:
                if not proc.is_alive():
                    if self._heal(index, "exit") is not None:
                        healed.append(index)
                    continue
                if self.manager.socket_path is None:
                    continue  # TCP: the kernel hides shards from probes
                if self._probe(index):
                    self._note_probe(index, True)
                    continue
                if (self._note_probe(index, False)
                        >= self.max_probe_failures):
                    if self._heal(index, "probe") is not None:
                        healed.append(index)
            except DaemonError as exc:
                # a failed respawn must not stop the pass: the other
                # shards still deserve their checks, and the next pass
                # retries this one
                self._emit("error", index, error=str(exc))
        return healed

    def _heal(self, index: int, reason: str) -> int | None:
        """Replace shard *index*; ``None`` when healing was not needed."""
        with self._ops:
            with self._lock:
                if index in self._excluded:
                    return None  # an operator claimed it meanwhile
            proc = self.manager.proc(index)
            if proc.is_alive():
                if reason != "probe":
                    return None  # already healed while we waited
                # a live process that stopped answering: take it down
                # before handing the endpoint to a replacement
                proc.terminate()
                proc.join(5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(5.0)
            pid = self.manager.respawn(index)
            with self._lock:
                self._failures.pop(index, None)
            self._emit("respawn", index, pid=pid, reason=reason)
            return pid

    def _probe(self, index: int) -> bool:
        path = shard_socket_path(self.manager.socket_path, index)
        probe_from = time.perf_counter_ns()
        try:
            with AdminClient(socket_path=path, timeout=self.probe_timeout,
                             reconnect_retries=0) as admin:
                admin.health()
        except ScoringError:
            return False
        self._obs_probe_rtt.record(
            (time.perf_counter_ns() - probe_from) / 1000.0)
        return True

    def _note_probe(self, index: int, ok: bool) -> int:
        with self._lock:
            if ok:
                self._failures.pop(index, None)
                return 0
            self._failures[index] = self._failures.get(index, 0) + 1
            return self._failures[index]

    # -- manual fleet operations -------------------------------------------

    def drain_shard(self, index: int, timeout: float | None = None) -> int:
        """Gracefully retire shard *index*; returns its (exited) pid.

        Deregisters the shard (fresh client connections re-resolve to
        its siblings), sends the ``drain`` verb (new scoring requests
        are refused with a typed retryable frame while in-flight work
        finishes) and waits for the process to exit, escalating to
        SIGTERM/SIGKILL past *timeout* (default ``drain_timeout``).
        The shard stays excluded from healing and out of the registry
        — pair with :meth:`ShardManager.respawn` (what
        :meth:`rolling_restart` does) to bring a replacement up.  On
        sharded TCP there is no per-shard address to drain over, so
        the shard is terminated (SIGTERM runs the daemon's clean
        shutdown) instead.
        """
        proc = self.manager.proc(index)
        self._exclude(index)
        with self._ops:
            self.manager.deregister(index)
            if self.manager.socket_path is None:
                if proc.is_alive():
                    proc.terminate()
            elif proc.is_alive():
                path = shard_socket_path(self.manager.socket_path, index)
                try:
                    with AdminClient(socket_path=path,
                                     timeout=self.probe_timeout,
                                     reconnect_retries=0) as admin:
                        admin.drain()
                except ScoringError:
                    pass  # already dead or unreachable: the join decides
            limit = timeout if timeout is not None else self.drain_timeout
            proc.join(limit)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
            self._emit("drain", index, pid=proc.pid)
            return proc.pid

    def rolling_restart(self, ready_timeout: float | None = None) -> list:
        """Cycle every shard — drain, respawn, healthy — one at a time.

        The fleet never drops below N-1 serving shards: shard *i+1*
        is only drained once shard *i*'s replacement answers its
        health probe.  Returns the replacement pids in shard order.
        """
        pids: list = []
        for index in range(self.manager.shards):
            self.drain_shard(index)
            pid = self.manager.respawn(index, ready_timeout=ready_timeout)
            self._await_serving(index)
            self._unexclude(index)
            self._emit("restart", index, pid=pid)
            pids.append(pid)
        return pids

    def _await_serving(self, index: int, timeout: float = 15.0) -> None:
        if self.manager.socket_path is None:
            return  # respawn already waited for the daemon ready event
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._probe(index):
                return
            time.sleep(0.1)
        raise DaemonError(
            f"respawned shard {index} never answered its health probe")

    def hot_swap(self, model: str, probe_rows, canary: int = 0,
                 expected=None) -> HotSwapReport:
        """Zero-downtime model refresh: warm, canary-score, promote.

        Warm-loads *model* into shard *canary*'s pool and scores
        *probe_rows* against it via per-request model routing — the
        serving default is untouched, so a bad artifact is caught
        before any traffic shifts.  *expected* (optional) gates
        promotion on the canary predictions matching exactly.  The key
        is then warm-loaded and promoted on every shard and the
        default route re-scored everywhere; the returned
        :class:`HotSwapReport` says whether all shards answered
        byte-identically to the canary.  Unix-socket deployments only
        (per-shard addressing).
        """
        base = self.manager.socket_path
        if base is None:
            raise DaemonError(
                "hot swap needs a unix-socket sharded deployment; "
                "SO_REUSEPORT TCP offers no per-shard addressing")
        rows = [[float(v) for v in row] for row in probe_rows]
        if not rows:
            raise DaemonError("hot swap needs a non-empty probe set")
        if not 0 <= canary < self.manager.shards:
            raise DaemonError(f"no shard with index {canary}")
        with self._ops:
            canary_path = shard_socket_path(base, canary)
            with AdminClient(socket_path=canary_path,
                             timeout=self.op_timeout) as admin:
                spec = admin.load_model(model)
                predictions = tuple(
                    admin.client.predict_batch(rows, model=spec))
            if expected is not None:
                gate = tuple(int(v) for v in expected)
                if gate != predictions:
                    raise DaemonError(
                        f"canary predictions for {spec!r} diverge from "
                        f"the expected gate; aborting before promotion")
            promoted: list = []
            shard_predictions: list = []
            identical = True
            for index in range(self.manager.shards):
                path = shard_socket_path(base, index)
                with AdminClient(socket_path=path,
                                 timeout=self.op_timeout) as admin:
                    admin.load_model(spec)
                    admin.promote(spec)
                    # the *default* route must now serve the new model
                    after = tuple(admin.client.predict_batch(rows))
                promoted.append(index)
                shard_predictions.append(after)
                if after != predictions:
                    identical = False
            report = HotSwapReport(
                model=spec, canary_shard=canary, predictions=predictions,
                promoted=tuple(promoted),
                shard_predictions=tuple(shard_predictions),
                identical=identical,
            )
            self._emit("hot_swap", None, model=spec, identical=identical)
            return report

    # -- bookkeeping --------------------------------------------------------

    @property
    def events(self) -> tuple:
        """A snapshot of the recent supervision events (bounded)."""
        with self._lock:
            return tuple(self._events)

    def _exclude(self, index: int) -> None:
        with self._lock:
            self._excluded.add(index)

    def _unexclude(self, index: int) -> None:
        with self._lock:
            self._excluded.discard(index)
            self._failures.pop(index, None)

    def _emit(self, event: str, shard=None, **extra) -> None:
        entry = {"event": event, "shard": shard, **extra}
        with self._lock:
            self._events.append(entry)
            del self._events[:-_EVENT_LIMIT]
        self.metrics.counter(
            "repro_supervisor_events_total", event=event).inc()
        # "pid" is reserved in the log schema (the supervisor's own);
        # the subject shard's pid travels as shard_pid
        fields = {("shard_pid" if k == "pid" else k): v
                  for k, v in extra.items()}
        log = self._log.error if event == "error" else self._log.info
        log(event, shard=shard, **fields)
        callback = self.on_event
        if callback is not None:
            try:
                callback(entry)
            except Exception:
                pass  # an observer must never take the supervisor down
