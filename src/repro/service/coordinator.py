"""The shard coordinator: plan, dispatch, steal, reissue, merge.

:func:`run_campaign_sharded` is the distributed counterpart of
:func:`repro.injection.campaign.run_campaign`: same program, same
config, same report -- bit-identical, ``latency_buckets`` included --
but the injection steps execute on a fleet of worker processes speaking
the :mod:`repro.service.protocol` over TCP.

Scheduling model:

* the campaign is planned into contiguous :class:`ShardSpec`\\ s
  (:func:`repro.injection.shard.plan_shards`); a **shard is the unit of
  assignment**, a **step is the unit of completion** -- workers stream
  one ``step`` message per finished injection step, so the coordinator
  always knows each shard's unfinished tail;
* an idle worker with no unassigned shard left **steals** the largest
  in-flight tail (the remaining steps of the most-loaded shard) --
  stragglers shrink instead of gating the campaign; duplicate results
  from steal races are deduplicated by step index;
* a worker death (socket EOF, crash, or a ``chunk_timeout`` expiry
  force-close) **reissues** the dead worker's unfinished tail with the
  same bounded backoff as the supervised pool
  (:func:`repro.injection.resilience._backoff_sleep`), degrading to
  in-process serial execution when retries exhaust or the fleet is gone
  -- the campaign *completes*, never aborts;
* every streamed step is appended to its planned shard's journal
  (``<journal>.shard-NNN-of-NNN``) before being counted done -- the
  worker frames the journal line, the coordinator writes it verbatim and
  keeps only the step's summary -- so an
  interrupted sharded campaign resumes from partial shard journals --
  and a *single-process* resume of the offline-merged journal
  (``talft journal merge``) reconstructs the same report.

Concurrency model: one blocking reader thread per worker connection
pushes ``(worker, message | None)`` into a queue; the scheduler (this
thread) is the sole sender.  The default fleet is ``fork``\\ ed local
processes dialing an ephemeral loopback listener -- forked *before* any
reader thread starts, so no thread state crosses the fork.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import secrets
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ReproError
from repro.core.pool import mp_context
from repro.injection.campaign import (
    CampaignConfig,
    CampaignReport,
    StepSummary,
    _injection_steps,
    _reference_run,
    _summarized_step,
    require_halted,
    resolve_backend_config,
)
from repro.injection.chaos import ChaosSpec
from repro.injection.journal import (
    CampaignJournal,
    config_digest,
    decode_summary,
    program_digest,
    resume_journal,
)
from repro.injection.resilience import (
    ResilienceConfig,
    ResilienceStats,
    _backoff_sleep,
)
from repro.injection.shard import (
    ShardSpec,
    existing_shard_journals,
    merge_outcomes,
    plan_shards,
)
from repro.observe import ProgressReporter, emit, get_registry, phase_timer
from repro.program import Program
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    coordinator_mac,
    macs_equal,
    make_nonce,
    pack_pickle,
    worker_mac,
)

#: Seconds the coordinator waits for the fleet to dial in / dial out.
CONNECT_TIMEOUT = 30.0
#: Seconds to wait for ``bye`` messages at shutdown before giving up.
SHUTDOWN_TIMEOUT = 10.0
#: Scheduler tick (seconds): the queue-wait granularity at which worker
#: deadlines are checked.
_TICK = 0.25


class _Worker:
    """Coordinator-side state of one fleet connection."""

    def __init__(self, index: int, conn: Connection, proc=None):
        self.index = index
        self.conn = conn
        self.proc = proc  # local-fleet Process, None for remote workers
        self.alive = True
        self.host: Optional[str] = None
        self.shard: Optional[int] = None  # currently assigned shard index
        self.last_activity = time.monotonic()
        self.timed_out = False  # force-closed, death not yet delivered
        self.bye_metrics: Optional[dict] = None


class _Shard:
    """Scheduling state of one planned shard."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.remaining: Set[int] = set(spec.steps)
        self.owners: Set[int] = set()  # worker indices running this shard
        self.attempts = 0  # reissues after deaths/timeouts
        self.journal: Optional[CampaignJournal] = None


def _spawn_local_fleet(
    count: int, address: Tuple[str, int], authkey: bytes,
    start_method: Optional[str] = None,
) -> List:
    """Start ``count`` local worker processes dialing ``address``.

    Defaults to the cheap ``fork`` context and must then run before any
    reader thread exists: a forked copy of a running thread's locks is
    deadlock bait.  Callers embedded in multi-threaded processes (the
    HTTP service) pass ``start_method="spawn"`` instead -- slower (one
    interpreter + compile warm-up per worker) but immune to whatever
    locks the host process's threads hold.
    """
    from repro.service.worker import _local_worker_main

    ctx = multiprocessing.get_context(start_method) if start_method \
        else mp_context()
    procs = []
    for _ in range(count):
        proc = ctx.Process(target=_local_worker_main,
                           args=(address, authkey), daemon=True)
        proc.start()
        procs.append(proc)
    return procs


def run_campaign_sharded(
    program: Program,
    config: Optional[CampaignConfig] = None,
    *,
    shards: int,
    workers: Optional[Sequence[Tuple[str, int]]] = None,
    local_workers: Optional[int] = None,
    backend: Optional[str] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    chaos: Optional[ChaosSpec] = None,
    progress: bool = False,
    on_step=None,
    authkey: Optional[bytes] = None,
    fleet_start_method: Optional[str] = None,
) -> CampaignReport:
    """Run one campaign as ``shards`` journal-backed shards on a fleet.

    With ``workers`` (a list of ``(host, port)`` addresses of ``talft
    shard-worker --listen`` processes) the coordinator dials out;
    otherwise it forks ``local_workers`` (default: one per shard)
    local processes that dial back in.  ``journal_path`` enables per-shard
    journals next to the given base path; ``resume=True`` additionally
    loads the base journal and every existing shard journal first, so
    only genuinely missing steps execute.  All other knobs mirror
    :func:`~repro.injection.campaign.run_campaign`; the returned report
    is bit-identical to the single-process run.

    ``authkey`` is the shared HMAC key remote workers were started with
    (``None`` for a keyless loopback fleet); local fleets always use a
    fresh per-campaign random key.  ``fleet_start_method`` overrides the
    local fleet's multiprocessing start method (the HTTP service passes
    ``"spawn"``; the default ``fork`` is only safe from effectively
    single-threaded processes).
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1 (got {shards})")
    config = resolve_backend_config(program, config or CampaignConfig(),
                                    backend)
    stats = ResilienceStats()
    resilience = resilience or ResilienceConfig()
    rng = random.Random()

    with phase_timer("campaign.reference"):
        reference = _reference_run(program, config)
    require_halted(reference, config)
    budget = reference.trace.steps + config.step_slack
    steps = _injection_steps(reference.num_steps, config)
    total = len(steps)
    prog_digest = program_digest(program)
    conf_digest = config_digest(config)
    journaled = journal_path is not None

    #: The summary of every completed step -- from resume or the wire.
    done: Dict[int, StepSummary] = {}
    if journal_path is not None and resume:
        from repro.injection.shard import load_shard_steps

        candidates = [journal_path] + existing_shard_journals(journal_path)
        done, corrupt = load_shard_steps(program, config, candidates,
                                         reference)
        stats.resumed_steps = len(done)
        stats.corrupt_journal_lines = corrupt

    specs = plan_shards(steps, shards, prog_digest, conf_digest)
    shard_states = [_Shard(spec) for spec in specs]
    for state in shard_states:
        state.remaining -= done.keys()
    pending = [s.spec.index for s in shard_states if s.remaining]
    outstanding = sum(len(s.remaining) for s in shard_states)

    registry = get_registry()
    instr_steps = registry.counter("shard_steps_total")
    instr_steals = registry.counter("shard_steals_total")
    instr_deaths = registry.counter("shard_worker_deaths_total")
    reporter = ProgressReporter(total, label="campaign") if progress else None
    if reporter is not None:
        for _ in range(len(done)):
            reporter.advance()
    emit("campaign-start", steps=total, resumed=len(done), shards=shards,
         backend=config.backend, pruned=config.prune,
         reference_steps=reference.trace.steps, sharded=True)

    def _journal_for(state: _Shard) -> Optional[CampaignJournal]:
        if journal_path is None:
            return None
        if state.journal is None:
            path = state.spec.journal_path(journal_path)
            if resume:
                state.journal, _ = resume_journal(path, prog_digest,
                                                  conf_digest)
            else:
                state.journal = CampaignJournal.fresh(path, prog_digest,
                                                      conf_digest)
        return state.journal

    def _complete_step(state: _Shard, summary: StepSummary,
                       line: Optional[str]) -> None:
        nonlocal outstanding
        step_index = summary.step
        if step_index in done:
            return  # duplicate from a steal race
        journal = _journal_for(state)
        if journal is not None:
            journal.append_raw(line)
            stats.journaled_steps += 1
        done[step_index] = summary
        state.remaining.discard(step_index)
        outstanding -= 1
        instr_steps.inc()
        if reporter is not None:
            reporter.advance()
        if on_step is not None:
            on_step(len(done), total)

    def _run_inline(state: _Shard) -> None:
        """Serial in-process fallback for one shard's unfinished tail."""
        stats.fallback_chunks += 1
        for step_index in sorted(state.remaining):
            summary = _summarized_step(program, config, reference, budget,
                                       step_index, journaled)
            _complete_step(state, summary, summary.line)

    fleet: List[_Worker] = []
    listener = None
    inbox: "queue.Queue" = queue.Queue()
    injection_timer = phase_timer("campaign.injections", registry)
    injection_timer.__enter__()
    try:
        if outstanding:
            if workers:
                fleet_key = authkey
                for index, address in enumerate(workers):
                    try:
                        sock = socket.create_connection(
                            address, timeout=CONNECT_TIMEOUT)
                    except OSError as exc:
                        raise ProtocolError(
                            f"cannot reach shard worker at "
                            f"{address[0]}:{address[1]}: {exc}") from exc
                    sock.settimeout(None)
                    fleet.append(_Worker(index, Connection(sock)))
            else:
                # Even the loopback fleet authenticates: any local
                # process could dial the ephemeral listener otherwise.
                fleet_key = secrets.token_bytes(32)
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.bind(("127.0.0.1", 0))
                listener.listen(64)
                address = listener.getsockname()
                count = local_workers if local_workers is not None \
                    else min(shards, len(pending)) or 1
                # Fork first, then thread: reader threads must not exist
                # when the fleet forks.
                procs = _spawn_local_fleet(count, address, fleet_key,
                                           fleet_start_method)
                listener.settimeout(CONNECT_TIMEOUT)
                for index in range(count):
                    try:
                        sock, _ = listener.accept()
                    except socket.timeout:
                        break
                    fleet.append(_Worker(index, Connection(sock),
                                         procs[index] if index < len(procs)
                                         else None))

            # Handshake every connection synchronously (no reader thread
            # exists yet) before any pickled job payload flows: read the
            # hello, check its protocol version, and with a fleet key
            # exchange the HMAC challenge response.  A worker that fails
            # is closed and dropped from scheduling -- the survivors (or
            # the serial fallback) still complete the campaign.
            for worker in fleet:
                try:
                    worker.conn.settimeout(CONNECT_TIMEOUT)
                    hello = worker.conn.recv()
                    if hello is None or hello.get("type") != "hello":
                        raise ProtocolError("worker did not say hello")
                    if hello.get("protocol") != PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"worker speaks protocol "
                            f"{hello.get('protocol')}, expected "
                            f"{PROTOCOL_VERSION}")
                    worker.host = hello.get("host")
                    if fleet_key is not None:
                        nonce = make_nonce()
                        worker.conn.send({
                            "type": "auth",
                            "mac": coordinator_mac(
                                fleet_key, str(hello.get("nonce", ""))),
                            "nonce": nonce,
                        })
                        reply = worker.conn.recv()
                        if reply is None or reply.get("type") != "auth-ok" \
                                or not macs_equal(
                                    worker_mac(fleet_key, nonce),
                                    reply.get("mac")):
                            raise ProtocolError(
                                "worker failed fleet authentication")
                    worker.conn.settimeout(None)
                except (ProtocolError, OSError):
                    worker.alive = False
                    worker.conn.close()

            for worker in fleet:
                if not worker.alive:
                    continue
                die_after = None
                if chaos is not None and \
                        chaos.kill_shard_worker == worker.index:
                    die_after = chaos.kill_shard_after_steps
                try:
                    worker.conn.send({
                        "type": "job",
                        "program": pack_pickle(program),
                        "config": pack_pickle(config),
                        "program_digest": prog_digest,
                        "config_digest": conf_digest,
                        "journal": journaled,
                        "die_after_steps": die_after,
                    })
                except OSError:
                    worker.alive = False
                    worker.conn.close()

            def _reader(worker: _Worker) -> None:
                while True:
                    try:
                        message = worker.conn.recv()
                    except (ProtocolError, OSError):
                        message = None
                    inbox.put((worker, message))
                    if message is None:
                        return

            for worker in fleet:
                if worker.alive:
                    threading.Thread(target=_reader, args=(worker,),
                                     daemon=True).start()

        shutting_down = False

        def _assign(worker: _Worker) -> None:
            """Hand the idle ``worker`` its next work, stealing if needed."""
            if shutting_down or not worker.alive:
                return
            index = None
            if pending:
                index = pending.pop(0)
            else:
                # Steal the largest in-flight tail still worth splitting.
                best = None
                for state in shard_states:
                    if state.remaining and len(state.owners) == 1 and \
                            len(state.remaining) >= 2:
                        if best is None or \
                                len(state.remaining) > len(best.remaining):
                            best = state
                if best is not None:
                    index = best.spec.index
                    stats.shard_steals += 1
                    instr_steals.inc()
                    emit("shard-steal", shard=index,
                         steps=len(best.remaining), worker=worker.index)
            if index is None:
                worker.shard = None
                return
            state = shard_states[index]
            worker.shard = index
            state.owners.add(worker.index)
            worker.last_activity = time.monotonic()
            try:
                worker.conn.send({"type": "shard", "shard": index,
                                  "steps": sorted(state.remaining)})
            except OSError:
                pass  # the reader thread will surface the death

        def _on_death(worker: _Worker) -> None:
            """EOF/timeout on a worker: reissue its unfinished tail."""
            if not worker.alive:
                return
            worker.alive = False
            worker.conn.close()
            if shutting_down:
                return
            stats.shard_worker_deaths += 1
            instr_deaths.inc()
            emit("shard-worker-death", worker=worker.index,
                 shard=worker.shard)
            index = worker.shard
            worker.shard = None
            if index is None:
                return
            state = shard_states[index]
            state.owners.discard(worker.index)
            if not state.remaining or state.owners:
                return  # finished, or a steal partner is still on it
            state.attempts += 1
            stats.retries += 1
            if state.attempts > resilience.max_retries:
                if not resilience.serial_fallback:
                    raise ReproError(
                        f"shard {index} exhausted {resilience.max_retries} "
                        "retries and serial fallback is disabled")
                _run_inline(state)
                return
            _backoff_sleep(resilience, state.attempts, rng)
            pending.append(index)
            for idle in fleet:
                if idle.alive and idle.shard is None:
                    _assign(idle)
                    break

        def _check_deadlines() -> None:
            """Force-close any worker past its chunk-timeout deadline.

            Runs on *every* scheduling iteration, not just idle ticks: a
            busy fleet can keep the inbox non-empty for arbitrarily long,
            which must not postpone a hung worker's force-close.  The
            close unblocks that worker's reader thread, which then
            delivers the death through the inbox like any other EOF.
            """
            deadline = resilience.chunk_timeout
            if deadline is None:
                return
            now = time.monotonic()
            for candidate in fleet:
                if candidate.alive and not candidate.timed_out \
                        and candidate.shard is not None \
                        and now - candidate.last_activity > deadline:
                    stats.timeouts += 1
                    candidate.timed_out = True
                    candidate.conn.close()

        # The hellos were consumed by the handshake above, so hand every
        # surviving worker its first shard directly.
        for worker in fleet:
            if worker.alive:
                _assign(worker)

        # --- scheduling loop -------------------------------------------
        while outstanding:
            if not any(worker.alive for worker in fleet):
                # Fleet gone (or never materialized): finish in-process.
                if not resilience.serial_fallback:
                    raise ReproError(
                        "shard worker fleet is gone and serial fallback "
                        "is disabled")
                for state in shard_states:
                    if state.remaining:
                        _run_inline(state)
                break
            _check_deadlines()
            try:
                worker, message = inbox.get(timeout=_TICK)
            except queue.Empty:
                continue
            if message is None:
                _on_death(worker)
                continue
            worker.last_activity = time.monotonic()
            kind = message["type"]
            if kind == "step":
                state = shard_states[message["shard"]]
                _complete_step(
                    state,
                    decode_summary(message["step"], message["sum"],
                                   reference),
                    message.get("line"))
            elif kind == "shard-done":
                index = message["shard"]
                shard_states[index].owners.discard(worker.index)
                if worker.shard == index:
                    worker.shard = None
                _assign(worker)
            # Unknown message types from future workers are ignored.

        # --- shutdown: collect host-labelled worker telemetry ----------
        shutting_down = True
        awaiting = 0
        for worker in fleet:
            if worker.alive:
                try:
                    worker.conn.send({"type": "shutdown"})
                    awaiting += 1
                except OSError:
                    worker.alive = False
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while awaiting and time.monotonic() < deadline:
            try:
                worker, message = inbox.get(
                    timeout=max(0.05, deadline - time.monotonic()))
            except queue.Empty:
                break
            if message is None:
                if worker.alive:
                    worker.alive = False
                    awaiting -= 1
            elif message["type"] == "bye":
                worker.bye_metrics = message.get("metrics")
                worker.host = message.get("host", worker.host)
                worker.alive = False
                awaiting -= 1
        for worker in fleet:
            if worker.bye_metrics:
                # Host-labelled fold: per-worker series stay distinct in
                # the coordinator's registry instead of colliding.
                registry.merge_dict(worker.bye_metrics,
                                    extra_labels={"host": worker.host or
                                                  f"worker-{worker.index}"})
    finally:
        for worker in fleet:
            worker.conn.close()
        if listener is not None:
            listener.close()
        for worker in fleet:
            if worker.proc is not None:
                worker.proc.join(timeout=5.0)
                if worker.proc.is_alive():
                    worker.proc.terminate()
        for state in shard_states:
            if state.journal is not None:
                state.journal.close()
        injection_timer.__exit__(None, None, None)
        if reporter is not None:
            reporter.finish()

    with phase_timer("campaign.merge", registry):
        report = merge_outcomes(reference, config, steps, done)
    report.resilience = stats
    registry.counter("campaign_resumed_steps_total").inc(stats.resumed_steps)
    registry.counter("campaign_journaled_steps_total").inc(
        stats.journaled_steps)
    registry.counter("campaign_corrupt_journal_lines_total").inc(
        stats.corrupt_journal_lines)
    emit("campaign-end", injections=report.injections,
         coverage=round(report.coverage, 6),
         violations=len(report.violations), sharded=True,
         steals=stats.shard_steals, worker_deaths=stats.shard_worker_deaths)
    return report
