"""Runs one workload through the public ``NarrationService`` API.

What one run measures:

* *Set-up*, :data:`SETUP_REPEATS` times (the median is ``setup_s``):
  generate the domain databases and open one service session per
  domain, durable ones included, until the first request could be sent.
  The first set-up is kept for the timed phase.  The others are thrown
  away again; they run in a second process (:mod:`setups`), so that the
  memory they leave behind never counts in the kept deployment's
  resident set.
* *Cold pass*, on :data:`COLD_ROUNDS` of those set-ups (the fastest is
  ``cold_pass_s``): every distinct corpus text once, in fresh sessions.
  verify-churn's sessions are built on fresh schema and lexicon
  instances, so each of its rounds is cold.
* *Timed phase*: closed loop, each client sends its next request only
  after the previous answer arrived.  The untraced run uses
  :data:`CLIENTS` clients in :data:`SEGMENTS` segments with the
  throw-away set-ups between them, and reports the whole timed phase;
  the traced run measures one client, traced for the middle half of the
  time and untraced around it.
* *Output check* (:mod:`verify`), after every clock has stopped.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import statistics
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.result import QueryResult

import layers
import setups
import spans
import streams
import verify

#: Closed-loop clients in the untraced run (one per core of the 2-core
#: reference box; with one service worker the run uses two threads).
CLIENTS = 2
#: Service worker threads.
WORKERS = 1
#: Set-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 21
#: Log names: the kept deployment's requests, and the throw-away
#: deployments' cold passes over unchanged data.
KEPT, PRISTINE = "kept", "pristine"
#: record-validate snapshots every this many writes per session.  The
#: other durability settings keep their defaults (fsync="batch",
#: batch_every=64); the default of 1000 would give no checkpoint at all
#: in a run, as a session takes a few hundred writes.
CHECKPOINT_EVERY = 100
#: Cold passes per run, each on a set-up of its own; the fastest is
#: ``cold_pass_s``.  The rounds repeat the same work on fresh deployments,
#: so they differ only by what the machine adds; on the 2-vCPU reference
#: box a round runs either about 0.10 s or 0.15 s, switching within a
#: second, and a median flips between the two from run to run.
COLD_ROUNDS = {"talkback": 3, "verify-churn": SETUP_REPEATS, "record-validate": 5}
#: The untraced timed phase runs as this many segments, with throw-away
#: set-ups between them; see extra_setups().
SEGMENTS = 20


def resident_mb() -> float:
    """The process's resident set right now (``VmRSS``), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


class Deployment:
    """One set-up: a service and its per-domain sessions."""

    def __init__(self, workload: str, domains: Dict[str, Any], state_dir: Path) -> None:
        self.workload = workload
        self.domains = domains
        self.state_dir = state_dir
        self.service = None
        self.sessions: Dict[str, Any] = {}
        self.narrators: Dict[str, Any] = {}
        self.generate_s = 0.0

    def open(self) -> float:
        """Generate the data and open the sessions; returns the seconds taken."""
        from repro.content.narrator import ContentNarrator
        from repro.service import NarrationService
        from repro.storage.durability import DurabilityConfig

        started = perf_counter_ns()
        scale = streams.SCALES[self.workload]
        databases = {
            name: domain.database(streams.DATA_SEED, scale)
            for name, domain in self.domains.items()
        }
        self.generate_s = (perf_counter_ns() - started) / 1e9
        self.service = NarrationService(max_workers=WORKERS)
        if self.workload == "verify-churn":
            self.open_fresh_schema_sessions()
        else:
            for name, database in databases.items():
                durability = None
                if self.workload == "record-validate":
                    durability = DurabilityConfig(
                        directory=self.state_dir / name, checkpoint_every=CHECKPOINT_EVERY
                    )
                session = self.service.session(
                    database=database,
                    lexicon=verify.fresh_lexicon(self.domains[name], database.schema),
                    durability=durability,
                )
                self.sessions[name] = session
                self.narrators[name] = ContentNarrator(session.database)
        return (perf_counter_ns() - started) / 1e9

    def open_fresh_schema_sessions(self) -> None:
        """Translation-only sessions over new schema and lexicon instances."""
        for name, domain in self.domains.items():
            schema = domain.schema_factory()
            self.sessions[name] = self.service.session(
                schema=schema, lexicon=verify.fresh_lexicon(domain, schema)
            )

    async def close(self) -> None:
        if self.service is not None:
            await self.service.aclose()


class Tally:
    """What one phase measured; answers go to the run's ``keep`` for the check."""

    def __init__(self, keep) -> None:
        self.keep = keep
        self.finished = array("q")
        self.latencies = array("q")
        self.write_latencies = array("q")
        self.write_sql_bytes = 0
        self.failed = 0
        self.elapsed_s = 0.0

    def add(self, request, finished: int, latency: int, digest: str, failed: bool) -> None:
        self.finished.append(finished)
        self.latencies.append(latency)
        if request.kind == "record":
            self.write_latencies.append(latency)
            self.write_sql_bytes += len(request.sql.encode("utf-8"))
        self.failed += failed
        self.keep(request, digest)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def answer_digest(seen: Tuple[Any, ...]) -> str:
    """The digest of an answer; a query result enters as its rows."""
    return verify.digest(*(
        part if isinstance(part, str) else verify.rows_text(part) for part in seen
    ))


async def client(
    deployment: Deployment,
    requests: Iterator,
    until_ns: Optional[int],
    tally: Tally,
    tracer: Optional[spans.Tracer] = None,
) -> None:
    """Closed loop: send, wait for the answer, record, repeat.

    Request kinds: ``verify`` translates; ``talkback`` translates, then
    executes and narrates the answer (``ContentNarrator``, as the service
    has no answer-narration call) or explains an empty one; ``record``
    executes a write and narrates the touched relation back.
    """
    sessions, narrators = deployment.sessions, deployment.narrators
    while until_ns is None or perf_counter_ns() < until_ns:
        # Draw only when the request will be sent, so a stream resumed in
        # a later phase continues exactly where this one stopped.
        request = next(requests, None)
        if request is None:
            break
        if tracer is not None:
            tracer.request_id = tally.attempted
            span = tracer.begin(spans.REQUEST)
        started = perf_counter_ns()
        error = None
        # The request is sent inline (no helper coroutine), so the time
        # between the service calls is as small as the loop allows.
        try:
            session = sessions[request.domain]
            if request.kind == "verify":
                seen = ((await session.translate(request.sql)).text,)
            elif request.kind == "record":
                result = await session.execute(request.sql)
                story = await session.narrate_relation(request.relation)
                seen = (result.statement_kind, str(result.affected_rows), story)
            else:
                text = (await session.translate(request.sql)).text
                result = await session.execute(request.sql)
                if not isinstance(result, QueryResult):
                    seen = (text, repr(result))
                elif result.is_empty:
                    seen = (text, result, (await session.explain_empty(request.sql)).text)
                else:
                    story = narrators[request.domain].narrate_query_answer(result, subject=text)
                    seen = (text, result, story)
        except Exception as caught:  # noqa: BLE001 - counted, never dropped
            error = caught
        finished = perf_counter_ns()
        if tracer is not None:
            # The request span is exactly the latency window.
            tracer.end(span)
            span[spans.START], span[spans.END] = started, finished
        # Digesting is the benchmark's own work: outside the latency window.
        failed = error is not None
        digest = verify.error_digest(error) if failed else answer_digest(seen)
        tally.add(request, finished, finished - started, digest, failed)


class Run:
    """Everything one benchmark invocation measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, work_dir: Path) -> None:
        from repro.datasets.domains import all_domains

        if workload not in streams.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {streams.WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work_dir = work_dir
        self.domains = {domain.name: domain for domain in all_domains()}
        self.clients = 1 if traced else CLIENTS
        #: (log, domain) -> (request, digest) in the order the session got
        #: them.  Log KEPT is the deployment the timed phase runs on; log
        #: PRISTINE holds the cold passes of the throw-away deployments,
        #: which only ever read unchanged data.
        self.logs: Dict[Tuple[str, str], List[Tuple[Any, str]]] = {}
        #: verify-churn keeps a seeded uniform sample instead (reservoir).
        self.sample: Optional[List[Tuple[Any, str]]] = [] if workload == "verify-churn" else None
        self._sample_rng = random.Random(f"{seed}:check-sample")
        self._offered = 0
        self.tallies: List[Tally] = []
        #: Requests attempted and failed in the set-up process.
        self.offloaded = [0, 0]
        self.setup_times: List[float] = []
        self.generate_times: List[float] = []
        self.cold_times: List[float] = []
        #: Resident set at the end of each timed segment.
        self.rss_mb: List[float] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.report: Dict[str, Any] = {}
        self.problems: List[str] = []

    def keeper(self, log: str):
        """The ``keep`` callback of a phase whose answers go to ``log``."""

        def keep(request, digest: str) -> None:
            if self.sample is None:
                self.logs.setdefault((log, request.domain), []).append((request, digest))
                return
            self._offered += 1
            if len(self.sample) < verify.CHURN_SAMPLE:
                self.sample.append((request, digest))
            else:
                slot = self._sample_rng.randrange(self._offered)
                if slot < verify.CHURN_SAMPLE:
                    self.sample[slot] = (request, digest)

        return keep

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    @property
    def attempted(self) -> int:
        return sum(tally.attempted for tally in self.tallies) + self.offloaded[0]

    @property
    def failed(self) -> int:
        return sum(tally.failed for tally in self.tallies) + self.offloaded[1]

    async def phase(
        self,
        deployment: Deployment,
        iterators: Sequence[Iterator],
        seconds: Optional[float],
        tracer: Optional[spans.Tracer] = None,
        log: str = KEPT,
    ) -> Tally:
        """Run one client task per iterator, for ``seconds`` or until they run dry."""
        tally = Tally(self.keeper(log))
        self.tallies.append(tally)
        started = perf_counter_ns()
        until = None if seconds is None else started + int(seconds * 1e9)
        await asyncio.gather(*(
            client(deployment, iterator, until, tally, tracer) for iterator in iterators
        ))
        tally.elapsed_s = (perf_counter_ns() - started) / 1e9
        return tally

    async def deploy(self, index: int, cold: bool, log: str) -> Deployment:
        """Set up one deployment (a ``setup_s`` sample), optionally with a cold pass."""
        deployment = Deployment(self.workload, self.domains, self.work_dir / f"state{index}")
        self.setup_times.append(deployment.open())
        self.generate_times.append(deployment.generate_s)
        if cold and self.workload == "verify-churn":
            self.cold_times.append(self.translate_cold(deployment, log).elapsed_s)
        elif cold:
            passes = [
                iter(streams.cold_pass(self.workload, c, self.clients, self.domains))
                for c in range(self.clients)
            ]
            self.cold_times.append((await self.phase(deployment, passes, None, log=log)).elapsed_s)
        return deployment

    def translate_cold(self, deployment: Deployment, log: str) -> Tally:
        """verify-churn's cold round, through each fresh session's translator.

        The round skips the service hop: a cold translation leaves the
        event loop for the worker thread and back, and those two thread
        wake-ups double a round and, whenever the host steals CPU, make up
        most of its run-to-run spread.  The hop is still timed wherever
        requests reach the worker (``talkback``, ``record-validate``).
        """
        tally = Tally(self.keeper(log))
        self.tallies.append(tally)
        started = perf_counter_ns()
        for request in streams.cold_pass(self.workload, 0, 1, self.domains):
            translator = deployment.sessions[request.domain].translator
            sent = perf_counter_ns()
            try:
                digest = verify.digest(translator.translate(request.sql).text)
                failed = False
            except Exception as error:  # noqa: BLE001 - counted, never dropped
                digest, failed = verify.error_digest(error), True
            finished = perf_counter_ns()
            tally.add(request, finished, finished - sent, digest, failed)
        tally.elapsed_s = (perf_counter_ns() - started) / 1e9
        return tally

    async def throwaway(self, index: int, cold: bool) -> None:
        deployment = await self.deploy(index, cold, PRISTINE)
        await deployment.close()
        gc.collect()

    def throwaways(self, process: setups.SetupProcess, first: int, colds: List[bool]) -> None:
        """Set-ups ``first`` onwards, one per ``cold`` flag, in the set-up process.

        The kept deployment is idle meanwhile: no client task is running.
        """
        if not colds:
            return
        done = process.call(self.workload, self.seed, self.traced, self.work_dir, first, colds)
        self.setup_times.extend(done["setup_times"])
        self.generate_times.extend(done["generate_times"])
        self.cold_times.extend(done["cold_times"])
        keep = self.keeper(PRISTINE)
        for request, digest in done["answers"]:
            keep(request, digest)
        self.offloaded[0] += done["attempted"]
        self.offloaded[1] += done["failed"]

    def extra_setups(self) -> List[List[bool]]:
        """For each gap after a timed segment: one ``cold`` flag per extra set-up.

        The extra set-ups and cold passes are spread over the whole run,
        so they see the same spells of outside load as the timed
        segments.
        """
        extra = SETUP_REPEATS - 1
        rounds = COLD_ROUNDS[self.workload] - 1
        with_cold = {round(i * extra / rounds) for i in range(rounds)} if rounds else set()
        gaps: List[List[bool]] = [[] for _ in range(SEGMENTS)]
        for index in range(extra):
            gaps[index * SEGMENTS // extra].append(index in with_cold)
        return gaps

    async def execute(self) -> None:
        # Durable sessions recover whatever a directory holds: start empty.
        clean(self.work_dir)
        inputs = streams.stream_inputs(self.workload, self.domains)
        with setups.SetupProcess() as process:
            deployment = await self.deploy(0, cold=True, log=KEPT)
            try:
                await self.timed(deployment, inputs, process)
            finally:
                await deployment.close()
        self.metric("setup_s", statistics.median(self.setup_times), "s")
        self.metric("datasets.generate_s", statistics.median(self.generate_times), "s")
        self.metric("cold_pass_s", min(self.cold_times), "s")
        self.metric("peak_rss_mb", max(self.rss_mb), "MB")
        self.report["segment_rss_mb"] = self.rss_mb
        self.report["setup_s_samples"] = self.setup_times
        self.report["cold_pass_s_samples"] = self.cold_times
        self.check(deployment)

    async def timed(self, deployment: Deployment, inputs, process: setups.SetupProcess) -> None:
        """The timed phase on the kept deployment, and the throw-away set-ups."""
        iterators = [
            streams.stream(self.workload, self.seed, c, self.clients, self.domains, inputs)
            for c in range(self.clients)
        ]
        gaps = self.extra_setups()
        if self.traced:
            # The traced phase stays in one piece; set up afterwards.
            await self.traced_phases(deployment, iterators)
            self.throwaways(process, 1, [flag for gap in gaps for flag in gap])
            return
        segments = []
        index = 1
        for gap in gaps:
            segments.append(await self.phase(deployment, iterators, self.seconds / SEGMENTS))
            self.rss_mb.append(resident_mb())
            self.throwaways(process, index, gap)
            index += len(gap)
        self.end_to_end(segments)

    def end_to_end(self, segments: List[Tally]) -> None:
        """Throughput and latency over the whole timed phase.

        ``requests_per_s`` is every completed request over the summed
        segment time, and the percentiles are over the pooled samples, so
        a slowdown that builds up during the run (the WAL grows, caches
        fill, checkpoints and collector pauses hit) counts in full.  The
        per-segment figures go to the report line.
        """
        latencies = [[ns / 1e6 for ns in tally.latencies] for tally in segments]
        pooled = [ms for values in latencies for ms in values]
        self.metric(
            "requests_per_s",
            sum(t.attempted for t in segments) / sum(t.elapsed_s for t in segments),
            "1/s",
        )
        self.metric("latency_p50_ms", layers.percentile(pooled, 0.50), "ms")
        self.metric("latency_p99_ms", layers.percentile(pooled, 0.99), "ms")
        writes = [ns / 1e6 for tally in segments for ns in tally.write_latencies]
        self.report.update(
            segment_requests_per_s=[t.attempted / t.elapsed_s for t in segments],
            segment_latency_p50_ms=[layers.percentile(v, 0.50) for v in latencies],
            segment_latency_p99_ms=[layers.percentile(v, 0.99) for v in latencies],
            latency_samples=len(pooled),
            latency_samples_per_segment=[tally.attempted for tally in segments],
            write_samples=len(writes),
            write_p50_ms=layers.percentile(writes, 0.50) if writes else None,
            write_p99_ms=layers.percentile(writes, 0.99) if writes else None,
        )

    async def traced_phases(self, deployment: Deployment, iterators) -> None:
        # Untraced quarter, traced half, untraced quarter: drift over the
        # run falls on both sides of the overhead comparison alike.
        quarter = self.seconds / 4
        untraced = [await self.phase(deployment, iterators, quarter)]
        before = deployment.service.stats()
        scans_before = self.vector_scans(deployment)
        tracer = spans.Tracer()
        instrumentation = spans.Instrumentation(tracer).install()
        try:
            traced = await self.phase(deployment, iterators, 2 * quarter, tracer)
        finally:
            instrumentation.remove()
        after = deployment.service.stats()
        vector_scans = self.vector_scans(deployment) - scans_before
        untraced.append(await self.phase(deployment, iterators, quarter))
        self.rss_mb.append(resident_mb())
        counts = layers.Counts(
            requests=traced.attempted,
            writes=len(traced.write_latencies),
            write_sql_bytes=traced.write_sql_bytes,
            vector_scans=vector_scans,
        )
        for name, (value, unit) in layers.layer_metrics(tracer, counts, before, after).items():
            self.metric(name, value, unit)
        untraced_rps = sum(t.attempted for t in untraced) / sum(t.elapsed_s for t in untraced)
        traced_rps = traced.attempted / traced.elapsed_s
        self.metric("trace.overhead_pct", 100.0 * (untraced_rps - traced_rps) / untraced_rps, "%")
        self.report["traced_requests"] = traced.attempted
        self.report["untraced_requests_per_s"] = untraced_rps
        self.report["traced_requests_per_s"] = traced_rps

    @staticmethod
    def vector_scans(deployment: Deployment) -> int:
        # Executor.vector_scans is a public counter that cache_stats does
        # not report; the executor is the session's shared one.
        executors = [session._executor for session in deployment.sessions.values()]
        return sum(executor.vector_scans for executor in executors if executor is not None)

    def check(self, deployment: Deployment) -> None:
        if self.sample is not None:
            references = {name: verify.Reference(domain) for name, domain in self.domains.items()}
            logs: Dict[Tuple[str, str], List[Tuple[Any, str]]] = {}
            for request, digest in self.sample:
                logs.setdefault((KEPT, request.domain), []).append((request, digest))
            chosen = {KEPT: references}
        else:
            scale = streams.SCALES[self.workload]

            def references_now() -> Dict[str, verify.Reference]:
                return {
                    name: verify.Reference(domain, domain.database(streams.DATA_SEED, scale))
                    for name, domain in self.domains.items()
                }

            logs = self.logs
            references = references_now()
            # Reads of unchanged data answer alike on any reference that has
            # seen no write, so only a workload that writes needs a second,
            # pristine reference for the throw-away deployments' cold passes.
            writes = self.workload == "record-validate"
            chosen = {KEPT: references, PRISTINE: references_now() if writes else references}
        for (log, name), entries in sorted(logs.items()):
            self.problems.extend(verify.replay(chosen[log][name], entries))
        self.report["checked_requests"] = sum(len(entries) for entries in logs.values())
        if self.workload == "record-validate":
            self.problems.extend(verify.check_recovery(deployment.sessions, references))


def throwaway_setups(
    workload: str, seed: int, traced: bool, work_dir: Path, first: int, colds: List[bool]
) -> Dict[str, Any]:
    """Set up one deployment per ``cold`` flag and close it again.

    Runs in the set-up process.  Returns the set-up and cold-pass times,
    every answer of the cold passes for the output check, and the count
    of requests attempted and failed.
    """
    run = Run(workload, seed, 0.0, traced, work_dir)
    run.sample = None  # the caller samples verify-churn's answers

    async def set_up() -> None:
        for offset, cold in enumerate(colds):
            await run.throwaway(first + offset, cold)

    asyncio.run(set_up())
    return {
        "setup_times": run.setup_times,
        "generate_times": run.generate_times,
        "cold_times": run.cold_times,
        "answers": [entry for entries in run.logs.values() for entry in entries],
        "attempted": run.attempted,
        "failed": run.failed,
    }


def clean(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
