"""One benchmark workload, run in a process of its own.

``run.py`` starts this script once per measurement (and a few more
times with ``--probe`` to time set-up), so ``ru_maxrss`` and import
costs are never shared between workloads.  The script prints
``ready`` once ``repro`` is imported and the first executor exists,
then, as its last line, one JSON document of raw samples that
``run.py`` turns into metrics.

Workloads (their batches' base seeds come from ``--seed``):

* ``headline`` -- synran x tally-attack x n=t=1000 x 10^4 trials on
  the batch engine through ``SerialExecutor`` + a fresh
  ``ResultCache``; a cold pass, then a warm re-run on a fresh executor
  over the same cache.
* ``paper-grid`` -- the distinct cells E5 and E6 run at full scale
  plus one batch2d valency-keeper cell, through ``ParallelExecutor(2)``
  + a fresh cache, then warm.
* ``service`` -- ``repro serve`` with two ``repro worker`` processes;
  one closed-loop client submits distinct plans, fetches each job's
  outcomes, then resubmits the plan (a dedup hit) and fetches again.

Correctness is checked outside the timed regions: every batch's
outcome digest must equal that of a cache-less ``run_chunk`` run of
the same batch, and warm (or deduplicated) results must equal cold
ones.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy

from repro.errors import ReproError
from repro.harness.exec import (
    ExecutionPlan,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    TrialBatch,
    TrialOutcome,
    TrialSpec,
    run_chunk,
    spec_params,
)
from repro.harness.exec.spec import ENGINE_BATCH, ENGINE_BATCH2D, ENGINE_FAST
from repro.harness.exec.trial import outcomes_digest
from repro.service.client import ServiceClient
from repro.service.netio import ServiceUnreachable, request_json

import tracer
from measure import rate

#: Pool and fleet size: two processes, the core count of the host the
#: bounds were set on (the load never uses more processes than cores).
WORKERS = 2
HEADLINE_TRIALS = 10_000
#: Trials per batch of a service plan, and the two n values of a plan.
SERVICE_TRIALS = 1_000
SERVICE_NS = (500, 1000)
#: How often the service client asks for a job's state.  Far below the
#: 0.1 s of ``ServiceClient.wait`` and of the server's SSE poll, so the
#: observed completion time carries no 100 ms steps.
POLL_S = 0.002
#: Fleets started per service run; the median start-up is reported and
#: the last fleet serves the measurement.
FLEET_STARTS = 3
#: Job-table bound of the measured server, so that its memory stops
#: growing after a few jobs instead of tracking the run's length.
SERVICE_MAX_JOBS = 4
#: Least measured time of warm re-runs per untraced local pass.
WARM_MIN_S = 0.5

_URL_LINE = re.compile(r"serving on (http://\S+)")


def headline_spec(n: int = 1000) -> TrialSpec:
    return TrialSpec(
        protocol="synran",
        adversary="tally-attack",
        n=n,
        t=n,
        inputs="worst",
        engine=ENGINE_BATCH,
    )


def headline_plan(seed: int) -> ExecutionPlan:
    return ExecutionPlan(
        (TrialBatch(headline_spec(), HEADLINE_TRIALS, base_seed=seed, label="headline"),)
    )


def grid_plan(seed: int) -> ExecutionPlan:
    """E5 and E6 at full scale (distinct cells), plus a batch2d cell.

    E5's SynRan cells are E6's tally-attack cells at the same seed, so
    they appear once.  E5's Ben-Or n=96 cell is left out: its ten
    trials often run to the round horizon, so its cost swings with the
    seed by more than the benchmark's bounds allow (see README.md).
    """
    batches: List[TrialBatch] = []
    for n in (256, 1024, 4096, 16384):
        for name, params in (
            ("benign", ()),
            ("random", spec_params(rate=0.02)),
            ("tally-attack", ()),
        ):
            spec = TrialSpec(
                protocol="synran",
                adversary=name,
                n=n,
                t=n,
                inputs="worst",
                adversary_params=params,
                engine=ENGINE_FAST,
            )
            batches.append(TrialBatch(spec, 20, base_seed=seed, label=f"E6/{name}/n={n}"))
    for n in (48,):
        t = n // 4
        spec = TrialSpec(
            protocol="benor",
            adversary="benor-quorum",
            n=n,
            t=t,
            inputs="worst",
            adversary_params=spec_params(decide_threshold=t + 1),
            inputs_params=spec_params(fraction=0.5),
        )
        batches.append(TrialBatch(spec, 10, base_seed=seed, label=f"E5/benor/n={n}"))
    spec = TrialSpec(
        protocol="synran",
        adversary="valency-keeper",
        n=1000,
        t=1000,
        inputs="worst",
        engine=ENGINE_BATCH2D,
    )
    batches.append(TrialBatch(spec, 200, base_seed=seed, label="batch2d/valency-keeper"))
    return ExecutionPlan(tuple(batches))


def service_plan(seed: int, index: int) -> ExecutionPlan:
    """The ``index``-th distinct plan of a service run."""
    base_seed = seed * 1000 + index
    return ExecutionPlan(
        tuple(
            TrialBatch(headline_spec(n), SERVICE_TRIALS, base_seed=base_seed, label=f"n={n}")
            for n in SERVICE_NS
        )
    )


def reference_digest(batch: TrialBatch) -> str:
    """Digest of a cache-less, in-process run of the whole batch."""
    return outcomes_digest(run_chunk(batch.spec, batch.base_seed, range(batch.trials)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_dir(scratch: Path, name: str) -> Path:
    path = scratch / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Tally:
    """Attempted and failed trials, and what the failures were."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, trials: int, why: str) -> None:
        self.failed += trials
        if len(self.problems) < 20:
            self.problems.append(why)


# ----------------------------------------------------------------------
# Local workloads: headline and paper-grid
# ----------------------------------------------------------------------


def local_pass(
    plan: ExecutionPlan,
    new_executor: Callable[[ResultCache], Any],
    root: Path,
    tally: Tally,
    first: List[List[TrialOutcome]],
    rec: Optional[tracer.Recorder] = None,
    executor: Any = None,
) -> Tuple[float, List[float]]:
    """A cold pass, then warm re-runs; returns ``(cold_s, [warm_s, ...])``.

    Each warm re-run uses a fresh executor over the cache the cold pass
    filled.  Untraced passes repeat the warm re-run until
    ``WARM_MIN_S`` seconds of it were measured, because one warm
    paper-grid re-run takes only a few tens of milliseconds; a traced
    pass makes exactly one, so per-pass layer figures mean one cold
    and one warm run.  The first pass's cold outcomes are kept in
    ``first``; every later pass must reproduce them exactly, and
    :func:`check_first` compares them with the reference.
    """

    def run_all(ex: Any, phase: str) -> Tuple[float, List[List[TrialOutcome]]]:
        with ex:
            start = time.perf_counter()
            if rec is not None:
                out = rec.phase(f"bench.{phase}", lambda: [ex.run_outcomes(b) for b in plan])
            else:
                out = [ex.run_outcomes(b) for b in plan]
            return time.perf_counter() - start, out

    cold_s, cold = run_all(executor or new_executor(ResultCache(root)), "cold")
    if not first:
        first.extend(cold)
    for index, batch in enumerate(plan):
        tally.attempted += batch.trials
        if len(cold[index]) != batch.trials:
            tally.fail(batch.trials, f"cold {batch.label}: {len(cold[index])} of {batch.trials} trials")
        elif cold[index] != first[index]:
            tally.fail(batch.trials, f"cold {batch.label} differs from the first pass")
    warm_s: List[float] = []
    while not warm_s or (rec is None and sum(warm_s) < WARM_MIN_S and len(warm_s) < 100):
        elapsed, warm = run_all(new_executor(ResultCache(root)), "warm")
        warm_s.append(elapsed)
        for index, batch in enumerate(plan):
            tally.attempted += batch.trials
            if warm[index] != cold[index]:
                tally.fail(batch.trials, f"warm {batch.label} differs from cold")
    return cold_s, warm_s


def check_first(plan: ExecutionPlan, first: List[List[TrialOutcome]], tally: Tally) -> None:
    """The first pass's outcomes against a cache-less run of each batch."""
    for batch, outcomes in zip(plan, first):
        if outcomes_digest(outcomes) != reference_digest(batch):
            tally.fail(batch.trials, f"{batch.label}: digest differs from cache-less run_chunk")


def run_local(args: argparse.Namespace) -> Dict[str, Any]:
    plan = headline_plan(args.seed) if args.workload == "headline" else grid_plan(args.seed)
    if args.workload == "headline":
        def new_executor(cache: ResultCache) -> Any:
            return SerialExecutor(cache=cache)
    else:
        def new_executor(cache: ResultCache) -> Any:
            return ParallelExecutor(WORKERS, cache=cache)
    scratch = Path(args.scratch)
    first: Any = new_executor(ResultCache(scratch / "pass-0"))
    print("ready", flush=True)
    if args.probe:
        first.close()
        return {}

    tally = Tally()
    first_outcomes: List[List[TrialOutcome]] = []
    trials = plan.total_trials()
    # (trials, seconds) per timed run
    samples: Dict[str, List[Tuple[int, float]]] = {"cold": [], "warm": [], "traced_cold": []}
    rec = tracer.Recorder(scratch / "spool") if args.trace else None
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < (2 if args.trace else 1) or time.perf_counter() < deadline:
        traced = args.trace and passes % 2 == 1
        root = _fresh_dir(scratch, f"pass-{passes}")
        # Flush what earlier passes wrote, so their writeback does not
        # land inside this pass's timing.
        os.sync()
        uninstall = tracer.install(rec) if traced else None
        try:
            cold_s, warm_s = local_pass(
                plan,
                new_executor,
                root,
                tally,
                first_outcomes,
                rec if traced else None,
                first if passes == 0 else None,
            )
        finally:
            if uninstall is not None:
                uninstall()
        shutil.rmtree(root, ignore_errors=True)
        if traced:
            samples["traced_cold"].append((trials, cold_s))
        else:
            samples["cold"].append((trials, cold_s))
            samples["warm"].extend((trials, w) for w in warm_s)
        passes += 1
    rss = peak_rss_mb()
    check_first(plan, first_outcomes, tally)
    result: Dict[str, Any] = {
        "cold": samples["cold"],
        "warm": samples["warm"],
        "job_latency_s": [seconds for _, seconds in samples["cold"]],
        "peak_rss_mb": rss,
    }
    if rec is not None:
        result["layers"] = finish_trace(rec, args, samples)
    return _with_tally(result, tally)


def finish_trace(
    rec: tracer.Recorder, args: argparse.Namespace, samples: Dict[str, List[Tuple[int, float]]]
) -> Dict[str, Any]:
    rec.collect_spool()
    rec.dump(Path(args.trace_out))
    untraced = rate(samples["cold"])
    traced = rate(samples["traced_cold"])
    passes = len(samples["traced_cold"])
    metrics = tracer.layer_metrics(rec.spans, rec.counters, passes, (untraced - traced) / untraced)
    total, shares = tracer.breakdown(rec.spans, "bench.cold")
    return {
        "metrics": metrics,
        "cold_breakdown": {"wall_s": total / passes, "self_s": {k: v / passes for k, v in shares.items()}},
        "traced_passes": passes,
    }


def _with_tally(result: Dict[str, Any], tally: Tally) -> Dict[str, Any]:
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    return result


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


def _healthy(url: str, deadline: float) -> None:
    while True:
        try:
            status, doc = request_json(url, "GET", "/healthz", timeout=5.0)
            if status == 200 and isinstance(doc, dict) and doc.get("ok"):
                return
        except ServiceUnreachable:
            pass
        if time.perf_counter() > deadline:
            raise ServiceUnreachable(f"{url}/healthz never turned healthy")
        time.sleep(0.005)


class Fleet:
    """``repro serve`` plus its ``repro worker`` processes."""

    def __init__(self, cache_dir: Path) -> None:
        self.procs: List[subprocess.Popen] = []
        start = time.perf_counter()
        try:
            workers = [
                self._spawn(["worker", "--host", "127.0.0.1", "--port", "0"])
                for _ in range(WORKERS)
            ]
            urls = [self._url(proc) for proc in workers]
            server_args = ["serve", "--host", "127.0.0.1", "--port", "0"]
            for url in urls:
                server_args += ["--worker-endpoint", url]
            server_args += ["--cache-dir", str(cache_dir), "--max-jobs", str(SERVICE_MAX_JOBS)]
            self.server = self._spawn(server_args)
            self.url = self._url(self.server)
            deadline = time.perf_counter() + 60.0
            for url in urls + [self.url]:
                _healthy(url, deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _spawn(self, args: List[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def _url(proc: subprocess.Popen) -> str:
        assert proc.stdout is not None
        for line in proc.stdout:
            match = _URL_LINE.search(line)
            if match:
                return match.group(1)
        raise ServiceUnreachable(f"{proc.args!r} exited before announcing its URL")

    def server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ReproError("server /proc status has no VmHWM line")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs = []


class InProcessFleet:
    """The same tiers hosted on threads of this process (traced run)."""

    def __init__(self, cache_dir: Path) -> None:
        from repro.service.netio import ServerThread
        from repro.service.server import ServerConfig, SweepServerApp
        from repro.service.worker import WorkerApp

        self.workers = [WorkerApp() for _ in range(WORKERS)]
        self.threads = [ServerThread(w.app) for w in self.workers]
        for thread in self.threads:
            thread.start()
        config = ServerConfig(
            cache_dir=str(cache_dir),
            worker_endpoints=tuple(t.url for t in self.threads),
            max_jobs=SERVICE_MAX_JOBS,
        )
        self.app = SweepServerApp(config)
        server = ServerThread(self.app.app)
        server.start()
        self.threads.append(server)
        self.url = server.url

    def stop(self) -> None:
        for thread in reversed(self.threads):
            thread.stop()
        self.app.close()
        for worker in self.workers:
            worker.close()


def service_iteration(
    client: ServiceClient, plan: ExecutionPlan, tally: Tally, rec: Optional[tracer.Recorder]
) -> Optional[Tuple[float, float, float, List[str]]]:
    """Submit, wait, fetch; resubmit, fetch.  Returns timings + digests.

    ``(latency_s, cold_s, warm_s, cold digests per batch)``, or ``None``
    when the job failed or a request was refused.
    """
    trials = plan.total_trials()
    tally.attempted += 2 * trials

    def cold() -> Tuple[Dict[str, Any], float]:
        receipt = client.submit(plan, label="perfbench")
        while True:
            state = client.status(receipt.job_id)["state"]
            if state in ("done", "failed"):
                break
            time.sleep(POLL_S)
        done_at = time.perf_counter()
        if state != "done":
            raise ReproError(f"job {receipt.job_id} failed")
        return client.outcomes(receipt.job_id), done_at

    def warm() -> Dict[str, Any]:
        receipt = client.submit(plan, label="perfbench-again")
        if not receipt.coalesced or receipt.state != "done":
            raise ReproError(f"resubmission not a finished dedup hit: {receipt.state}")
        return client.outcomes(receipt.job_id)

    try:
        submitted = time.perf_counter()
        cold_doc, done_at = rec.phase("bench.cold", cold) if rec else cold()
        cold_s = time.perf_counter() - submitted
        start = time.perf_counter()
        warm_doc = rec.phase("bench.warm", warm) if rec else warm()
        warm_s = time.perf_counter() - start
    except ReproError as exc:
        tally.fail(2 * trials, f"plan {plan.batches[0].base_seed}: {exc}")
        return None
    if warm_doc["batches"] != cold_doc["batches"]:
        tally.fail(trials, f"plan {plan.batches[0].base_seed}: dedup outcomes differ from cold")
    digests = []
    for batch, served in zip(plan, cold_doc["batches"]):
        outcomes = [TrialOutcome.from_jsonable(r) for r in served["outcomes"]]
        if len(outcomes) != batch.trials:
            tally.fail(batch.trials, f"{batch.label}: {len(outcomes)} of {batch.trials} served")
        digests.append(outcomes_digest(outcomes))
    return done_at - submitted, cold_s, warm_s, digests


def run_service(args: argparse.Namespace) -> Dict[str, Any]:
    scratch = Path(args.scratch)
    print("ready", flush=True)
    if args.probe:
        return {}
    tally = Tally()
    setup: List[float] = []
    fleet: Any = None
    if not args.trace:
        for k in range(FLEET_STARTS):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(_fresh_dir(scratch, f"fleet-{k}"))
            setup.append(fleet.setup_s)
    else:
        fleet = InProcessFleet(_fresh_dir(scratch, "fleet"))
    rec = tracer.Recorder(scratch / "spool") if args.trace else None
    # (trials, seconds) per timed run; latencies in seconds
    samples: Dict[str, List[Any]] = {"cold": [], "warm": [], "latency": [], "traced_cold": []}
    checked: List[Tuple[ExecutionPlan, List[str]]] = []
    rss = 0.0
    try:
        client = ServiceClient(fleet.url, timeout=120.0)
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < (2 if args.trace else 1) or time.perf_counter() < deadline:
            plan = service_plan(args.seed, index)
            traced = args.trace and index % 2 == 1
            uninstall = tracer.install(rec) if traced else None
            try:
                outcome = service_iteration(client, plan, tally, rec if traced else None)
            finally:
                if uninstall is not None:
                    uninstall()
            index += 1
            if outcome is None:
                continue
            latency, cold_s, warm_s, digests = outcome
            if traced:
                samples["traced_cold"].append((plan.total_trials(), cold_s))
            else:
                samples["cold"].append((plan.total_trials(), cold_s))
                samples["warm"].append((plan.total_trials(), warm_s))
                samples["latency"].append(latency)
            checked.append((plan, digests))
        if not args.trace:
            rss = fleet.server_peak_rss_mb()
    finally:
        fleet.stop()
    for plan, digests in checked:
        for batch, got in zip(plan, digests):
            if got != reference_digest(batch):
                tally.fail(batch.trials, f"{batch.label} seed {batch.base_seed}: served digest differs from local run_chunk")
    result: Dict[str, Any] = {
        "cold": samples["cold"],
        "warm": samples["warm"],
        "job_latency_s": samples["latency"],
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    if rec is not None:
        result["layers"] = finish_trace(rec, args, samples)
    return _with_tally(result, tally)


def environment() -> Dict[str, Any]:
    return {
        "numpy": numpy.__version__,
        "repro_kernel": os.environ.get("REPRO_KERNEL"),
        "repro_chaos": os.environ.get("REPRO_CHAOS"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("headline", "paper-grid", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--probe", action="store_true", help="print ready after set-up and exit")
    args = parser.parse_args(argv)
    if args.workload == "service":
        result = run_service(args)
    else:
        result = run_local(args)
    if not args.probe:
        result["env"] = environment()
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
