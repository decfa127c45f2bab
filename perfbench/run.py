"""End-to-end sweep benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 30 --trace 0

Workloads are ``headline``, ``paper-grid`` and ``service`` (see
``perfbench/README.md``); ``--workload all`` runs the three in turn.  With ``--trace 0`` the last line of standard
output is a JSON object whose metrics are the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead
(spans are written to ``.perfbench/traces/``).  Lines before it print
every metric with its unit, the failure share, the job-latency tail and
the environment the numbers were taken in.

The program is pure Python, so nothing is built: the workload runs from
``src/`` in a child process with ``REPRO_CHAOS`` cleared, ``REPRO_KERNEL``
pinned to ``numpy`` and a fresh cache under ``.perfbench/tmp/`` (never
``.repro-cache``), which is removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from measure import check_metric_name, median, rate, tail_percentile
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("headline", "paper-grid", "service")

#: End-to-end metrics: name -> unit.  Job latency and the failure
#: share are printed too but are not bounded metrics (see README.md).
END_TO_END = {
    "trials_per_s": "1/s",
    "warm_trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER: Dict[str, str] = {
    "spec.trial_seed_s": "s",
    "spec.spec_hash_calls": "count",
    "engine.run_s": "s",
    "engine.trial_rounds": "count",
    "trial.materialise_s": "s",
    "trial.digest_s": "s",
    "trial.digest_calls": "count",
    "cache.store_s": "s",
    "cache.store_chunk_s": "s",
    "cache.bytes_written": "bytes",
    "cache.docs_written": "count",
    "cache.load_s": "s",
    "cache.load_partial_s": "s",
    "cache.bytes_read": "bytes",
    "cache.hit_ratio": "ratio",
    "executor.chunks": "count",
    "executor.retries": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.bytes": "bytes",
    "netio.chunk_rtt_s": "s",
    "netio.outcomes_fetch_s": "s",
    "netio.bytes_in": "bytes",
    "netio.bytes_out": "bytes",
    "remote.chunks": "count",
    "remote.retries": "count",
    "worker.chunk_exec_s": "s",
    "jobs.queue_wait_s": "s",
    "jobs.dedup_hits": "count",
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.busy_s"] = "s"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "trace.wall_s": "s",
        "trace.unaccounted_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
    }
)

#: Set-up samples per local run: this many probe processes plus the
#: measured process itself.
SETUP_PROBES = 6
#: Every child must be done well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    env["REPRO_KERNEL"] = "numpy"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest(root: Path) -> str:
    """sha256 over ``src/`` (paths and bytes): identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_child(args: List[str], env: Dict[str, str]) -> "tuple[subprocess.Popen, float]":
    """Start a workload process; returns it and its time to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        kill_group(proc)
        raise RuntimeError(f"workload process did not start: {line!r}")
    return proc, ready


def kill_group(proc: "subprocess.Popen") -> None:
    """Kill a workload process and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish_child(proc: "subprocess.Popen", timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Wait for a workload process; returns its result (``{}`` for a probe)."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise RuntimeError("workload process timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else {}


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
        help="one workload, or all of them one after the other",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            status = max(status, main([
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]))
        return status

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    os.environ.pop("REPRO_CHAOS", None)
    env = child_env(root)
    work = root / ".perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work / "tmp"))
    trace_out = work / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(scratch),
        "--trace-out", str(trace_out),
    ]
    setup: List[float] = []
    probes = SETUP_PROBES if args.workload != "service" and not args.trace else 0

    def probe(k: int) -> None:
        proc, ready = start_child(
            ["--workload", args.workload, "--scratch", str(scratch / f"probe-{k}"), "--probe"],
            env,
        )
        finish_child(proc, timeout=60.0)
        setup.append(ready)

    try:
        # Half the set-up probes run before the measurement and half
        # after it, so their median is not taken in one moment of the
        # host's load.
        for k in range(probes // 2):
            probe(k)
        proc, ready = start_child(child_args, env)
        setup.append(ready)
        result = finish_child(proc)
        for k in range(probes // 2, probes):
            probe(k)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not result:
        print("perfbench: the workload process printed no result", file=sys.stderr)
        return 1
    if args.workload == "service":
        setup = result["setup_s"]
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = failed == 0 and attempted > 0
    env_doc = dict(result["env"])
    env_doc.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        commit=git_commit(root),
        source_sha256=source_digest(root),
    )
    print(f"env {json.dumps(env_doc, sort_keys=True)}")
    for problem in result.get("problems", []):
        print(f"problem: {problem}")
    print(f"failed_frac {failed / max(attempted, 1):.6g} (failed {failed} of {attempted} trials)")

    if args.trace:
        layers = result["layers"]
        values = layers["metrics"]
        metrics = {check_metric_name(n): metric(values[n], PER_LAYER[n]) for n in PER_LAYER}
        cold = layers["cold_breakdown"]
        print(f"traced cold pass: {cold['wall_s']:.4f} s per pass, self time by layer:")
        for layer, secs in sorted(cold["self_s"].items(), key=lambda kv: -kv[1]):
            share = secs / cold["wall_s"] if cold["wall_s"] else 0.0
            print(f"  {layer:<12} {secs:10.4f} s  {share:6.1%}")
        print(f"spans written to {trace_out.relative_to(root)}")
    else:
        latencies = result["job_latency_s"]
        if not result["cold"] or not latencies:
            print("perfbench: the run completed no pass", file=sys.stderr)
            return 1
        values = {
            "trials_per_s": rate(result["cold"]),
            "warm_trials_per_s": rate(result["warm"]),
            "setup_s": median(setup),
            "peak_rss_mb": float(result["peak_rss_mb"]),
        }
        metrics = {check_metric_name(n): metric(values[n], END_TO_END[n]) for n in END_TO_END}
        print(f"job_latency_p50_s {median(latencies):.6g} s (median of {len(latencies)} jobs)")
        tail = tail_percentile(latencies)
        if tail is None:
            print("job latency: too few samples for a tail percentile")
        else:
            p, value, beyond = tail
            print(f"job latency p{p}: {value:.6g} s ({beyond} of {len(latencies)} samples beyond)")
        print(f"passes {len(result['cold'])}, set-up samples {len(setup)}")
    for name, doc in metrics.items():
        print(f"{name} {doc['value']:.6g} {doc['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
