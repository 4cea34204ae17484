"""End-to-end benchmark of the reproduction: one command, three workloads.

    python3 e2ebench/run.py --workload sweep-random --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``e2ebench/README.md``):

- ``sweep-random``: the canonical ADS/random sweep, n = 2..8, serial,
  through ``workloads.build_sweep(...).execute()`` on library defaults;
- ``fuzz-adversary``: ``verify.fuzz.fuzz_consensus`` over n = 2, 3, 4 and
  the four standard schedules with crash/recovery plans, ``workers=2``;
- ``service-mixed``: ``repro serve --workers 2`` driven over HTTP by a
  closed loop of two clients submitting sweep jobs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter set-ups), throughput, job latency and peak RSS, all
measured with tracing off.  Times are rescaled to a reference host by a
fixed probe run between timed pieces of work (``common.HostSpeed``), so
the host's own speed drift does not read as a change of the program.
``--trace 1`` runs a fixed amount of work twice in fresh interpreters,
untraced and traced, and prints the per-layer metrics of the traced run
plus ``trace.overhead_ratio``.

Every run checks its outputs: cells pass ``validate_run``, fuzz reports
are clean, service jobs reach DONE with the expected cache hits, and a
differential check (fast interpreter, serial pool, or library path)
must reproduce the outcome digest.  The digest -- sha256 over sorted
(experiment, n, seed, value) tuples of a fixed prefix of the work -- is
printed and, with ``--expect-digest``, compared.  Any problem makes the
run print ``"correct": false`` and exit 1.  The last stdout line is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    SETUP_PROBES,
    SWEEP_STREAMS,
    TRACE_UNITS,
    UNSET_ENV,
    UNSET_PROXY_ENV,
    WORKLOADS,
    HostSpeed,
    median,
    outcome_digest,
    percentile,
)

#: Every run (set-ups, checks, both traced halves) ends within this.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "steps_per_s": "1/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SERVE_METRICS = (
    "obs.ledger.cache_hit_share",
    "serve.http.submit_ms_p50",
    "serve.http.result_ms_p50",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p90",
    "serve.dispatch_ms_p50",
    "serve.task_ms_p50",
    "serve.checkpoint_ms_p50",
)


def layer_unit(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


class RunError(RuntimeError):
    """A child failed to produce a result."""


def clean_env() -> tuple[dict[str, str], list[str], dict[str, str]]:
    """The children's environment: inherited knobs removed, the source
    tree on the path, hash seeds fixed so profiles repeat exactly."""
    env = dict(os.environ)
    removed = [name for name in UNSET_ENV + UNSET_PROXY_ENV if env.pop(name, None) is not None]
    pinned = {
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        # provenance runs `git rev-parse`; keep it from searching above the checkout
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
    }
    env.update(pinned)
    return env, removed, pinned


class Children:
    """Runs child interpreters in sessions of their own, within the run's
    remaining time budget, and stops their whole process groups.  Their
    output goes to files in ``logs``, so children running side by side
    never block on a full pipe."""

    def __init__(self, env: dict[str, str], deadline: float, logs: pathlib.Path):
        self.env = env
        self.deadline = deadline
        self.logs = logs
        self.started = 0

    def run(self, argv: list[str]) -> dict[str, Any]:
        return self.run_all([argv])[0]

    def run_all(self, argvs: list[list[str]]) -> list[dict[str, Any]]:
        """Run the children side by side; their results, in order."""
        if self.deadline - time.monotonic() <= 0:
            raise RunError("out of time before " + " ".join(argvs[0][:3]))
        procs, files = [], []
        try:
            for argv in argvs:
                self.started += 1
                out = open(self.logs / f"child-{self.started}.out", "w+")
                err = open(self.logs / f"child-{self.started}.err", "w+")
                files.append((out, err))
                procs.append(
                    subprocess.Popen(
                        [sys.executable, *argv],
                        cwd=ROOT,
                        env=self.env,
                        stdout=out,
                        stderr=err,
                        start_new_session=True,
                    )
                )
            for argv, proc in zip(argvs, procs):
                try:
                    proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    raise RunError(f"{argv[0]} timed out") from None
            return [self._result(argv, proc, *pair) for argv, proc, pair in zip(argvs, procs, files)]
        finally:
            for proc in procs:
                self._kill(proc)
            for pair in files:
                for handle in pair:
                    handle.close()

    @staticmethod
    def _result(argv: list[str], proc: subprocess.Popen, out, err) -> dict[str, Any]:
        out.seek(0)
        results = [line for line in out.read().splitlines() if line.startswith("RESULT ")]
        if proc.returncode != 0 or not results:
            err.seek(0)
            raise RunError(f"{' '.join(argv)} exited {proc.returncode}\n{err.read()[-4000:]}")
        return json.loads(results[-1][len("RESULT ") :])

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        """Stop anything the child left in its process group."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()


def child_argv(workload: str, seed: int, tmp: pathlib.Path, *extra: str) -> list[str]:
    if workload == "service-mixed":
        return [str(HERE / "service.py"), "--seed", str(seed), "--tmp", str(tmp), *extra]
    return [
        str(HERE / "library.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--tmp", str(tmp),
        *extra,
    ]


def merge_streams(results: list[dict[str, Any]]) -> dict[str, Any]:
    """Pool the results of streams run side by side.  Rates stay those of
    one stream: work over the streams' summed (rescaled) job time."""
    if len(results) == 1:
        return results[0]
    merged = dict(results[0])
    for key in ("busy_s", "units", "cells", "steps", "attempted", "failed"):
        merged[key] = sum(result[key] for result in results)
    merged["window_s"] = max(result["window_s"] for result in results)
    merged["rss_mb"] = max(result["rss_mb"] for result in results)
    merged["job_ms"] = [ms for result in results for ms in result["job_ms"]]
    merged["problems"] = [problem for result in results for problem in result["problems"]]
    merged["digest"] = outcome_digest([row for result in results for row in result["digest_rows"]])
    return merged


def finite(value: float, fallback: float) -> float:
    return value if math.isfinite(value) else fallback


def end_to_end(children: Children, args, tmp: pathlib.Path) -> tuple[dict, dict, dict]:
    setups = []
    host = HostSpeed()
    for _ in range(SETUP_PROBES):
        # Set-up runs from the spawn of the process doing the work: this
        # child for the library workloads, the server it starts otherwise.
        extra = ["--mode", "setup"]
        if args.workload != "service-mixed":
            extra += ["--t0", repr(time.time())]
        setup_s = children.run(child_argv(args.workload, args.seed, tmp, *extra))["setup_s"]
        setups.append(setup_s * host.factor())
    measure = ["--mode", "measure", "--seconds", str(args.seconds)]
    if args.workload == "sweep-random":
        argvs = [
            child_argv(args.workload, args.seed, tmp, *measure, "--stream", str(i), "--streams", str(SWEEP_STREAMS))
            for i in range(SWEEP_STREAMS)
        ]
    else:
        argvs = [child_argv(args.workload, args.seed, tmp, *measure)]
    result = merge_streams(children.run_all(argvs))
    busy = result["busy_s"]
    job_ms = result["job_ms"]
    metrics = {
        "setup_s": median(setups),
        "cells_per_s": result["cells"] / busy,
        "steps_per_s": result["steps"] / busy,
        # A failed job's latency is infinite; it reads as the whole window.
        "job_latency_p50_ms": finite(percentile(job_ms, 50), busy * 1000.0),
        "job_latency_p90_ms": finite(percentile(job_ms, 90), busy * 1000.0),
        "jobs_per_s": len(job_ms) / busy,
        "peak_rss_mb": result["rss_mb"],
    }
    samples = {
        "setup_s": len(setups),
        "cells_per_s": result["cells"],
        "steps_per_s": result["cells"],
        "job_latency_p50_ms": len(job_ms),
        "job_latency_p90_ms": len(job_ms),
        "jobs_per_s": len(job_ms),
        "peak_rss_mb": 1,
    }
    units = dict(END_TO_END_UNITS)
    return metrics, {"units": units, "samples": samples}, result


def per_layer(children: Children, args, tmp: pathlib.Path, out: pathlib.Path) -> tuple[dict, dict, dict]:
    units_arg = ["--units", str(TRACE_UNITS[args.workload])]
    reference = children.run(
        child_argv(args.workload, args.seed, tmp / "reference", "--mode", "measure", *units_arg)
    )
    traced = children.run(
        child_argv(args.workload, args.seed, tmp / "traced", "--mode", "trace", *units_arg)
    )
    metrics = dict(traced["layers"])
    for name in SERVE_METRICS:
        metrics.setdefault(name, 0.0)
    metrics["trace.overhead_ratio"] = traced["window_s"] / reference["window_s"]
    if traced["digest"] != reference["digest"]:
        traced["problems"].append(
            f"traced digest {traced['digest']} != untraced digest {reference['digest']}"
        )
    # Keep the traced run's spans and merged profile for inspection.
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{args.workload}.spans.jsonl", "w") as handle:
        for span in traced["spans"]:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    merged = tmp / "traced" / "merged.pstats"
    if merged.exists():
        shutil.copyfile(merged, out / f"{args.workload}.pstats")
    units = {name: layer_unit(name) for name in metrics}
    samples = {name: TRACE_UNITS[args.workload] for name in metrics}
    return metrics, {"units": units, "samples": samples}, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--expect-digest",
        default="",
        help="fail unless the outcome digest equals this (compare two commits)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # A SIGTERM unwinds through the cleanup below: children's process
    # groups are killed and the temp dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    env, removed, pinned = clean_env()
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "e2ebench"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=600,
    )
    if build.returncode != 0:
        print("e2ebench: byte-compiling the source tree failed", file=sys.stderr)
        return 2
    print(f"env: unset {','.join(UNSET_ENV + UNSET_PROXY_ENV)} (inherited: {','.join(removed) or 'none'})")
    print("env: set " + " ".join(f"{key}={value}" for key, value in pinned.items()))

    work = ROOT / ".e2ebench"
    tmp = work / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    children = Children(env, time.monotonic() + RUN_BUDGET_S, tmp)
    try:
        if args.trace:
            metrics, info, result = per_layer(children, args, tmp, work / "out")
        else:
            metrics, info, result = end_to_end(children, args, tmp)
    except RunError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = list(result["problems"])
    if args.expect_digest and result["digest"] != args.expect_digest:
        problems.append(f"digest {result['digest']} != expected {args.expect_digest}")
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} failed")
    print(f"digest {args.workload} seed={args.seed}: {result['digest']} (first {result['digest_units']} units)")
    print(f"failed_share {result['failed'] / max(1, result['attempted']):.6f} ({result['failed']}/{result['attempted']})")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {info['units'][name]:6s} n={info['samples'][name]}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"elapsed {time.monotonic() - started:.1f}s")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": value, "unit": info["units"][name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
