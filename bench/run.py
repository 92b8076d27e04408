#!/usr/bin/env python3
"""The repo's benchmark: seven named workloads, end to end and per layer.

One workload, as the driver runs it (last stdout line is the result JSON)::

    python3 bench/run.py --workload fleet_binary --seed 0 --seconds 8 --trace 0

Every workload, tracing off, written down as a ledger::

    python3 bench/run.py --seed 0 --repeat 5 --trace --out bench/ledger/BENCH_11.json

``--trace 1`` is the separate traced run that produces the per-layer numbers
(and a Chrome trace under ``bench/out/``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
# One BLAS thread in every process the benchmark runs or starts (servers
# inherit the environment), set before numpy loads.  On a 2-core box shared
# with the load generator, OpenBLAS's spinning second thread makes the same
# commit read 6.4k, 8.4k or 11.5k samples/s on fleet_batchlane from run to run;
# pinned, it reads the program.  An explicit setting in the caller's
# environment wins.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_PINS:
    os.environ.setdefault(_variable, "1")
if not (REPO / "src" / "repro").is_dir():
    sys.exit("bench/run.py: src/repro is missing -- the benchmark measures "
             "the program in this checkout and cannot run without it")
# glibc malloc keeps freed memory, in this process and every one it starts.
# With the allocator's defaults half or more of all `--no-incremental` server
# launches hand each flush's ~1 MB of temporaries back to the kernel and fault
# them in again on the next flush -- 24 minor faults per sample, a quarter of
# the server's CPU in the kernel, 8.5k samples/s where the other launches read
# 12k -- for that process's whole life (README, "How steady").  Which launch
# draws which is the heap's layout, not the program; pinned, every launch is
# the faultless one.  glibc reads these once, at process start, so the
# benchmark's own process (the reference replay runs here) starts over.
MALLOC_PINS = {"MALLOC_TRIM_THRESHOLD_": str(1 << 30),
               "MALLOC_MMAP_THRESHOLD_": str(1 << 25)}
if __name__ == "__main__" and not MALLOC_PINS.keys() <= os.environ.keys():
    for _variable, _value in MALLOC_PINS.items():
        os.environ.setdefault(_variable, _value)
    os.execv(sys.executable, sys.orig_argv)
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from bench import inputs, procs, workloads  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

LEDGER_SCHEMA = "repro-bench-ledger/1"
OUT = BENCH / "out"
SETUP_REPS = 3
DEFAULT_SECONDS = 8

#: end-to-end metrics: unit, direction, regression bound (share of the
#: parent's median).  BENCHMARK.json repeats this table; a test keeps the two
#: in step.  The issue asked for 10 % on most of these; on this shared 2-core
#: box ten same-commit runs spread 5-20 % (README, "How steady"), and a bound
#: below the spread would only ever report "unresolved".
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "samples_per_s": ("samples/s", "higher", 0.25),
    "replay_samples_per_s": ("samples/s", "higher", 0.25),
    "latency_p50_us": ("us", "lower", 0.25),
    "latency_p95_us": ("us", "lower", 0.25),
    "cpu_us_per_sample": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}


def _ping(port: int) -> None:
    from repro.serve import BinaryClient

    with BinaryClient(port=port) as client:
        client.ping()


def _new_run_dir() -> Path:
    run_dir = OUT / f"tmp-{os.getpid()}-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    return run_dir


def run_e2e(name: str, seed: int, seconds: float, *,
            setup_reps: int = SETUP_REPS, quick: bool = False) -> dict:
    """One tracing-off run of one workload.

    The run sets up ``setup_reps`` times -- artifact build, then a server (or
    the in-process child) up to its first answer -- and each set-up hosts an
    equal share of the timed body on its own traffic, so ``setup_s`` is a
    median and the other metrics pool chunks from several processes
    (:func:`bench.workloads.reduce_bodies` says why).

    A ``one_core`` workload confines this process, and so every server it
    starts, to one core.  One connection in a closed loop is a ping-pong:
    client and server never run at the same time, and left free the kernel
    wakes each on the idle core.  On a virtual machine that core has halted,
    so every round trip pays two wake-ups whose cost is the host's business
    (fleet_json read 2.8k samples/s in one hour and 1.6-1.9k in the next, the
    same code and seeds); on one core there is no halted core to wake and it
    read 2.7k both times.
    """
    workload = WORKLOADS[name]
    if workload.one_core:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = _new_run_dir()
    share = seconds / setup_reps
    setups: List[float] = []
    bodies: List[workloads.Body] = []
    try:
        for rep in range(setup_reps):
            body_seed = seed * setup_reps + rep
            start = time.perf_counter()
            artifacts = inputs.build_artifacts(run_dir / f"artifacts-{rep}",
                                               quick=quick)
            package = artifacts.package(workload.precision)
            if workload.kind == "edge":
                child = workloads.spawn_edge_child(package, run_dir,
                                                   body_seed, share)
                setups.append(time.perf_counter() - start)
                bodies.append(workloads.finish_edge_child(child))
            else:
                with procs.Server(artifacts.workdir(workload.precision),
                                  run_dir, workload.flags) as server:
                    _ping(server.port)
                    setups.append(time.perf_counter() - start)
                    bodies.append(workloads.run_body(
                        workload, server, inputs.load_serving_detector(package),
                        body_seed, share))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(body.failed for body in bodies)
    scored = sum(body.details["scored"] for body in bodies)
    alarm_rate = sum(body.details["alarms"] for body in bodies) / max(1, scored)
    # A smoke run scores too few samples for its alarm share to mean anything.
    low, high = (0.0, 1.0) if quick else inputs.ALARM_RATE_BAND
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "correct": failed == 0 and low <= alarm_rate <= high,
        "attempted": sum(body.attempted for body in bodies),
        "failed": failed,
        "metrics": dict(workloads.reduce_bodies(bodies),
                        setup_s=statistics.median(setups)),
        "details": {"setup_s": setups, "alarm_rate": alarm_rate,
                    "latency_kind": workload.latency_kind,
                    "bodies": [body.details for body in bodies]},
    }


def run_trace(name: str, seed: int, seconds: float, *,
              quick: bool = False) -> dict:
    """The traced run of one workload: every per-layer metric."""
    from bench import layers

    run_dir = _new_run_dir()
    try:
        return layers.run(WORKLOADS[name], seed, seconds, run_dir, OUT,
                          quick=quick)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def result_line(result: dict, units: Dict[str, str]) -> str:
    """The driver's contract: one JSON object, exactly these four keys."""
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def print_metrics(result: dict, units: Dict[str, str]) -> None:
    bodies = result["details"].get("bodies", [])
    count = sum(body["timed"] for body in bodies) or result["attempted"]
    print(f"-- {result['workload']} (seed {result['seed']}, "
          f"{result['seconds']} s, n={count}, failed "
          f"{result['failed']}/{result['attempted']}, "
          f"{'ok' if result['correct'] else 'ORACLE FAILED'})")
    for name, value in result["metrics"].items():
        print(f"   {name:<48} {value:>14.4f} {units[name]}")


def machine() -> dict:
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "platform": platform.platform(),
            "environment": {name: os.environ.get(name)
                            for name in (*BLAS_PINS, *MALLOC_PINS)}}


def write_ledger(path: Path, seed: int, seconds: float,
                 runs: Dict[str, List[dict]],
                 traces: Dict[str, dict]) -> None:
    from bench import layers

    ledger = {
        "schema": LEDGER_SCHEMA,
        "issue": 11,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine(),
        "seed": seed,
        "run_seconds": seconds,
        "end_to_end": {name: {"unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()},
        "per_layer": {name: {"unit": unit, "better": better}
                      for name, (unit, better) in layers.PER_LAYER.items()},
        "workloads": {
            name: {"why": WORKLOADS[name].why,
                   "latency_kind": WORKLOADS[name].latency_kind,
                   "one_core": WORKLOADS[name].one_core,
                   "runs": [{key: run[key] for key in
                             ("seed", "attempted", "failed", "metrics",
                              "details")} for run in runs.get(name, [])],
                   "trace": traces.get(name)}
            for name in WORKLOADS},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of each timed body")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1: the traced per-layer run instead of the "
                             "end-to-end one")
    parser.add_argument("--repeat", type=int, default=1,
                        help="passes over the workloads (all-workload mode)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write a ledger here (all-workload mode)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny model budget and one set-up: a smoke run")
    parser.add_argument("--edge-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--package", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--result-file", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser


def _run_in_own_process(name: str, seed: int, args: argparse.Namespace,
                        trace: bool) -> dict:
    """One run of the all-workload mode, as the driver would make it: in a
    fresh interpreter.  A process that has hosted ``cluster_2w``'s two client
    threads afterwards has its closed-loop clients woken on the other core,
    and every served workload it runs next reads 10-40 % slower; a ledger
    made that way would not compare with single-workload runs."""
    OUT.mkdir(parents=True, exist_ok=True)
    result_file = OUT / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", str(int(trace)),
               "--result-file", str(result_file)]
    try:
        subprocess.run(command + ["--quick"] * args.quick,
                       stdin=subprocess.DEVNULL)
        if not result_file.is_file():
            raise RuntimeError(f"{name}: the run ended without a result")
        return json.loads(result_file.read_text())
    finally:
        result_file.unlink(missing_ok=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.edge_child:
        return workloads.edge_child_main(args.package, args.seed, args.seconds)

    if args.workload != "all":
        from bench import layers

        if args.trace:
            result = run_trace(args.workload, args.seed, args.seconds,
                               quick=args.quick)
            units = {name: unit
                     for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            result = run_e2e(args.workload, args.seed, args.seconds,
                             setup_reps=1 if args.quick else SETUP_REPS,
                             quick=args.quick)
            units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
        print_metrics(result, units)
        if args.result_file is not None:
            args.result_file.write_text(json.dumps(result))
        else:
            print(result_line(result, units))
        return 0 if result["correct"] else 1

    names = list(WORKLOADS)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    traces: Dict[str, dict] = {}
    correct = True
    for repeat in range(args.repeat):
        # Rotate the order each pass so no workload always runs after the
        # same neighbour.
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            result = _run_in_own_process(name, args.seed + repeat, args,
                                         trace=False)
            runs[name].append(result)
            correct = correct and result["correct"]
    if args.trace:
        for name in names:
            result = _run_in_own_process(name, args.seed, args, trace=True)
            traces[name] = {key: result[key] for key in
                            ("metrics", "details", "attempted", "failed")}
            correct = correct and result["correct"]
    if not correct:
        print("bench: the oracle failed; no ledger written", file=sys.stderr)
        return 1
    if args.out is not None:
        write_ledger(args.out, args.seed, args.seconds, runs, traces)
        print(f"bench: ledger written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
