#!/usr/bin/env python3
"""Benchmark of the powerparts CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory.  Each round is one pass over the
workload's command list, called in this process through
``powerparts.cli.main`` with stdout captured.  Rounds repeat until they have
taken --seconds seconds (and at least MIN_ROUNDS of them ran).  After each
round a checker process checks its outputs while this one waits, then one
cold start of the program is timed; so the rounds spread over the whole run
and the checker's memory is not counted in this process's peak.  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MIN_ROUNDS = 3
SETUP_REPEATS = 9
COLD_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import powerparts.cli"
PROBE_REFERENCE_S = 0.004  # the probe's median time on the reference machine (README)
PROBE_EVERY = 8


class Probe:
    """A fixed mix of interpreter, numpy and big-integer work, timed around
    each round to measure how fast the shared machine is running then."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.array = np.linspace(0.0, 1.0, 50_000)
        self.ints = [3**k for k in range(400, 900)]

    def once(self) -> float:
        start = perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i
        self.np.log1p(self.np.exp(-self.array)).sum()
        sum(self.ints[::-1]) + sum(self.ints)
        return perf_counter() - start



def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_cli():
    """Import powerparts.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "powerparts" / "cli.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'powerparts'} is missing")
    sys.path.insert(0, str(SRC))
    import powerparts.cli
    if Path(powerparts.cli.__file__).resolve().parent != SRC / "powerparts":
        raise SystemExit(f"error: imported {powerparts.cli.__file__}, not the checkout's")
    return powerparts.cli


def cold_start(env: dict) -> float:
    """Seconds from a fresh interpreter to powerparts.cli imported."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_IMPORT, str(SRC)], env=env, check=True)
    return perf_counter() - start


def run_command(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(list(argv))
        except Exception as exc:  # a traceback is a failed command, not a harness crash
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_round(main, cmds: list, path: Path, probe: "Probe") -> tuple:
    """One pass; outputs go to a file for the checker.  The probe runs
    before every PROBE_EVERY commands and after the last; each command's
    speed is the mean of the two probes around its block, relative to
    PROBE_REFERENCE_S.  Returns the latencies, the speeds and the bytes
    written to stdout."""
    gc.collect()
    times, speeds, out_bytes = [], [], 0
    before = probe.once()
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(cmds), PROBE_EVERY):
            block = cmds[lo:lo + PROBE_EVERY]
            for cmd in block:
                elapsed, rc, out, err = run_command(main, cmd.argv)
                times.append(elapsed)
                out_bytes += len(out.encode())
                fh.write(json.dumps({"rc": rc, "out": out, "err": err}) + "\n")
            after = probe.once()
            speeds += [(before + after) / (2.0 * PROBE_REFERENCE_S)] * len(block)
            before = after
    return times, speeds, out_bytes


def end_to_end(latencies: list) -> dict:
    """Each command's median scaled time over the rounds, then the pass's
    sum, median and 90th percentile of those."""
    typical = [statistics.median(times) for times in zip(*latencies)]
    return {
        "wall_s": sum(typical),
        "op_p50_s": statistics.median(typical),
        "op_p90_s": statistics.quantiles(typical, n=10)[8],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k not in ("POWERPARTS_THREADS", "PYTHONPATH")}
    os.environ.pop("POWERPARTS_THREADS", None)  # the program's default: one thread
    cli = load_cli()
    out_dir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = tracing.Tracer() if args.trace else None
    main_fn = cli.main
    if tracer is not None:
        tracer.install()
        main_fn = tracer.command(cli.main)

    checker_cmd = [sys.executable, str(HERE / "checks.py"), args.workload, str(args.seed),
                   str(out_dir), str(SRC / "powerparts" / "schemas")]
    scaled, layers, setups = [], [], []
    attempted = failed = wrong = 0
    with subprocess.Popen(checker_cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as checker:
        if checker.stdout.readline().strip() != "ready":
            raise SystemExit("error: the checker did not start")
        measured = 0.0
        probe = Probe()
        raw, speeds = [], []
        while len(scaled) < MIN_ROUNDS or measured < args.seconds:
            rnd = len(scaled)
            cmds = workloads.commands(args.workload, args.seed, rnd)
            start = perf_counter()
            times, speed, out_bytes = run_round(main_fn, cmds, out_dir / f"round{rnd}.jsonl", probe)
            measured += perf_counter() - start
            raw.append(times)
            speeds.append(speed)
            scaled.append([t / f for t, f in zip(times, speed)])
            if tracer is not None:
                layers.append(dict(tracing.pass_metrics(tracer.take(), speed),
                                   **{"cli.out_bytes": out_bytes}))
            checker.stdin.write(f"{rnd}\n")
            checker.stdin.flush()
            line = checker.stdout.readline()
            if not line:
                raise SystemExit("error: the checker stopped")
            verdict = json.loads(line)
            attempted += verdict["attempted"]
            failed += verdict["failed"]
            wrong += verdict["wrong"]
            if tracer is None and len(setups) < SETUP_REPEATS:
                setups.append(cold_start(env))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checker.stdin.close()
    if checker.returncode != 0:
        raise SystemExit(f"error: the checker exited with {checker.returncode}")
    if tracer is not None:
        tracer.uninstall()
    while tracer is None and len(setups) < SETUP_REPEATS:
        setups.append(cold_start(env))

    e2e = end_to_end(scaled)
    if tracer is not None:
        metrics = tracing.summarize(layers, e2e["wall_s"])
    else:
        values = {"setup_s": statistics.median(setups), **e2e, "peak_rss_mib": peak_rss_mib}
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                 "peak_rss_mib": "MiB"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"rounds": len(scaled), "measured_s": measured, "setups": setups,
                   "speeds": speeds, "raw": raw, **result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
