#!/usr/bin/env python3
"""End-to-end benchmark of ``statesel select``, with an optional traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rlc-both --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed (untimed), one untimed
``statesel prefilter`` warms up, then rounds of the same commands are run
while another round, as long as the last, still ends within ``--seconds``
of the first; there is always at least one. An untraced round runs
``statesel prefilter`` once and ``statesel select`` once, each in a fresh
process, and times every one of them from launch to exit. A traced round
instead runs the same select command in one process with the wrappers of
``tracer.py`` installed. Outputs are checked after the last timed command:
the first round's against the workload's checks, every later round's against
the first round's, byte for byte. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json`` (``end_to_end`` untraced, ``per_layer`` traced), each the
median over the run's rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
PREFILTER_REPEATS = 1  # per round
DEADLINE_S = 170.0  # no command outlives this; the run must end within 180 s
NEW_ROUND_BEFORE_S = 110.0  # a round starts only if it can finish by about here


@dataclass(frozen=True)
class Proc:
    """One finished command: exit code, wall time and the kernel's resource usage.

    ``cpu_s`` and ``peak_rss_mb`` come from ``wait4`` and so cover the process
    and every descendant it waited for, the worker pool included.
    """

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Starts commands one at a time from the checkout root and waits for each."""

    def __init__(self, root: Path, logs: Path, deadline: float):
        self.root = root
        self.logs = logs
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("STATESEL_WORKERS", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def statesel(self, args: list[str], log: str) -> Proc:
        return self.run([sys.executable, "-m", "statesel.cli", *args], log)

    def run(self, argv: list[str], log: str) -> Proc:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            print(f"skipped {log}: run deadline passed", file=sys.stderr)
            return Proc(code=-1, wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0)
        with open(self.logs / f"{log}.log", "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted (SIGTERM, Ctrl-C): leave no process behind
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            print(f"{log} exited {proc.returncode}; see {self.logs / log}.log", file=sys.stderr)
        return Proc(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Round:
    out: Path  # the select command's output directory
    select: Proc
    prefilters: list[tuple[Proc, Path]] = field(default_factory=list)
    trace: Path | None = None


def run_round(wl: Workload, seed: int, data: Path, rdir: Path, runner: Runner, trace: bool) -> Round:
    rdir.mkdir(parents=True)
    config = rdir / "select.json"
    config.write_text(json.dumps(wl.select_config(data, rdir / "select", seed), indent=1))
    if trace:
        trace_json = rdir / "trace.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_json), *wl.select_args(config)]
        return Round(out=rdir / "select", select=runner.run(argv, f"{rdir.name}-traced"), trace=trace_json)
    prefilters = []
    for k in range(PREFILTER_REPEATS):
        report = rdir / f"prefilter{k}.csv"
        prefilters.append((runner.statesel(wl.prefilter_args(data, report), f"{rdir.name}-prefilter{k}"), report))
    select = runner.statesel(wl.select_args(config), f"{rdir.name}-select")
    return Round(out=rdir / "select", select=select, prefilters=prefilters)


def outputs(run_dir: Path) -> dict[str, bytes]:
    """Every file a select command wrote, except the config that names its own directory."""
    if not run_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "config.json"}


def check_rounds(wl: Workload, data: Path, rounds: list[Round]) -> tuple[int, int]:
    """(attempted, failed) operations of the run, after checking every output.

    The first round's select outputs go through the workload's checks; every
    later select must exit 0 and write the same files, byte for byte, so each
    carries the first round's verdict. A prefilter command passes when it
    exits 0 and writes the same report as its round's select, whose
    ``prefilter_report.csv`` the checks hold to the prefilter rules.
    """
    first = rounds[0]
    if first.select.code != 0:
        verdict = [f"select exited {first.select.code}"]
    else:
        try:
            verdict = wl.check(data, first.out)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed outputs
            verdict = [f"outputs unreadable: {exc!r}"]
    reference = outputs(first.out)
    attempted = failed = 0
    for k, rnd in enumerate(rounds):
        errors = list(verdict)
        if k and rnd.select.code != 0:
            errors.append(f"select exited {rnd.select.code}")
        elif k:
            got = outputs(rnd.out)
            differ = sorted(n for n in set(got) | set(reference) if got.get(n) != reference.get(n))
            if differ:
                errors.append(f"outputs differ from the first round's: {differ}")
        for e in errors:
            print(f"check failed in {rnd.out}: {e}", file=sys.stderr)
        failed += bool(errors)
        own = rnd.out / "prefilter_report.csv"
        for proc, report in rnd.prefilters:
            same = proc.code == 0 and own.is_file() and report.read_bytes() == own.read_bytes()
            if not same:
                print(f"prefilter report {report} is missing or differs from {own}", file=sys.stderr)
            failed += not same
        attempted += 1 + len(rnd.prefilters)
    return attempted, failed


def metric_spec(root: Path, trace: bool) -> dict[str, str]:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    med = lambda xs: statistics.median(list(xs))
    return {
        "wall_s": med(r.select.wall_s for r in rounds),
        "setup_s": med(p.wall_s for r in rounds for p, _ in r.prefilters),
        "cpu_s": med(r.select.cpu_s for r in rounds),
        "peak_rss_mb": med(r.select.peak_rss_mb for r in rounds),
    }


def per_layer(rounds: list[Round]) -> dict[str, float]:
    docs = [json.loads(r.trace.read_text())["metrics"] for r in rounds if r.trace.is_file()]
    if not docs:
        return {}
    values = {name: statistics.median(d[name] for d in docs) for name in docs[0]}
    values["trace.wall_s"] = statistics.median(r.select.wall_s for r in rounds)
    return values


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    start = time.monotonic()
    logs = work / "logs"
    logs.mkdir(parents=True)
    runner = Runner(root, logs, start + DEADLINE_S)
    data = work / "data"
    t0 = time.perf_counter()
    wl.generate(seed, data, lambda args: runner.statesel(args, "generate").code)
    print(f"{wl.name} seed {seed}: inputs generated in {time.perf_counter() - t0:.3f} s (not a metric)")

    # writes the bytecode of a fresh checkout and warms the file cache; not timed
    runner.statesel(wl.prefilter_args(data, work / "warmup.csv"), "warmup")

    rounds: list[Round] = []
    rounds_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        rnd = run_round(wl, seed, data, work / f"round{len(rounds)}", runner, trace)
        rounds.append(rnd)
        p = rnd.select
        prefilters = ", ".join(f"{q.wall_s:.3f}" for q, _ in rnd.prefilters)
        print(
            f"round {len(rounds)}: select {p.wall_s:.3f} s wall, {p.cpu_s:.3f} s cpu, "
            f"{p.peak_rss_mb:.1f} MB peak" + (f"; prefilter {prefilters} s" if prefilters else "")
        )
        # another round as long as this one must end within --seconds of the first
        now = time.monotonic()
        round_s = now - round_start
        if now - rounds_start + round_s > seconds or now - start + round_s > NEW_ROUND_BEFORE_S:
            break

    attempted, failed = check_rounds(wl, data, rounds)
    values = per_layer(rounds) if trace else end_to_end(rounds)
    units = metric_spec(root, trace)
    if failed == 0 and set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "statesel" / "cli.py").is_file():
        print(f"no statesel sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, work)
    if result["failed"]:
        print(f"outputs kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
