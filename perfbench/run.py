"""End-to-end and per-layer benchmark of the ``onoffnet`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each run sets up several times (inputs plus one warm-up command; the median
is ``setup_s``), then runs the workload's command sequence in a closed loop,
one ``python -m onoffnet.cli`` child at a time, for about ``--seconds``.
Every artifact is checked (see ``checks.py``) and must be byte-identical to
the warm-up's and to every earlier repetition's; any failure counts in
``error_rate``.  With ``--trace 1`` a separate child runs the same commands
in-process under the span recorder (``traced_child.py``) and the per-layer
metrics are reported.  Only the standard library is used; the package runs
from ``src`` through ``PYTHONPATH``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Everything else, spans and artifact
hashes included, goes to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LAYER_MAP, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
PROBE_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot measure this tree (missing package, warm-up failed)."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "ONOFFNET_OUTDIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to completion; ``(wall seconds, peak RSS MiB, exit code)``.

    ``os.wait4`` gives this child's own peak RSS; ``RUSAGE_CHILDREN`` would be
    a running maximum over every child reaped so far.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    n = len(values)
    if n >= 20:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        ordered = sorted(values)
        out[f"p{p}"] = ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return out


class Judge:
    """Checks artifacts, compares them with the first copy seen, counts failures."""

    def __init__(self, wdir: Path):
        self.wdir = wdir
        self.reference: dict[int, tuple[str, ...]] = {}
        self.verdicts: dict[tuple[str, ...], tuple[list[str], float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}

    def clear(self, command) -> None:
        for rel in command.artifacts:
            (self.wdir / rel).unlink(missing_ok=True)

    def judge(self, index: int, command, code: int, count: bool = True) -> float:
        """Returns the units of work done, 0 when the invocation failed."""
        problems = [f"exit code {code}"] if code != 0 else []
        missing = [rel for rel in command.artifacts if not (self.wdir / rel).is_file()]
        problems += [f"missing artifact {rel}" for rel in missing]
        work = 0.0
        if not problems:
            digests = tuple(sha256(self.wdir / rel) for rel in command.artifacts)
            ref = self.reference.setdefault(index, digests)
            if digests != ref:
                problems.append("artifacts differ from the first run of this command")
            if digests not in self.verdicts:
                read = lambda rel: (self.wdir / rel).read_text(encoding="utf-8")
                found = command.check(read)
                self.verdicts[digests] = (found, 0.0 if found else command.work(read))
            found, work = self.verdicts[digests]
            problems += found
            self.hashes.update(zip(command.artifacts, digests))
        if count:
            self.attempted += 1
            self.failed += bool(problems)
        if problems:
            self.problems += [f"{command.argv[0]}: {p}" for p in problems[:5]]
            return 0.0
        return work


def run_cli(wdir: Path, command) -> tuple[float, float, int]:
    return spawn([sys.executable, "-m", "onoffnet.cli", *command.argv], wdir, wdir / "stderr.txt")


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "onoffnet" / "cli.py").is_file():
        raise BenchError(f"no onoffnet package under {SRC}")
    wdir = WORK / workload.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    commands = workload.commands(seed)
    judge = Judge(wdir)

    # Set-up: inputs plus one warm-up invocation (compiles .pyc, warms the page cache).
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.make_inputs(wdir, seed)
        judge.clear(commands[0])
        _, _, code = run_cli(wdir, commands[0])
        setup.append(time.perf_counter() - start)
        if code != 0:
            err = (wdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            raise BenchError(f"warm-up failed with exit code {code}: {err[-1] if err else ''}")
        judge.judge(0, commands[0], code, count=False)

    # Closed loop: start another sequence only if it should end within the window.
    # A sequence's wall time is that of its commands; checking their artifacts
    # between commands is the benchmark's own work and is not counted.
    seq_walls, cmd_walls, rss, work = [], [], [], 0.0
    loop_start = time.perf_counter()
    while True:
        for index, command in enumerate(commands):
            judge.clear(command)
            wall, peak, code = run_cli(wdir, command)
            cmd_walls.append(wall)
            rss.append(peak)
            work += judge.judge(index, command, code)
        seq_walls.append(sum(cmd_walls[-len(commands):]))
        if time.perf_counter() - loop_start + statistics.median(seq_walls) > seconds:
            break

    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(seq_walls),
        "cmd_p50_s": statistics.median(cmd_walls),
        "work_per_s": work / sum(seq_walls),
        "peak_rss_mb": max(rss),
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "inputs": {"description": workload.inputs, **inputs},
        "unit_of_work": workload.unit_of_work,
        "why": workload.why,
        "end_to_end": e2e,
        "samples": {"setup_s": summary(setup), "wall_s": summary(seq_walls), "cmd_s": summary(cmd_walls),
                    "peak_rss_mb": summary(rss)},
        "sequences": len(seq_walls),
    }
    if trace:
        result["per_layer"] = traced(wdir, commands, judge, e2e["wall_s"])
        result["layer_map"] = LAYER_MAP
    result["error_rate"] = judge.failed / judge.attempted
    result.update(attempted=judge.attempted, failed=judge.failed, problems=judge.problems[:50],
                  artifacts_sha256=dict(sorted(judge.hashes.items())), environment=environment(wdir))
    (wdir / "results.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def traced(wdir: Path, commands, judge: Judge, untraced_wall: float) -> dict:
    def probe(code: str) -> float:
        return statistics.median(
            [spawn([sys.executable, "-c", code], wdir, wdir / "stderr.txt")[0] for _ in range(PROBE_REPEATS)]
        )

    interpreter_s = probe("pass")
    import_s = probe("import onoffnet")

    for command in commands:
        judge.clear(command)
    (wdir / "commands.json").write_text(json.dumps([list(c.argv) for c in commands]), encoding="utf-8")
    _, _, code = spawn(
        [sys.executable, str(Path(__file__).with_name("traced_child.py")), "commands.json", "spans.csv",
         "traced.json"], wdir, wdir / "stderr.txt")
    if code != 0:
        raise BenchError(f"traced child failed with exit code {code}; see {wdir / 'stderr.txt'}")
    child = json.loads((wdir / "traced.json").read_text(encoding="utf-8"))
    for index, (command, exit_code) in enumerate(zip(commands, child["exit_codes"])):
        judge.judge(index, command, exit_code)

    metrics = {"cli.interpreter_s": interpreter_s, "cli.import_s": import_s}
    metrics["cli.output_bytes"] = sum((wdir / rel).stat().st_size for c in commands for rel in c.artifacts
                                      if (wdir / rel).is_file())
    metrics.update(child["metrics"])
    work_only = untraced_wall - len(commands) * import_s
    metrics["trace.overhead_frac"] = child["wall_s"] / work_only - 1.0 if work_only > 0 else 0.0
    metrics["trace.spans"] = child["spans"]
    return metrics


def environment(wdir: Path) -> dict:
    code = "import numpy, scipy, onoffnet.activity as a; print(numpy.__version__, scipy.__version__, a.GENERATOR_ID)"
    out = subprocess.run([sys.executable, "-c", code], cwd=wdir, env=child_env(), capture_output=True,
                         text=True, check=False).stdout.split()
    numpy_v, scipy_v, generator = (out + ["?", "?", "?"])[:3]
    return {
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "package_generator": generator,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the JSON metrics for the last line."""
    name = result["workload"]
    print(f"== {name} seed={result['seed']} sequences={result['sequences']} "
          f"unit_of_work={result['unit_of_work']!r}")
    print(f"   inputs: {json.dumps(result['inputs'])}")
    print(f"   environment: {json.dumps(result['environment'])}")
    for key, stats in result["samples"].items():
        print(f"   {key}: " + " ".join(f"{k}={v:.6g}" for k, v in stats.items()))
    for metric in spec["end_to_end"]:
        print(f"   {metric['name']} = {result['end_to_end'][metric['name']]:.6g} {metric['unit']}")
    print(f"   error_rate = {result['error_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    for problem in result["problems"][:10]:
        print(f"   problem: {problem}")
    key = "per_layer" if trace else "end_to_end"
    entries, values = spec[key], result[key]
    missing = [m["name"] for m in entries if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    if trace:
        for metric in entries:
            print(f"   {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="onoffnet end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = load_spec()
        results = [measure(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
        metrics = {}
        for result in results:
            for key, value in report(result, spec, bool(args.trace)).items():
                metrics[key if len(results) == 1 else f"{result['workload']}/{key}"] = value
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
