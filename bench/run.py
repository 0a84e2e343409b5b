"""Benchmark harness for sweedler: three CLI workloads and a traced replay.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Workloads are defined in ``bench/workloads.json`` (argv, universe, ROADMAP
scenario, reason, expected output).  Only ``check-all`` takes the seed, as
its ``--seed``; the other two are seed-free.

Closed loop, one client: the harness starts one child at a time and waits
for it.  Every child is a fresh interpreter, because the package's
module-level caches persist within a process and no CLI user starts warm.
Peak RSS and CPU time come from ``os.wait4`` on that child alone.

``--trace 0`` measures, with tracing off:

* ``setup_s``: wall time of a child that imports sweedler and builds the
  workload's universe with the calls the CLI makes to build it; repeated at
  least twice and for at least five seconds, median reported.
* ``wall_s``: launch-to-exit wall time of the CLI command, on samples whose
  output passed verification; samples repeat while the next one is expected
  to end within ``--seconds`` (at least one).  Median reported.
* ``peak_rss_mb``: peak resident memory of the CLI child, median.

Both times are reported at a fixed reference CPU speed.  Shared hosts run
each vCPU in slow and fast phases that last from a second to minutes and
differ by up to 1.7x, and different vCPUs change phase independently, so raw
wall times of the same code spread by a fifth between runs.  An untraced run
therefore pins itself, and with it every child, to one CPU, and while a child
runs the harness probes that CPU's speed: every ``PROBE_INTERVAL_S`` it runs
a short fixed pure-Python loop (``probe_pass``) and takes its thread CPU
time.  The child's time is its wall time less the probes' CPU time, scaled
by ``PROBE_NOMINAL_S`` over the mean probe time: the seconds the child would
take on a CPU on which one probe pass takes ``PROBE_NOMINAL_S``.  The probes
take about 6% of the CPU.  The raw medians are printed and kept as
``raw_wall_s`` and ``raw_setup_s``, and the mean probe times as ``probe_s``.

Every sample's output is verified: the stdout sha256 must equal the recorded
digest, or for ``check-all`` every suite line must PASS and the last line
read ``suites failed: 0``.  A nonzero exit, a mismatch or a timeout counts
as failed; ``fail_frac`` is failed over attempted, printed with the metrics
and carried by the ``attempted``/``failed`` fields.

``--trace 1`` gives the per-layer numbers: CLI samples as above but
neither pinned nor scaled (their raw median is the baseline for
``trace.overhead_s``), one ``bench/replay.py replay``
child that records a span around each public call of the CLI's call
sequence, and two ``bench/replay.py count`` children that count calls of the
named public functions.  The replay's output digest must equal the CLI's,
and each count must repeat exactly across the two counting passes; a count
that does not is listed under ``unrepeated`` and counted in
``trace.unrepeated_counts``.

Output: human-readable lines, then as the last line one JSON object
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Each run also writes ``bench/results/<workload>-seed<N>-trace<T>.json``:
``env`` (python, nproc, cpu, platform), ``workload`` (its definition),
``setups`` and ``samples`` (one record per child: wall_s, cpu_s,
peak_rss_mb, exit, ok, why, and in untraced runs probes, probe_s and
scaled_s),
``summary`` (median, q1, q3, n per metric),
``fail_frac``, ``metrics``, and for traced runs ``replay`` (spans, sizes,
cache sizes, digest) and ``counts`` (both passes, ``unrepeated``).
``--workload all`` runs every workload untraced and traced, and also writes
``bench/results/layers.md``, the per-layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REPLAY = HERE / "replay.py"

# Every run ends within this many seconds; each child gets what is left.
RUN_BUDGET_S = 170.0
SETUP_MIN_REPS = 2
SETUP_MIN_S = 5.0
SETUP_MAX_REPS = 20

# The speed probe: iterations per pass, the pause between passes, and the
# pass time that reported times are scaled to.
PROBE_ITERATIONS = 800
PROBE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 0.003

CLI_ENTRY = "import sys; from sweedler.cli import main; sys.exit(main())"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Summaries printed and recorded next to the end-to-end metrics.
RAW = {"raw_wall_s": "s", "raw_setup_s": "s", "probe_s": "s"}

# Per-layer metrics and their units; "<span>_s" metrics sum the replay's
# spans of that name.
PER_LAYER = {
    "trees.build_s": "s",
    "trees.keys": "count",
    "trees.canonical_calls": "count",
    "trees.coproduct_calls": "count",
    "trees.cache_entries": "count",
    "graphs.build_s": "s",
    "graphs.keys": "count",
    "graphs.class_key_calls": "count",
    "graphs.coproduct_calls": "count",
    "graphs.cache_entries": "count",
    "graphs.relations_s": "s",
    "gallery.build_s": "s",
    "gallery.cache_entries": "count",
    "constructions.quotient_s": "s",
    "constructions.quotient_keys": "count",
    "structure.grouplike_scan_s": "s",
    "structure.filtration_s": "s",
    "inversion.gate_s": "s",
    "inversion.eval_s": "s",
    "inversion.validate_s": "s",
    "inversion.validate_checks": "count",
    "inversion.validate_over_eval": "ratio",
    "specs.delta_calls": "count",
    "specs.delta_miss_ratio": "ratio",
    "specs.product_calls": "count",
    "specs.product_miss_ratio": "ratio",
    "specs.conv_calls": "count",
    "specs.validate_s": "s",
    "specs.checks": "count",
    "linear.sum_adds": "count",
    "linear.render_s": "s",
    "linear.cache_entries": "count",
    "scalars.fraction_new": "count",
    "renorm.birkhoff_s": "s",
    "renorm.rb_s": "s",
    "sweedler.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.unrepeated_counts": "count",
}

# Per-layer count metric -> the replay counters it sums.
COUNTS = {
    "trees.canonical_calls": ("trees.canonical_tree", "trees.forest_key"),
    "trees.coproduct_calls": ("trees.tree_coproduct",),
    "graphs.class_key_calls": ("graphs.graph_class_key",),
    "graphs.coproduct_calls": ("graphs.graph_coproduct",),
    "specs.delta_calls": ("specs.CoalgebraSpec.delta",),
    "specs.product_calls": ("specs.AlgebraSpec.product",),
    "specs.conv_calls": ("specs.ConvMap.__call__",),
    "linear.sum_adds": ("linear.FormalSum.__add__", "linear.TensorSum.__add__"),
    "scalars.fraction_new": ("fractions.Fraction.__new__",),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad workload file)."""


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    src = ROOT / "src"
    if not (src / "sweedler" / "__init__.py").is_file():
        raise BenchError(f"no sweedler sources under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return env


def environment() -> dict:
    uname = os.uname()
    cpu = uname.machine
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
    }


# ---------------------------------------------------------------------------
# Children


@dataclass
class ChildResult:
    exit: int | None  # None when killed on timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    probes: list | None = None  # CPU times of the speed probes taken meanwhile


class Child:
    """One child process, timed from launch to exit and reaped with wait4.

    ``resource.getrusage(RUSAGE_CHILDREN)`` would give a running maximum over
    every child waited so far, so usage is taken from this child's wait4.
    """

    def __init__(self, argv: list, env: dict, timeout: float):
        self._streams: dict = {}
        self._lock = threading.Lock()
        self._exited = False
        self._timed_out = False
        self._start = time.perf_counter()
        self._proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self._readers = [
            threading.Thread(target=self._drain, args=(name, stream), daemon=True)
            for name, stream in (("stdout", self._proc.stdout),
                                 ("stderr", self._proc.stderr))
        ]
        for reader in self._readers:
            reader.start()
        self._timer = threading.Timer(max(timeout, 0.0), self._kill)
        self._timer.daemon = True
        self._timer.start()

    def _drain(self, name, stream):
        with stream:
            self._streams[name] = stream.read()

    def _kill(self):
        with self._lock:
            if not self._exited:
                self._timed_out = True
                self._proc.kill()

    def wait(self, probe: bool = False) -> ChildResult:
        """Wait for the child; with ``probe``, run speed probes meanwhile."""
        pid = self._proc.pid
        probes = None
        if probe:
            probes = []
            with _pidfd(pid) as fd:
                while True:
                    probes.append(probe_pass())
                    if select.select([fd], [], [], PROBE_INTERVAL_S)[0]:
                        break
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - self._start
        with self._lock:
            self._exited = True
        self._timer.cancel()
        _, status, usage = os.wait4(pid, 0)
        self._proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in self._readers:
            reader.join()
        return ChildResult(
            exit=None if self._timed_out else self._proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=self._streams.get("stdout", b""),
            stderr=self._streams.get("stderr", b""),
            probes=probes,
        )

    def stop(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self._proc.returncode is None:
            self._kill()
            self.wait()


def probe_pass() -> float:
    """Thread CPU time of one pass of a fixed Fraction, tuple and dict loop.

    CPU time rather than wall time, so that the child running on the same
    CPU does not count when it preempts the probe.
    """
    start = time.thread_time()
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, PROBE_ITERATIONS):
        key = (i % 53, (i * 7) % 31, i % 5)
        total += Fraction(i % 13 - 6, i % 97 + 1)
        acc[key] = acc.get(key, 0) + total.numerator % 7
    return time.thread_time() - start


@contextlib.contextmanager
def _pidfd(pid: int):
    fd = os.pidfd_open(pid)
    try:
        yield fd
    finally:
        os.close(fd)


class Runner:
    """Starts children one at a time within the run's time budget.

    A calibrated runner pins this process and its children to one CPU until
    ``release``, and probes that CPU's speed while each child runs.
    """

    def __init__(self, budget_s: float = RUN_BUDGET_S, calibrated: bool = False):
        self.env = child_env()
        self.deadline = time.perf_counter() + budget_s
        self.calibrated = calibrated
        self._affinity = None
        if calibrated and hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})

    def release(self) -> None:
        """Undo the pinning."""
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    def start(self, argv: list) -> Child:
        return Child(argv, self.env, self.deadline - time.perf_counter())

    def run(self, argv: list) -> ChildResult:
        return self.start(argv).wait(probe=self.calibrated)

    def run_all(self, argvs: list) -> list:
        """Run children side by side; used only for the counting passes."""
        children = []
        try:
            for argv in argvs:
                children.append(self.start(argv))
            return [child.wait() for child in children]
        finally:
            for child in children:
                child.stop()


def record(result: ChildResult, ok: bool, why: str) -> dict:
    out = {
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "peak_rss_mb": result.peak_rss_mb,
        "exit": result.exit,
        "ok": ok,
        "why": why,
    }
    if result.probes:
        probe_s = statistics.mean(result.probes)
        out["probes"] = len(result.probes)
        out["probe_s"] = probe_s
        out["scaled_s"] = ((result.wall_s - sum(result.probes))
                           * PROBE_NOMINAL_S / probe_s)
    if not ok:
        out["stderr_tail"] = result.stderr.decode("utf-8", "replace")[-2000:]
    return out


def exit_failure(result: ChildResult) -> str:
    if result.exit is None:
        return "timed out"
    if result.exit != 0:
        return f"exit code {result.exit}"
    return ""


# ---------------------------------------------------------------------------
# Verification


def cli_argv(spec: dict, seed: int) -> list:
    argv = list(spec["argv"])
    if spec["seeded"]:
        argv += ["--seed", str(seed)]
    return [sys.executable, "-c", CLI_ENTRY] + argv


def verify_output(spec: dict, stdout: bytes) -> str:
    """Empty when the CLI output is right, else the reason it is not."""
    if spec["sha256"] is not None:
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != spec["sha256"]:
            return f"sha256 {digest[:12]} != {spec['sha256'][:12]}"
        return ""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or lines[-1] != "suites failed: 0":
        return "last line is not 'suites failed: 0'"
    suites = lines[:-1]
    if len(suites) != spec["suites"]:
        return f"{len(suites)} suite lines, expected {spec['suites']}"
    bad = [line for line in suites if ": PASS (" not in line]
    if bad:
        return f"suite did not pass: {bad[0]}"
    return ""


def sample_cli(runner: Runner, spec: dict, seed: int, seconds: float) -> list:
    """CLI samples while the next one is expected to end within ``seconds``."""
    samples = []
    start = time.perf_counter()
    while True:
        result = runner.run(cli_argv(spec, seed))
        why = exit_failure(result) or verify_output(spec, result.stdout)
        sample = record(result, not why, why)
        sample["sha256"] = hashlib.sha256(result.stdout).hexdigest()
        samples.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples


def measure_setup(runner: Runner, name: str) -> list:
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MAX_REPS and (
        len(setups) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S
    ):
        result = runner.run([sys.executable, str(REPLAY), "setup", name])
        why = exit_failure(result)
        setups.append(record(result, not why, why))
    return setups


# ---------------------------------------------------------------------------
# Statistics


def summary(values: list) -> dict:
    values = sorted(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def passed(records: list, key: str) -> list:
    return [r[key] for r in records if r["ok"]]


# ---------------------------------------------------------------------------
# Runs


def run_untraced(runner: Runner, name: str, spec: dict, seed: int,
                 seconds: float) -> dict:
    setups = measure_setup(runner, name)
    samples = sample_cli(runner, spec, seed, seconds)
    children = setups + samples
    stats = {
        "wall_s": summary(passed(samples, "scaled_s")),
        "setup_s": summary(passed(setups, "scaled_s")),
        "peak_rss_mb": summary(passed(samples, "peak_rss_mb")),
        "raw_wall_s": summary(passed(samples, "wall_s")),
        "raw_setup_s": summary(passed(setups, "wall_s")),
        "probe_s": summary([c["probe_s"] for c in children]),
    }
    return {
        "setups": setups,
        "samples": samples,
        "summary": stats,
        "attempted": len(children),
        "failed": sum(not c["ok"] for c in children),
        "metrics": {m: stats[m]["median"] for m in END_TO_END},
    }


def span_totals(spans: list) -> dict:
    totals: dict = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
    return totals


def compare_counts(first: dict, second: dict) -> dict:
    """Counts that differ between the two counting passes, with both values."""
    return {
        name: [first.get(name), second.get(name)]
        for name in sorted(set(first) | set(second))
        if first.get(name) != second.get(name)
    }


def layer_metrics(replay: dict, counts: dict, unrepeated: dict,
                  trace_wall: float, baseline_wall: float) -> dict:
    spans = span_totals(replay["spans"])
    sizes = replay["sizes"]
    metrics = {m: 0 for m in PER_LAYER}
    for name, total in spans.items():
        metric = f"{name}_s"
        if metric not in metrics:
            raise BenchError(f"span {name!r} has no per-layer metric")
        metrics[metric] = total
    for metric in PER_LAYER:
        if metric in sizes:
            metrics[metric] = sizes[metric]
    for module, entries in replay["cache_entries"].items():
        metrics[f"{module}.cache_entries"] = entries
    for metric, names in COUNTS.items():
        metrics[metric] = sum(counts.get(n, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0

    metrics["specs.delta_miss_ratio"] = ratio(
        counts.get("specs.delta_evaluations", 0), metrics["specs.delta_calls"])
    metrics["specs.product_miss_ratio"] = ratio(
        counts.get("specs.product_evaluations", 0), metrics["specs.product_calls"])
    metrics["inversion.validate_over_eval"] = ratio(
        metrics["inversion.validate_s"], metrics["inversion.eval_s"])
    metrics["trace.wall_s"] = trace_wall
    metrics["trace.overhead_s"] = trace_wall - baseline_wall
    metrics["trace.unaccounted_s"] = trace_wall - sum(spans.values())
    metrics["trace.unrepeated_counts"] = len(unrepeated)
    return metrics


def parse_child_json(result: ChildResult) -> dict | None:
    lines = result.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def run_traced(runner: Runner, name: str, spec: dict, seed: int,
               seconds: float) -> dict:
    samples = sample_cli(runner, spec, seed, seconds)
    good = [s for s in samples if s["ok"]]
    cli_digest = good[0]["sha256"] if good else spec["sha256"]
    baseline = summary([s["wall_s"] for s in good])

    def replay_argv(mode):
        return [sys.executable, str(REPLAY), mode, name, "--seed", str(seed)]

    children = []

    def check(result: ChildResult) -> dict | None:
        data = parse_child_json(result)
        why = exit_failure(result)
        if not why and data is None:
            why = "no JSON result"
        if not why and data["sha256"] != cli_digest:
            why = f"replay sha256 {data['sha256'][:12]} != CLI {cli_digest[:12]}"
        children.append(record(result, not why, why))
        return None if why else data

    replay_result = runner.run(replay_argv("replay"))
    replay = check(replay_result)
    count_results = runner.run_all([replay_argv("count"), replay_argv("count")])
    passes = [check(r) for r in count_results]
    out = {
        "samples": samples,
        "replays": children,
        "summary": {"raw_wall_s": baseline},
        "attempted": len(samples) + len(children),
        "failed": sum(not s["ok"] for s in samples + children),
        "metrics": None,
    }
    if replay is None or None in passes or not good:
        return out
    first, second = passes[0]["counts"], passes[1]["counts"]
    unrepeated = compare_counts(first, second)
    out["replay"] = replay
    out["counts"] = {"pass1": first, "pass2": second, "unrepeated": unrepeated}
    out["metrics"] = layer_metrics(replay, first, unrepeated,
                                   replay_result.wall_s, baseline["median"])
    return out


# ---------------------------------------------------------------------------
# Reporting


def print_run(name: str, run: dict, trace: bool) -> None:
    for metric, stats in run["summary"].items():
        if stats["n"]:
            unit = {**END_TO_END, **RAW}[metric]
            print(f"{name}: {metric} = {stats['median']:.4f} {unit} "
                  f"(q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, n={stats['n']})")
    print(f"{name}: fail_frac = {run['fail_frac']:.4f} ratio "
          f"({run['failed']} of {run['attempted']} attempted)")
    for child in run.get("samples", []) + run.get("setups", []) + run.get("replays", []):
        if not child["ok"]:
            print(f"{name}: failed child: {child['why']}")
    if trace and run["metrics"] is not None:
        for metric, value in run["metrics"].items():
            print(f"{name}: {metric} = {value:.6g} {PER_LAYER[metric]}")
        for count, values in run["counts"]["unrepeated"].items():
            print(f"{name}: count {count} did not repeat: {values[0]} vs {values[1]}")


def run_workload(name: str, spec: dict, seed: int, seconds: float,
                 trace: bool, env: dict) -> dict:
    runner = Runner(calibrated=not trace)
    try:
        run = (run_traced if trace else run_untraced)(runner, name, spec, seed, seconds)
    finally:
        runner.release()
    run["fail_frac"] = run["failed"] / run["attempted"]
    run.update({"env": env, "workload": dict(spec, name=name), "seed": seed,
                "seconds": seconds, "trace": int(trace)})
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)
    print_run(name, run, trace)
    return run


def result_line(run: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m: {"value": run["metrics"][m], "unit": u} for m, u in units.items()},
    }


def write_layer_table(runs: dict) -> Path:
    names = list(runs)
    lines = ["| metric | unit | " + " | ".join(names) + " |",
             "| --- | --- |" + " --- |" * len(names)]
    for metric, unit in PER_LAYER.items():
        cells = [f"{runs[n]['metrics'][metric]:.6g}" for n in names]
        lines.append(f"| `{metric}` | {unit} | " + " | ".join(cells) + " |")
    path = RESULTS / "layers.md"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        workloads = load_workloads()
        child_env()
    except (OSError, ValueError, BenchError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    env = environment()

    if args.workload == "all":
        final, runs, traced = {}, [], {}
        for name, spec in workloads.items():
            untraced = run_workload(name, spec, args.seed, args.seconds, False, env)
            traced[name] = run_workload(name, spec, args.seed, args.seconds, True, env)
            runs += [untraced, traced[name]]
            final[name] = {"untraced": result_line(untraced, False),
                           "traced": result_line(traced[name], True)
                           if traced[name]["metrics"] else None}
        complete = all(run["metrics"] for run in traced.values())
        if complete:
            print(f"per-layer table: {write_layer_table(traced)}")
        print(json.dumps(final, sort_keys=True))
        return 0 if complete and not any(run["failed"] for run in runs) else 1

    spec = workloads.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)} or all")
    trace = bool(args.trace)
    run = run_workload(args.workload, spec, args.seed, args.seconds, trace, env)
    if run["metrics"] is None or None in run["metrics"].values():
        print(f"bench: no verified result for {args.workload}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(run, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
