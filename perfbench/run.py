"""End-to-end and per-layer benchmark of the twosfgl pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/twosfgl``.  A workload is
a cycle of ``twosfgl`` commands (see workloads.py), driven as a closed loop:
one process at a time, each started when the previous one has exited, and
the next cycle only when it would end within ``--seconds`` (at least two
cycles, so that every run re-checks that each command's outputs are
byte-identical).  BLAS is held to one thread: the program does its numerical
work in one thread, and helper threads would only tie its speed to the other
CPUs of a shared machine.

With ``--trace 0`` no invocation is traced and the run reports the
end-to-end metrics named in BENCHMARK.json, each the median over the run's
cycles.  With ``--trace 1`` untraced and traced cycles alternate; the traced
ones wrap the public functions of each module (see tracing.py) and give the
per-layer metrics of the whole cycle, and ``trace.overhead_s`` is the traced
minus the untraced cycle time.

``--workload all`` runs every workload in turn, each ending in its own
result line.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count cycles.  The lines before it give the same numbers for
people, with sample counts, and the machine.
``.perfbench/<workload>-seed<n>-trace<t>/`` keeps the run's record
(``result.json``), each invocation's log and, for traced ones, its spans.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_CYCLES = 2
BLAS_THREADS = 1
RUN_BUDGET_S = 165.0     # a run must end within 180 s, including checks


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[len("ref: "):]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def machine(root: Path) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": sys.version.split()[0], "numpy": _version("numpy"),
            "scipy": _version("scipy"), "blas_threads": BLAS_THREADS,
            "commit": _git_commit(root)}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(root, env, argv, work: Path, label: str, traced: bool,
           timeout: float) -> dict:
    """Run one twosfgl command in a fresh interpreter; time it from spawn to
    exit and read its peak RSS from the kernel's rusage of that child."""
    result_path = work / f"{label}.json"
    log_path = work / f"{label}.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path),
           "--trace", str(int(traced)), "--", *argv]
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.kill(proc.pid, signal.SIGKILL)

    status = usage = None
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:      # interrupted: leave no child running
                proc.kill()
                proc.wait()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "exit_code": proc.returncode, "problems": []}
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
        reason = ("timed out" if timed_out.is_set()
                  else f"exit code {proc.returncode}")
        record["problems"].append(f"{reason}: {' | '.join(tail)}")
        return record
    doc = json.loads(result_path.read_text())
    if doc.get("setup_end") is None:
        record["problems"].append("set-up end was never reached")
    else:
        record["setup_s"] = doc["setup_end"] - start
    if traced:
        record["doc"] = doc
    return record


def _median(values):
    return statistics.median(values) if values else None


class StepChecker:
    """Checks each invocation of one step against the step's first one that
    exited cleanly: identical CSV bytes share that one's content checks."""

    def __init__(self, step, seed, config_text):
        self.step, self.seed, self.config_text = step, seed, config_text
        self.reference, self.problems, self.quality = None, [], {}

    def check(self, out_dir: Path) -> list:
        digests = checks.csv_digests(out_dir)
        if self.reference is None:
            self.reference = digests
            self.problems = checks.check_outputs(out_dir, self.step, self.seed,
                                                 self.config_text)
            if self.step.trains and not self.problems:
                self.quality = checks.quality(out_dir)
        if digests == self.reference:
            return list(self.problems)
        changed = sorted(k for k in self.reference.keys() | digests.keys()
                         if self.reference.get(k) != digests.get(k))
        return [f"{len(changed)} CSV files differ from the step's first "
                f"invocation's, first {changed[0]}"]


def run_cycle(root, env, workload, configs, checkers, work, index, traced,
              deadline) -> dict:
    """Each step once, one process at a time.  A cycle's time and set-up are
    the sums over its steps and its peak RSS the largest; any step's problem
    fails the whole cycle."""
    start, steps = time.monotonic(), []
    for step in workload.steps:
        out_dir = work / f"out-{step.name}"
        argv = [step.command, "--config", str(configs[step.name]),
                "--out", str(out_dir)]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            steps.append({"step": step.name, "problems": ["run budget spent"]})
            break
        record = invoke(root, env, argv, work, f"c{index}-{step.name}",
                        traced, timeout)
        record["step"] = step.name
        if not record["problems"]:
            record["problems"] = checkers[step.name].check(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        steps.append(record)
    docs = [r.pop("doc", None) for r in steps]
    cycle = {"traced": traced, "elapsed_s": time.monotonic() - start,
             "steps": steps, "problems": [f"{r['step']}: {p}" for r in steps
                                          for p in r["problems"]]}
    if not cycle["problems"]:
        cycle["wall_s"] = sum(r["wall_s"] for r in steps)
        cycle["setup_s"] = sum(r["setup_s"] for r in steps)
        cycle["peak_rss_mb"] = max(r["peak_rss_mb"] for r in steps)
        if traced:
            cycle["layers"] = tracing.layer_metrics(tracing.merge(docs))
    return cycle


def measure(root, env, workload, seed, seconds, trace, work):
    """Run cycles until the next would end after ``seconds`` (at least
    MIN_CYCLES), checking every invocation's outputs.

    Returns the cycle records and, for each training step, the AUCs of its
    first correct invocation."""
    configs, checkers = {}, {}
    for step in workload.steps:
        text = step.config(seed)
        configs[step.name] = work / f"{step.name}.cfg"
        configs[step.name].write_text(text)
        checkers[step.name] = StepChecker(step, seed, text)
    start = time.monotonic()
    cycles = []
    while True:
        elapsed = time.monotonic() - start
        if len(cycles) >= MIN_CYCLES and elapsed + statistics.median(
                c["elapsed_s"] for c in cycles) > seconds:
            break
        if elapsed >= RUN_BUDGET_S:
            break
        cycles.append(run_cycle(root, env, workload, configs, checkers, work,
                                len(cycles), trace and len(cycles) % 2 == 1,
                                start + RUN_BUDGET_S))

    traced = [c["layers"] for c in cycles if not c["problems"] and c["traced"]]
    mismatched = [name for name in tracing.EXACT_COUNTS
                  if len({layers[name] for layers in traced}) > 1]
    if mismatched:
        cycles[-1]["problems"].append(
            "counts differ between traced cycles: " + ", ".join(mismatched))
    return cycles, {s.name: checkers[s.name].quality
                    for s in workload.steps if s.trains}


def metric_values(ok, quality) -> dict:
    """End-to-end values from the untraced cycles; per-layer values, the
    tracing overhead and the AUCs of ``quality`` (the headline step's) when
    some cycle was traced."""
    untraced = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    values = {name: _median([c[name] for c in untraced])
              for name in ("wall_s", "setup_s", "peak_rss_mb")}
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(c["layers"][name] for c in traced)
        if untraced:
            values["trace.overhead_s"] = (_median([c["wall_s"] for c in traced])
                                          - values["wall_s"])
        values["quality.auc_2sfgl"] = quality.get("auc_2sfgl", 0.0)
        values["quality.auc_gain"] = quality.get("auc_gain", 0.0)
    return values


def print_report(workload, args, cycles, ok, values, qualities, spec, host):
    failed = len(cycles) - len(ok)
    untraced = [c for c in ok if not c["traced"]]
    steps = ", ".join(f"`twosfgl {s.command}` ({s.name})" for s in workload.steps)
    print(f"perfbench {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(cycles)} cycles of {steps}, closed loop, one process at a time")
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        samples = [c[name] for c in untraced]
        if samples:
            print(f"  {name:<14} {values[name]:12.4f} {unit:<5} median of "
                  f"{len(samples)} cycles: "
                  + ", ".join(f"{s:.4f}" for s in samples))
    print(f"  {'failed_runs':<14} {failed / len(cycles):12.4f} share "
          f"{failed} of {len(cycles)} cycles")
    for step in workload.steps:
        walls = [r["wall_s"] for c in untraced for r in c["steps"]
                 if r["step"] == step.name]
        if walls:
            print(f"  {step.name + '.wall_s':<26} {_median(walls):12.4f} s     "
                  f"median of {len(walls)}")
    for step_name, quality in qualities.items():
        for name, value in quality.items():
            print(f"  {step_name + '.' + name:<26} {value:12.4f} AUC")
    if args.trace:
        for metric in spec["per_layer"]:
            if values.get(metric["name"]) is not None:
                print(f"  {metric['name']:<30} {values[metric['name']]:14.6f} "
                      f"{metric['unit']}")
    for i, cycle in enumerate(cycles):
        for problem in cycle["problems"]:
            print(f"  cycle {i}: {problem}")
    print(f"  machine: {json.dumps(host)}")


def run_workload(root, spec, workload, args) -> None:
    """One run of one workload: measure, report, and print the result line."""
    work = root / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cycles, qualities = measure(root, child_env(root), workload,
                                args.seed, args.seconds, bool(args.trace), work)
    ok = [c for c in cycles if not c["problems"]]
    # The first training step is the headline comparison.
    values = metric_values(ok, next(iter(qualities.values()), {}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    host = machine(root)
    print_report(workload, args, cycles, ok, values, qualities, spec, host)

    (work / "result.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed,
                    "configs": {s.name: s.config(args.seed)
                                for s in workload.steps},
                    "machine": host, "cycles": cycles, "values": values},
                   indent=1))
    print(json.dumps({"correct": len(ok) == len(cycles) and
                      len(metrics) == len(wanted),
                      "attempted": len(cycles), "failed": len(cycles) - len(ok),
                      "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that invoke() kills
    # and reaps the command it is waiting for before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "twosfgl" / "cli.py").is_file():
        print(f"perfbench: no twosfgl sources under {root / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # Bytecode is compiled once per checkout, not on every run users make.
    compileall.compile_dir(root / "src" / "twosfgl", quiet=1)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(root, spec, WORKLOADS[name], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
