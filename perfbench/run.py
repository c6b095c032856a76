#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the torsionlab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census-delta --seed 1 --seconds 55 --trace 0

Each iteration of a workload is one fresh interpreter (``worker.py``)
that imports torsionlab from the checkout's ``src`` and calls
``torsionlab.cli.main(argv)`` for each command of the workload in turn.
Load comes from this single process in a closed loop with one client:
an iteration starts only after the previous one has ended.  Iterations
are repeated for about ``--seconds`` seconds and the medians reported.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
set-up time (median of fresh-interpreter imports), wall time, CPU time
and peak RSS of the worker (the last two from ``os.wait4``).  Times
are scaled to a nominal machine speed measured by ``probe.py`` while
they are taken; the measured seconds are printed beside them.
``--trace 1`` alternates traced and untraced iterations and reports
the per-layer metrics of BENCHMARK.json, read from the wrappers of
``tracer.py``; every count must repeat exactly across traced iterations.

Every command's exit code and stdout sha256 are checked against
``workloads.json``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 15      # fresh interpreters that only import, after one warm-up
RUN_TIMEOUT = 170      # seconds; a worker still running then is killed
INTERNAL_FAULT = 70    # torsionlab's exit code for a falsified self-check


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Starts workers one at a time and checks what they report."""

    def __init__(self, workload, seed, tmpdir):
        self.workload = workload
        self.tmpdir = tmpdir
        # a seeded workload draws its program seed from a pool of seeds
        # whose output is recorded and whose work is about equal
        pool = workload.get("seed_pool")
        self.program_seed = pool[seed % len(pool)] if pool else None
        self.commands = [[arg.replace("{seed}", str(self.program_seed)) for arg in argv]
                         for argv in workload["commands"]]
        self.expected = (workload["expected"][str(self.program_seed)] if pool
                         else workload["expected"])
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # the first worker compiles the bytecode into this run's own
        # cache; later ones load it, so set-up time is a warm import
        # whatever the environment says or the checkout holds
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(tmpdir, "pycache")
        self.deadline = time.monotonic() + RUN_TIMEOUT
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, commands, trace, probe=False):
        """Run one worker to completion; returns its document plus rusage."""
        result_path = os.path.join(self.tmpdir, "result.json")
        log_path = os.path.join(self.tmpdir, "worker.log")
        if os.path.exists(result_path):
            os.remove(result_path)
        request = json.dumps({"commands": commands, "trace": trace, "probe": probe})
        with open(log_path, "wb") as log:
            proc = subprocess.Popen([sys.executable, WORKER, request, result_path],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                    env=self.env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read())
            return None
        doc = load_json(result_path)
        doc["cpu_s"] = usage.ru_utime + usage.ru_stime - doc["probe_s"]
        doc["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if doc["probe_wrong"]:
            self.problems.append(f"{doc['probe_wrong']} probe slices computed a wrong result")
        return doc

    def iteration(self, trace, probe):
        """One workload iteration; counts every command against the expectation."""
        doc = self.spawn(self.commands, trace, probe)
        self.attempted += len(self.commands)
        if doc is None:
            self.failed += len(self.commands)
            self.problems.append("worker crashed or timed out")
            return None
        for idx, cmd in enumerate(doc["commands"]):
            problem = self.check(idx, cmd)
            if problem:
                self.failed += 1
                self.problems.append(f"{' '.join(cmd['argv'])}: {problem}")
        return doc

    def check(self, idx, cmd):
        if cmd["error"] is not None:
            return "exception\n" + cmd["error"]
        if cmd["exit"] == INTERNAL_FAULT:
            return "internal fault (exit 70)"
        expected = self.expected[idx]
        if cmd["exit"] != expected["exit"]:
            return f"exit {cmd['exit']}, expected {expected['exit']}"
        if cmd["sha256"] != expected["sha256"]:
            return f"stdout sha256 {cmd['sha256'][:12]}, expected {expected['sha256'][:12]}"
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, unit, values):
    q1, med, q3 = quartiles(values)
    print(f"  {name:<42} median {med:.6g} {unit}   q1 {q1:.6g}   q3 {q3:.6g}   n={len(values)}")
    return med


def measure_setup(runner):
    out = []
    for _ in range(SETUP_PROBES):
        doc = runner.spawn([], False, probe=True)
        if doc is None:
            runner.problems.append("set-up probe failed")
            return out
        out.append(doc["setup_s"] * doc["setup_scale"])
    return out


def loop(runner, seconds, traced, required, probe):
    """Run iterations in a closed loop; iteration n is traced if
    ``traced(n)``.  The first ``required`` always run; a further one
    starts only while it is expected to end within ``seconds``."""
    start = time.monotonic()
    docs = []
    for n in itertools.count():
        elapsed = time.monotonic() - start
        if n >= required and elapsed + elapsed / n > seconds:
            break
        doc = runner.iteration(traced(n), probe)
        if doc is None:
            break
        docs.append(doc)
    return docs


def end_to_end(runner, seconds, bench):
    setup = measure_setup(runner)
    docs = loop(runner, seconds, lambda n: False, 1, probe=True)
    values = {"setup_s": setup + [d["setup_s"] * d["setup_scale"] for d in docs],
              "wall_s": [d["wall_s"] * d["scale"] for d in docs],
              "cpu_s": [d["cpu_s"] * d["scale"] for d in docs],
              "peak_rss_mb": [d["peak_rss_mb"] for d in docs]}
    print_iterations(docs)
    print("end-to-end metrics (median over iterations; times at the nominal speed):")
    metrics = {}
    for spec in bench["end_to_end"]:
        if values[spec["name"]]:
            med = summarize(spec["name"], spec["unit"], values[spec["name"]])
            metrics[spec["name"]] = {"value": med, "unit": spec["unit"]}
    return metrics


def per_layer(runner, seconds, bench, meta):
    # traced and untraced iterations alternate, so that drift in machine
    # speed affects both sides of trace.overhead_frac alike; two traced
    # iterations at least, so that their counts can be compared
    docs = loop(runner, seconds, lambda n: n % 2 == 0, 3, probe=False)
    traced = [d for d in docs if "layers" in d]
    plain = [d for d in docs if "layers" not in d]
    print_iterations(docs)
    if len(traced) < 2 or not plain:
        return {}
    for name, value in traced[0]["layers"].items():
        if isinstance(value, int):
            seen = {d["layers"][name] for d in traced}
            if len(seen) > 1:
                runner.problems.append(f"count {name} differs between traced runs: {sorted(seen)}")
    for d in traced:
        for cmd, ref in zip(d["commands"], plain[0]["commands"]):
            if cmd["sha256"] != ref["sha256"]:
                runner.problems.append(f"traced stdout differs: {' '.join(cmd['argv'])}")
    layers = {name: value if isinstance(value, int)
              else statistics.median(d["layers"][name] for d in traced)
              for name, value in traced[0]["layers"].items()}
    wall_plain = statistics.median(d["wall_s"] for d in plain)
    layers["trace.overhead_frac"] = statistics.median(d["wall_s"] for d in traced) / wall_plain - 1.0

    print("per-layer metrics (median over traced iterations; counts repeat exactly):")
    for name in sorted(layers):
        moves = meta["layer_map"].get(name)
        note = f"   -> {', '.join(moves['moves'])} on {', '.join(moves['on']) or 'none'}" if moves else ""
        print(f"  {name:<42} {layers[name]:.6g} {unit_of(name)}{note}")
    coverage = layers["trace.coverage_frac"]
    print(f"named spans cover {coverage:.1%} of cli.main time "
          f"({'ok' if coverage >= 0.95 else 'BELOW the 95% target'})")
    # the layer shares measured when the workload was chosen; an
    # optimisation may move them, so a miss is reported, not failed
    tol = meta["share_tolerance"]
    for name, limits in runner.workload["shares"].items():
        lo, hi = limits.get("min", 0.0), limits.get("max", 1.0)
        ok = lo - tol <= layers[name] <= hi + tol
        print(f"share check {name} {layers[name]:.3f} in [{lo}, {hi}] +- {tol}: "
              f"{'ok' if ok else 'MISSED'}")
    metrics = {spec["name"]: {"value": layers[spec["name"]], "unit": spec["unit"]}
               for spec in bench["per_layer"] if spec["name"] in layers}
    return metrics


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_yield")) or name.startswith("share."):
        return "frac"
    return "count"


def print_iterations(docs):
    """Measured seconds; with the probe, also the factor to the nominal speed."""
    for n, d in enumerate(docs, 1):
        kind = "traced" if "layers" in d else "plain"
        speed = (f"  scale {d['scale']:.4f}  setup_scale {d['setup_scale']:.4f}"
                 if "scale" in d else "")
        print(f"iteration {n} ({kind}): wall_s {d['wall_s']:.4f}  cpu_s {d['cpu_s']:.4f}  "
              f"peak_rss_mb {d['peak_rss_mb']:.2f}  setup_s {d['setup_s']:.4f}{speed}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torsionlab", "__init__.py")):
        print(f"error: no torsionlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "workloads.json"))
    workloads = meta["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        runner = Runner(workload, args.seed, tmpdir)
        first = runner.spawn([], False)  # also warms bytecode and file caches
        backend = first["backend"] if first else "unknown"
        print(f"workload {args.workload}: {workload['why']}")
        for argv in runner.commands:
            print(f"  torsionlab {' '.join(argv)}")
        print(f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
              f"backend {backend}  python {platform.python_version()}  "
              f"nproc {os.cpu_count()}  load: closed loop, 1 client")
        if args.trace:
            metrics = per_layer(runner, args.seconds, bench, meta)
        else:
            metrics = end_to_end(runner, args.seconds, bench)

    for problem in runner.problems:
        print(f"FAIL: {problem}")
    print(f"fail_frac {runner.failed / max(runner.attempted, 1):g} "
          f"({runner.failed} of {runner.attempted} commands failed)")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    correct = (not runner.problems and runner.attempted > 0
               and all(spec["name"] in metrics for spec in wanted))
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
