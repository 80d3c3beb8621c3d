"""planebranch benchmark: one workload, one seed, one timed phase.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

It imports the library from the ``src/`` of the checkout it sits in and
refuses to run without it.  ``--trace 0`` measures the end-to-end metrics
with tracing off, every time scaled to the pace of a fixed reference
work (``Pace``) so that a busy machine does not read as a slow library.
``--trace 1`` runs the first quarter of one pass
untraced, then the whole pass traced, and reports per-layer metrics from
the spans.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
results file with the replay record of every input go to
``.bench_build/perfbench/``.  ``--workload all`` runs the four workloads
one after another, each in its own process, prints every end-to-end
metric and exits 1 if any output was wrong.

See perfbench/README.md for what each workload measures and why.
"""

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: set-up rounds per run, spread over the run so that one slow spell of
#: the machine cannot take their median
SETUP_ROUNDS = 5
#: the fewest passes a timed phase makes; each input's latency is its
#: median over the passes
MIN_PASSES = 3
#: a pass still running after this many times --seconds is cut short, so
#: that a much slower library still ends the run in bounded time
CUT_FACTOR = 5
#: the reference work runs again before an op once its last run is this old
REF_INTERVAL = 0.1
#: reported times are scaled to a pace at which the reference work takes
#: this long (seconds); about its median on the machine this was tuned on
REF_SECONDS = 0.0025

E2E_UNITS = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def peak_rss_mb(children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def fresh_interpreter_s(code, env, rounds=3):
    """Median wall time of `python -c code`, and of the timed part it prints."""
    walls, inner = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              cwd=ROOT, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        if proc.stdout.strip():
            inner.append(float(proc.stdout))
    return statistics.median(walls), (statistics.median(inner) if inner else None)


class Runner:
    def __init__(self, workload, pb, seed):
        self.w = workload
        self.pb = pb
        self.seed = seed
        self.failures = Counter()
        self.examples = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self):
        return self.w.generate(self.pb, random.Random(self.seed), OUT.relative_to(ROOT), self.seed)

    def run_op(self, case, fn):
        """One op; any exception is a failed op, recorded by type."""
        try:
            fn(case)
        except Exception as exc:  # the run goes on and the input stays counted
            kind = type(exc).__name__
            self.failures[kind] += 1
            self.examples.setdefault(kind, {"case": case.replay, "message": str(exc)[:500]})

    def op_fn(self):
        if self.w.name == "cli":
            return lambda case: self.w.op(self.pb, case, self.env, ROOT)
        return lambda case: self.w.op(self.pb, case)

    def timed(self, cases, seconds, pace, after_pass):
        """Whole passes over the inputs; each input's latencies at reference pace.

        At least MIN_PASSES passes, then as many as bring the time spent in
        passes nearest `seconds`.  Every pass holds the full fixed mix.
        after_pass(elapsed) runs between passes, off that clock, as does
        the reference work.
        """
        fn = self.op_fn()
        runs = [[] for _ in cases]
        clock = time.perf_counter
        start = clock()
        aside = 0.0
        executed = passes = 0
        while True:
            for i, case in enumerate(cases):
                t0 = clock()
                now = pace.now()
                t1 = clock()
                aside += t1 - t0
                self.run_op(case, fn)
                runs[i].append((clock() - t1) * REF_SECONDS / now)
                executed += 1
                if t1 - start - aside > CUT_FACTOR * seconds:
                    return [r for r in runs if r], executed
            passes += 1
            t0 = clock()
            after_pass(t0 - start - aside)
            aside += clock() - t0
            elapsed = clock() - start - aside
            if passes >= MIN_PASSES and elapsed + elapsed / passes / 2 >= seconds:
                return runs, executed

    def fixed(self, cases, fn):
        start = time.perf_counter()
        for case in cases:
            self.run_op(case, fn)
        return time.perf_counter() - start


def reference_work(steps=8000):
    """Fixed pure-Python work, independent of the library."""
    table = {}
    for i in range(steps):
        key = i * 7919 % 1021
        table[key] = table.get(key, 0) + i * i
    return len(table)


class Pace:
    """How long the reference work takes now: the median of its last three runs.

    On a shared machine interpreted code slows by up to 1.6 times for
    seconds or minutes at a time; the library and the reference slow
    alike, so a time scaled by REF_SECONDS / pace reads the same in a slow
    spell as in a quiet one.
    """

    def __init__(self):
        self.samples = []
        self.at = -math.inf

    def sample(self):
        start = time.perf_counter()
        reference_work()
        self.at = time.perf_counter()
        self.samples = (self.samples + [self.at - start])[-3:]

    def now(self):
        if time.perf_counter() - self.at >= REF_INTERVAL:
            self.sample()
        return statistics.median(self.samples)

    def fresh(self):
        for _ in range(3):
            self.sample()
        return statistics.median(self.samples)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_code(modules):
    """Python code that imports modules and prints how long that took."""
    return ("import time; t = time.perf_counter(); " + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")


def end_to_end(runner, seconds):
    """The timed passes, with set-up rounds before them and between them.

    A set-up round is the import of the library in a fresh interpreter
    plus generating and certifying the inputs and golden outputs.  Every
    time is scaled to reference pace; an input's latency is the median
    over the passes.
    """
    pace = Pace()
    imports, setups = [], []

    def setup_round():
        scale = REF_SECONDS / pace.fresh()
        imports.append(fresh_interpreter_s(import_code(runner.w.modules), runner.env, 1)[1] * scale)
        start = time.perf_counter()
        cases = runner.setup()
        setups.append((time.perf_counter() - start) * scale)
        return cases

    def after_pass(elapsed):
        if len(setups) < SETUP_ROUNDS and elapsed >= len(setups) * seconds / SETUP_ROUNDS:
            setup_round()

    cases = setup_round()
    runs, executed = runner.timed(cases, seconds, pace, after_pass)
    while len(setups) < SETUP_ROUNDS:
        setup_round()
    failed = sum(runner.failures.values())
    lat = [statistics.median(r) for r in runs]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "lat_p50_ms": statistics.median(lat) * 1e3,
        "lat_p90_ms": quantile(lat, 90) * 1e3,
        "ok_share": (executed - failed) / executed,
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(children=runner.w.name == "cli"),
    }
    detail = {"inputs_per_pass": len(cases), "ops_executed": executed,
              "passes": executed / len(cases), "reference_s": pace.samples,
              "import_s": imports, "setup_rounds_s": setups}
    return cases, executed, metrics, detail


def traced_pass(runner):
    """A traced set-up round and pass, after an untraced run of the pass's head.

    Returns the inputs, the head's length, the tracer, and the head's
    untraced time and traced op-span time, each at reference pace; their
    ratio is the tracing overhead.
    """
    w, pb = runner.w, runner.pb
    pace = Pace()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cases = tracer.call("setup", runner.setup)
        head = cases[: max(1, len(cases) // 4)]
        fn = (lambda case: w.traced_op(pb, case)) if w.name == "cli" else runner.op_fn()
        tracer.uninstall()
        untraced_s = runner.fixed(head, fn) * REF_SECONDS / pace.fresh()
        tracer.install()
        traced_scale = REF_SECONDS / pace.fresh()
        runner.fixed(cases, lambda case: tracer.call("op", fn, case))
    finally:
        tracer.uninstall()
    op_spans = [end - start for name, start, end, parent in tracer.spans
                if parent < 0 and name == "op"]
    return cases, len(head), tracer, untraced_s, sum(op_spans[: len(head)]) * traced_scale


def per_layer(runner, tracer, n_ops, untraced_s, traced_s):
    per_name, layer_self, op_s, op_calls = tracer.tally()
    m = {}
    for name in tracing.span_names():
        calls, own = per_name.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = own
    for layer in tracing.TRACED:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.share"] = layer_self[layer] / op_s if op_s else 0.0
    attempts = sum(tracer.tiers.values())
    for bits in tracing.TIERS:
        m[f"puiseux.tier_{bits}.attempts"] = tracer.tiers[bits]
    m["puiseux.escalation_ratio"] = (attempts - tracer.tiers[53]) / attempts if attempts else 0.0
    am_runs = op_calls["branch.semigroup_of"] + op_calls["branch.characteristic_roots"]
    m["branch.am_runs_per_branch"] = am_runs / n_ops
    m["bench.op.self_s"] = per_name.get("op", (0, 0.0))[1]
    m["trace.overhead"] = traced_s / untraced_s
    env = runner.env
    m["cli.interp_s"], _ = fresh_interpreter_s("pass", env)
    _, m["cli.import_s"] = fresh_interpreter_s(import_code(["planebranch.cli"]), env)

    puiseux_calls = attempts + sum(c for name, c in op_calls.items()
                                   if name.startswith("puiseux."))
    checks = []
    if runner.w.name == "oracle":
        checks.append(("puiseux self time >= 90% of oracle", m["puiseux.share"] >= 0.90,
                       f"{m['puiseux.share']:.3f}"))
    if runner.w.name in ("exact", "family"):
        checks.append((f"puiseux has zero calls on {runner.w.name}", puiseux_calls == 0,
                       f"{puiseux_calls} calls"))
    if runner.w.name == "exact":
        share = m["poly.share"] + m["branch.share"]
        checks.append(("poly + branch are the majority of exact", share > 0.5, f"{share:.3f}"))
    return m, checks


def run_one(args):
    if not (SRC / "planebranch" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    for name in workload.modules:
        importlib.import_module(name)
    pb = sys.modules["planebranch"]
    if Path(pb.__file__).resolve().parent != SRC / "planebranch":
        print(f"perfbench: imported planebranch from {pb.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, pb, args.seed)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        cases, n_head, tracer, untraced_s, traced_s = traced_pass(runner)
        metrics, checks = per_layer(runner, tracer, len(cases), untraced_s, traced_s)
        tracer.dump(f"{stem}-spans.json")
        attempted = n_head + len(cases)
        units = {name: ("count" if name.endswith((".calls", ".attempts"))
                        else "s" if name.endswith("_s") else "ratio") for name in metrics}
        detail = {"ops": len(cases), "spans": len(tracer.spans),
                  "untraced_head_s": untraced_s, "traced_head_s": traced_s,
                  "stress_checks": [list(c) for c in checks], "missing_spans": tracer.missing}
        for name, ok, value in checks:
            print(f"stress check {'PASS' if ok else 'FAIL'}: {name} ({value})")
        for name in tracer.missing:
            print(f"note: {name} not found in the library; its metrics read 0", file=sys.stderr)
    else:
        cases, attempted, metrics, detail = end_to_end(runner, args.seconds)
        units = E2E_UNITS
    failed = sum(runner.failures.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "error_rate": failed / attempted,
        "failures": dict(runner.failures), "failure_examples": runner.examples,
        "detail": detail, "result": result, "inputs": [c.replay for c in cases],
    }
    if workload.name == "exact":
        tails = sum(1 for c in cases if c.replay["tail"])
        record["tail_share"] = tails / len(cases)
        print(f"tail share: {tails}/{len(cases)} inputs carry x^(mu+2)*y")
    Path(f"{stem}-result.json").write_text(json.dumps(record, indent=1))
    for name, m in result["metrics"].items():
        print(f"{workload.name:7s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in ("oracle", "exact", "cli", "family"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        print("\n".join(line for line in lines[:-1]))
        verdict = "correct" if result["correct"] else "WRONG"
        print(f"{name:7s} {verdict}: {result['failed']} of {result['attempted']} ops failed")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "exact", "cli", "family", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
