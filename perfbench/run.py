"""capstar benchmark: ladder, star, verify and cli workloads.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20            # every workload, one table

One process, one caller, no threads: each op starts when the previous
one has finished (a closed loop), and the cli workload runs one child
process at a time.  Ops run in whole passes until `--seconds` have gone
by.  Every op is checked against answers known without capstar; a
wrong answer, an exception or a timeout counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run measures a
third of the time untraced and the rest with spans around each layer,
and the metrics are the per-layer ones, averaged per traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import spans
from workloads import CLI_LAYERS, SRC, WORKLOADS, child_env

HARD_LIMIT_S = 150.0  # no op may run past this point of the run
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for module, names in spans.TRACED.items():
        for name in names:
            if name == "homology":
                for d in spans.HOMOLOGY_DEGREES:
                    units[f"chains.homology.d{d}_s"] = "s"
                units["chains.homology.dx_s"] = "s"
            else:
                units[f"{module}.{name}_s"] = "s"
    units["chains.coords_of_s"] = "s"
    for n in (1, 2, 3):
        units[f"intlinalg.smith_normal_form.d{n}_s"] = "s"
        for what in ("rows", "cols", "nnz", "rank"):
            units[f"intlinalg.d{n}.{what}"] = "count"
    units["intlinalg.max_coeff_bits"] = "bits"
    units["verify.checks_failed"] = "count"
    for layer in ("startup",) + CLI_LAYERS:
        units[f"cli.{layer}_s"] = "s"
    units["cli.nonzero_exits"] = "count"
    units.update({
        "trace.op_s": "s",
        "trace.unattributed_s": "s",
        "trace.ops_per_s": "1/s",
        "trace.untraced_ops_per_s": "1/s",
        "trace.overhead_frac": "fraction",
    })
    return units


PER_LAYER = per_layer_units()


class OpTimeout(BaseException):
    """Raised inside an op by the timer; a BaseException so that no
    `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op, timeout_s: float):
    """Time one op under a timeout and check its result: returns
    (latency_s, failure reason or None, result)."""
    result, reason = None, None
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1e-3))
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        reason = "timeout"
    except Exception as e:  # a failed op is recorded, not raised
        reason = f"error: {type(e).__name__}: {e}"
    latency = perf_counter() - t0
    if reason is None:
        try:
            wrong = op.check(result)
        except Exception as e:  # malformed output is a wrong answer
            wrong = f"check raised {type(e).__name__}: {e}"
        if wrong:
            reason = f"wrong: {wrong}"
    return latency, reason, result


class Runner:
    def __init__(self, workload, t_start: float):
        self.wl = workload
        self.hard_deadline = t_start + HARD_LIMIT_S
        self.records = []  # (op name, latency_s, failure reason or None)
        self.passes = 0

    def run_passes(self, seconds: float, counters=None, after_pass=None) -> list:
        """Whole passes until `seconds` have gone by (at least one).
        `after_pass(elapsed_s)` runs between passes, outside the timing."""
        t0 = perf_counter()
        done = []
        while True:
            for op in self.wl.make_pass(self.passes):
                timeout = min(self.wl.op_timeout_s, self.hard_deadline - perf_counter())
                latency, reason, result = run_op(op, timeout)
                done.append((op.name, latency, reason))
                if counters is not None and reason is None:
                    self.wl.probe(op, result, counters)
            self.passes += 1
            if after_pass is not None:
                after_pass(perf_counter() - t0)
            if perf_counter() - t0 >= seconds or perf_counter() >= self.hard_deadline:
                break
        self.records += done
        return done


def ops_per_s(records) -> float:
    """Ops that passed per second of summed op latency."""
    busy = sum(r[1] for r in records)
    return sum(1 for r in records if r[2] is None) / busy if busy else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup_s, peak_rss_mb):
    """The gated metrics, and the latency percentiles that are only
    printed: a median of millisecond ops flips between the fast and the
    slow state of a shared host, beyond any bound a regression check
    could use."""
    values = {"setup_s": setup_s, "ops_per_s": ops_per_s(records), "peak_rss_mb": peak_rss_mb}
    metrics = {k: metric(values[k], unit) for k, unit in END_TO_END.items()}
    lat = [r[1] for r in records]
    extra = {"op_samples": len(lat), "op_p50_s": statistics.median(lat)}
    if len(lat) >= 100:
        extra["op_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    return metrics, extra


def per_layer(traced, untraced, tracer, counters, n_traced_passes, child_span_s=0.0):
    values = defaultdict(float)
    for name, secs in tracer.self_s.items():
        values[name + "_s"] += secs
    for name, value in counters.items():
        values[name] += value
    op_s = sum(r[1] for r in traced)
    values["trace.op_s"] = op_s
    values["trace.unattributed_s"] = op_s - tracer.top_level_s() - child_span_s
    per_pass = {k: (v if k == "intlinalg.max_coeff_bits" else v / n_traced_passes)
                for k, v in values.items()}
    traced_rate, untraced_rate = ops_per_s(traced), ops_per_s(untraced)
    per_pass["trace.ops_per_s"] = traced_rate
    per_pass["trace.untraced_ops_per_s"] = untraced_rate
    per_pass["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
    unknown = set(per_pass) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    return {k: metric(per_pass.get(k, 0.0), u) for k, u in PER_LAYER.items()}


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def import_capstar():
    """Import capstar from this checkout's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "capstar", "__init__.py")):
        raise SystemExit(f"capstar sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import capstar
    import capstar.io  # noqa: F401  (not re-exported by the package)
    import capstar.verify  # noqa: F401
    if os.path.dirname(os.path.dirname(os.path.abspath(capstar.__file__))) != SRC:
        raise SystemExit(f"capstar imported from {capstar.__file__}, not from {SRC}")
    return capstar


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import capstar, capstar.io, capstar.verify; "
    "print(time.perf_counter() - t0)"
)


def import_s() -> float:
    """Time to import capstar in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def run_workload(args) -> int:
    t_start = perf_counter()
    capstar = import_capstar()
    wl = WORKLOADS[args.workload](capstar, args.seed, args.smoke)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup()
            setups.append(perf_counter() - t0)
        runner = Runner(wl, t_start)
        if not args.trace:
            # the import is timed in fresh interpreters spread over the run
            # (at its start, each quarter and its end), so that its median
            # sees the same machine as the ops do
            imports = [import_s()]

            def sample_import(elapsed):
                if len(imports) < 4 and elapsed >= len(imports) * args.seconds / 4:
                    imports.append(import_s())

            records = runner.run_passes(args.seconds, after_pass=sample_import)
            imports.append(import_s())
            setup_s = statistics.median(imports) + statistics.median(setups)
            metrics, extra = end_to_end(records, setup_s, peak_rss_mb(args.workload))
        else:
            untraced = runner.run_passes(args.seconds / 3)
            counters = defaultdict(float)
            tracer = spans.Tracer()
            wl.trace_children(counters)
            passes_before = runner.passes
            with tracer:
                traced = runner.run_passes(args.seconds * 2 / 3, counters)
            n_traced = runner.passes - passes_before
            wl.after_trace(n_traced, counters)
            metrics = per_layer(traced, untraced, tracer, counters, n_traced, wl.child_span_s)
            extra = {}
    finally:
        wl.close()

    records = runner.records
    failed = [r for r in records if r[2] is not None]
    wrong = [r for r in failed if not r[2].startswith("timeout")]
    report(args, runner, metrics, extra, failed)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def report(args, runner, metrics, extra, failed) -> None:
    """Human-readable lines ahead of the result line."""
    records = runner.records
    print(f"workload {args.workload}  seed {args.seed}  passes {runner.passes}  "
          f"attempted {len(records)}  failed {len(failed)}  "
          f"failed_frac {len(failed) / len(records):.4f}")
    reasons = defaultdict(int)
    for r in failed:
        reasons[f"{r[0]}: {r[2][:160]}"] += 1
    for reason, n in sorted(reasons.items()):
        print(f"  FAILED x{n}  {reason}")
    by_op = defaultdict(list)
    for r in records:
        by_op[r[0]].append(r[1])
    for name, lat in by_op.items():
        print(f"  op {name:<28} n={len(lat):<4} median {statistics.median(lat):.6f} s")
    for name, m in metrics.items():
        if m["value"]:
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_p50_s {extra['op_p50_s']:.6g} s, op_p90_s "
              + (f"{extra['op_p90_s']:.6g} s" if "op_p90_s" in extra else "not reported")
              + f" (n={extra['op_samples']})")
        line = dict(extra)
        line["failed_frac"] = len(failed) / len(records)
        print("# summary " + json.dumps(line))
    else:
        op_s = metrics["trace.op_s"]["value"]
        print(f"  shares of traced op time per pass ({op_s:.4f} s):")
        layer_s = {k: m["value"] for k, m in metrics.items()
                   if m["unit"] == "s" and not k.startswith(("trace.", "cli."))
                   and ".smith_normal_form.d" not in k}
        for k, v in sorted(layer_s.items(), key=lambda kv: -kv[1])[:12]:
            if v:
                print(f"    {k:<40} {100 * v / op_s:6.2f} %")


def run_all(args) -> int:
    """Each workload in its own process, one after another; one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.splitlines()
        summary = json.loads(next(s for s in lines if s.startswith("# summary "))[10:])
        result = json.loads(lines[-1])
        rows.append((name, result, summary))
    for name, result, summary in rows:
        m = result["metrics"]
        print(f"{name}: attempted {result['attempted']}  failed {result['failed']}  "
              f"failed_frac {summary['failed_frac']:.4f}  correct {result['correct']}")
        for key in END_TO_END:
            print(f"  {key:<12} {m[key]['value']:.6g} {m[key]['unit']}")
        print(f"  {'op_p50_s':<12} {summary['op_p50_s']:.6g} s")
        p90 = summary.get("op_p90_s")
        p90_text = f"{p90:.6g} s" if p90 is not None else "not reported (fewer than 100 ops)"
        print(f"  {'op_p90_s':<12} {p90_text}  (n={summary['op_samples']})")
    return 0 if all(r[1]["correct"] and not r[1]["failed"] for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
