"""The hslab benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-flat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see BENCHMARK.json and perfbench/DESIGN.md for why each exists):
  verify-flat      make_family + verify_family, tau = 0, one shared metric
  verify-deformed  the same with a seeded tau, so every family has its metric
  sweep            `hslab sweep --max 3` in process, with 1 and 2 workers

With --trace 0 the run measures for --seconds and prints the end-to-end
metrics.  With --trace 1 it runs a fixed amount of work three times, each in
a fresh interpreter: once untraced, then twice under the outside-in tracer
(tracer.py).  Each runs alone, except sweep's two traced runs: they run side
by side on two CPUs, so that the run ends in time.  It prints the per-layer
metrics and the tracing overhead, and counts a failure unless the two traced
runs made identical call counts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Every output of the program
is checked (workloads.py); a failed check is a failed operation and makes
`correct` false.  Without a result line the run exits with code 1 when a
child interpreter failed or ran out of time, and with 2 when the checkout
holds no hslab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-flat", "verify-deformed", "sweep")

# A run must end within this many seconds; children get what is left.
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 21

# Set-up in a fresh interpreter, timed before anything else is imported so
# that it pays for every module hslab needs; then speed calibrations
# (speed.py).  Prints the raw seconds and the seconds at the reference speed.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import hslab
from hslab.iwasawa import build_iwasawa
model, omega0, Omega = build_iwasawa()
hslab.HermitianStructure(model, omega0)
raw = time.perf_counter() - start
sys.path.insert(0, %r)
from speed import CAL_REF_S, calibration_seconds
calibration_seconds()
factor = (calibration_seconds() + calibration_seconds()) / (2 * CAL_REF_S)
print(repr(raw), repr(raw / factor))
""" % str(HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "families_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


class Runner:
    """Starts the child interpreters of one run, each within the run's budget."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("HS_LAB_THREADS", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        # call counts must not depend on string-hash order
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def _start(self, args):
        return subprocess.Popen([sys.executable] + args, cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def _finish(self, proc, args):
        try:
            out, err = proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.communicate()
            raise ChildFailed("child timed out: %s" % " ".join(args)) from exc
        if proc.returncode != 0:
            raise ChildFailed("child exited with %d: %s\n%s"
                              % (proc.returncode, " ".join(args), err[-2000:]))
        lines = out.strip().splitlines()
        if not lines:
            raise ChildFailed("child printed nothing: %s" % " ".join(args))
        return lines[-1]

    def run_all(self, arglists):
        """Run children side by side; the last output line of each."""
        procs = []
        try:
            for args in arglists:
                procs.append(self._start(args))
            return [self._finish(p, a) for p, a in zip(procs, arglists)]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def run(self, args):
        return self.run_all([args])[0]

    def setup_seconds(self):
        """Median set-up time, at the reference speed and raw."""
        runs = [[float(x) for x in self.run(["-c", SETUP_PROBE]).split()]
                for _ in range(SETUP_REPEATS)]
        return (statistics.median(norm for _, norm in runs),
                statistics.median(raw for raw, _ in runs))

    def workload_passes(self, workload, seed, seconds, passes,
                        side_by_side=False):
        """Run workloads.py once per (mode, trace file) entry of `passes`."""
        arglists = []
        for mode, trace_out in passes:
            args = [str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--pass", mode]
            if trace_out:
                args += ["--trace-out", trace_out]
            arglists.append(args)
        if side_by_side:
            outs = self.run_all(arglists)
        else:
            outs = [self.run(args) for args in arglists]
        return [json.loads(out) for out in outs]


def summarize_times(times):
    """Median, tail (highest percentile with >= 10 samples beyond it), count."""
    ordered = sorted(times)
    n = len(ordered)
    if n > 10:
        idx = n - 11
        tail, pct = ordered[idx], 100.0 * (idx + 1) / n
    else:
        tail, pct = ordered[-1], 100.0
    return statistics.median(ordered), tail, pct, n


def environment(root, seed):
    """What a result depends on besides the code: recorded with every run."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
    }


def _commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hslab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(runner, workload, seed, seconds):
    setup, raw_setup = runner.setup_seconds()
    (res,) = runner.workload_passes(workload, seed, seconds,
                                    [("untraced", None)])
    p50, tail, pct, n = summarize_times(res["times"])
    metrics = {
        "setup_s": setup,
        "families_per_s": res["families"] / res["wall_s"],
        "latency_p50_ms": p50 * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw_p50, raw_tail, _, _ = summarize_times(res["raw_times"])
    info = {"samples": n, "tail_percentile": pct, "families": res["families"],
            "failed_share": res["failed"] / res["attempted"],
            "setup_repeats": SETUP_REPEATS,
            "wall_clock": {"setup_s": raw_setup,
                           "families_per_s": res["families"]
                           / res["raw_wall_s"],
                           "latency_p50_ms": raw_p50 * 1000.0,
                           "latency_tail_ms": raw_tail * 1000.0}}
    if workload == "sweep":
        for w, ts in res["by_workers"].items():
            info["sweep_w%s_s" % w] = statistics.median(ts)
            info["wall_clock"]["sweep_w%s_s" % w] = statistics.median(
                res["raw_by_workers"][w])
    return ({name: (value, END_TO_END_UNITS[name])
             for name, value in metrics.items()},
            res["attempted"], res["failed"], res["errors"], info)


PER_LAYER_UNITS = [
    ("scalars.mul.calls", "count"), ("scalars.mul.self_s", "s"),
    ("scalars.add.calls", "count"), ("scalars.add.self_s", "s"),
    ("scalars.inverse.calls", "count"),
    ("cealg.wedge.calls", "count"), ("cealg.wedge.self_s", "s"),
    ("cealg.d.calls", "count"), ("cealg.d.self_s", "s"),
    ("cealg.contract.calls", "count"), ("cealg.contract.self_s", "s"),
    ("hermitian.HermitianStructure.calls", "count"),
    ("hermitian.HermitianStructure.self_s", "s"),
    ("hermitian.levi_civita.calls", "count"),
    ("hermitian.levi_civita.self_s", "s"),
    ("hermitian.bismut.calls", "count"), ("hermitian.bismut.self_s", "s"),
    ("hermitian.brackets.calls", "count"),
    ("hermitian.star.calls", "count"), ("hermitian.star.self_s", "s"),
    ("hermitian.matrix_inverse.calls", "count"),
    ("algebroid.connection_DG.calls", "count"),
    ("algebroid.connection_DG.self_s", "s"),
    ("algebroid.QFrame.calls", "count"),
    ("algebroid.curvature.self_s", "s"),
    ("algebroid.he_residual_G.self_s", "s"),
    ("algebroid.transport_dolbeault.self_s", "s"),
    ("algebroid.extension_class_gamma.self_s", "s"),
    ("algebroid.subbundle_report.self_s", "s"),
    ("harmonic.moment_residuals.calls", "count"),
    ("harmonic.moment_residuals.self_s", "s"),
    ("harmonic.nabla_H_star.calls", "count"),
    ("harmonic.nabla_H_star.self_s", "s"),
    ("harmonic.CompatibleMetricH.calls", "count"),
    ("harmonic.adjoint.calls", "count"), ("harmonic.adjoint.self_s", "s"),
    ("harmonic.higgs_equation_residuals.self_s", "s"),
    ("harmonic.harmonic_criteria.self_s", "s"),
    ("bundles.hs_residuals.self_s", "s"),
    ("bundles.alpha_solve.self_s", "s"),
    ("bundles.degree_and_slope.self_s", "s"),
    ("bundles.curvature_from_triple.calls", "count"),
    ("iwasawa.make_family.self_s", "s"),
    ("iwasawa.verify_family.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("iwasawa.sweep.base_engine_s", "s"),
    ("iwasawa.sweep.base_engine.calls", "count"),
    ("iwasawa.sweep.rest_s", "s"),
    ("iwasawa.sweep.w1_s", "s"),
    ("iwasawa.sweep.w2_s", "s"),
    ("iwasawa.sweep.pool_speedup", "ratio"),
    ("algebroid.connection_DG.calls_per_family", "1/family"),
    ("hermitian.levi_civita.calls_per_family", "1/family"),
    ("trace.families", "count"),
    ("trace.untraced_s", "s"),
    ("trace.overhead", "ratio"),
]


def _traced_wall(workload, res):
    if workload == "sweep":
        return res["by_workers"]["1"][0]
    return res["wall_s"]


def per_layer(runner, workload, seed):
    out_dir = runner.root / ".perfbench"
    # The untraced reference runs alone.  So do both traced passes, except
    # for sweep: three sweep passes one after another would not end within
    # the run's time limit, so its two traced passes share the two CPUs.
    (reference,) = runner.workload_passes(workload, seed, 0,
                                          [("reference", None)])
    trace_file = str(out_dir / ("trace-%s-seed%d.json" % (workload, seed)))
    shared = workload == "sweep" and len(os.sched_getaffinity(0)) >= 2
    first, second = runner.workload_passes(
        workload, seed, 0, [("traced", trace_file), ("traced", None)], shared)
    passes = (reference, first, second)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    # counts are exact claims only if a repeat of the same work repeats them
    diff = sorted(name for name in set(first["call_counts"])
                  | set(second["call_counts"])
                  if first["call_counts"].get(name)
                  != second["call_counts"].get(name))
    if diff:
        failed += 1
        attempted += 1
        errors.append("call counts differ between two traced runs: %s"
                      % ", ".join(diff[:10]))
    layers = dict(first["layers"])
    untraced = _traced_wall(workload, reference)
    layers["trace.untraced_s"] = untraced
    layers["trace.overhead"] = _traced_wall(workload, first) / untraced
    w1 = w2 = speedup = 0.0
    if workload == "sweep":
        by = reference["by_workers"]
        w1 = statistics.median(by["1"])
        if "2" in by:  # with one CPU no 2-worker sweep runs; both stay 0
            w2 = statistics.median(by["2"])
            speedup = w1 / w2
    layers["iwasawa.sweep.w1_s"] = w1
    layers["iwasawa.sweep.w2_s"] = w2
    layers["iwasawa.sweep.pool_speedup"] = speedup
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS}
    info = {"families": first["families"], "trace_file": trace_file,
            "failed_share": failed / attempted,
            "distinct_call_sites": len(first["call_counts"]),
            "traced_passes_shared_cpus": shared}
    return metrics, attempted, failed, errors, info


def run_workload(root, workload, seed, seconds, trace):
    runner = Runner(root, time.monotonic() + RUN_BUDGET_S)
    if trace:
        measured = per_layer(runner, workload, seed)
    else:
        measured = end_to_end(runner, workload, seed, seconds)
    metrics, attempted, failed, errors, info = measured
    print("workload %s  seed %d  trace %d" % (workload, seed, trace))
    for name, (value, unit) in metrics.items():
        print("  %-44s %16.6f %s" % (name, value, unit))
    print("  %-44s %16.6f share" % ("failed_share", info.pop("failed_share")))
    for err in errors:
        print("  FAILED: %s" % err)
    print("info " + json.dumps(info, sort_keys=True))
    print("env " + json.dumps(environment(root, seed), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hslab" / "__init__.py").is_file():
        print("error: no hslab sources under %s/src" % root, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds,
                                         args.trace)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s:%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
