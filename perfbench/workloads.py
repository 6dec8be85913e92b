"""Seeded inputs, timed loops and output checks for the hslab benchmark.

Run as a child process of ``run.py`` with ``src`` on ``sys.path``:

    python3 perfbench/workloads.py --workload verify-flat --seed 1 \
        --seconds 20 --pass untraced

It prints one JSON object as its last line of standard output.  Every pass
runs in a fresh interpreter, so no cache inside hslab survives from one pass
into the next.

Passes:
  untraced   time-bounded loop; gives the end-to-end metrics
  reference  the fixed trace-mode work, untraced (the overhead baseline)
  traced     the same fixed work under the tracer; gives per-layer figures
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedClock  # noqa: E402

GOLDEN = HERE / "golden.json"

# -- input pools ------------------------------------------------------------
#
# The verify workloads draw families from fixed pools whose report digests
# were recorded once (record_golden.py), so every report a run produces can
# be checked exactly.  The run's seed picks which pool families run, in which
# order, and (verify-flat) which get a Picard twist.  Pools are large enough
# that a run samples without repeats even at several times today's speed.
#
# A deformed family costs from 0.1 to 0.8 s, so a 20-second run that drew
# them by chance would move its median by several per cent from seed to
# seed.  record_golden.py therefore also records each deformed family's cost
# decile, and a run draws the deciles in equal shares.

BOX = 3
FLAT_POOL_SIZE = 2000
DEFORMED_POOL_SIZE = 400
TAU_MENU = (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 4), Fraction(-1, 4))
PICARD_SHARE = 0.5

# Fixed work of a trace-mode pass; counts repeat exactly only for fixed work.
TRACE_FAMILIES = {"verify-flat": 30, "verify-deformed": 5}

SWEEP_MAX = 3

TRIPLES = [(m, n, p) for m in range(-BOX, BOX + 1) for n in range(-BOX, BOX + 1)
           for p in range(-BOX, BOX + 1) if (m, n, p) != (0, 0, 0)]


def _norm(t):
    return sum(x * x for x in t)


def _draw_pairs(rng, count):
    seen = set()
    out = []
    while len(out) < count:
        pair = (rng.choice(TRIPLES), rng.choice(TRIPLES))
        if _norm(pair[0]) == _norm(pair[1]) or pair in seen:
            continue
        seen.add(pair)
        out.append(pair)
    return out


def flat_pool():
    """(triple0, triple1, tau) entries with tau = 0 and unequal norms."""
    rng = random.Random("perfbench/verify-flat/pool")
    zero = (Fraction(0),) * 4
    return [(t0, t1, zero) for t0, t1 in _draw_pairs(rng, FLAT_POOL_SIZE)]


def deformed_pool():
    """Entries with a tau from the acceptance tests' menu, not all zero."""
    rng = random.Random("perfbench/verify-deformed/pool")
    out = []
    for t0, t1 in _draw_pairs(rng, DEFORMED_POOL_SIZE):
        tau = (0, 0, 0, 0)
        while not any(tau):
            tau = tuple(rng.choice(TAU_MENU) if rng.random() < 0.7
                        else Fraction(0) for _ in range(4))
        out.append((t0, t1, tau))
    return out


POOLS = {"verify-flat": flat_pool, "verify-deformed": deformed_pool}


def entry_key(entry):
    t0, t1, tau = entry
    return "%s|%s|%s" % (",".join(map(str, t0)), ",".join(map(str, t1)),
                         ",".join(str(t) for t in tau))


def _picard(rng):
    """Four small complex rationals for a flat Picard twist."""
    vals = []
    for _ in range(4):
        vals.append((Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
    return tuple(vals)


def draw(workload, seed, cost_class=None):
    """Endless seeded stream of (entry, picard-or-None) for a verify workload.

    Each pass over the pool is a fresh seeded permutation, so a run repeats
    no family until it has used the whole pool.  With `cost_class` (entry
    key -> class) the permutation keeps every prefix at the pool's share of
    each class, so every run verifies the same mix of cheap and dear
    families.
    """
    pool = POOLS[workload]()
    rng = random.Random("%s/%d" % (workload, seed))
    classes = {}
    for entry in pool:
        key = (cost_class or {}).get(entry_key(entry), 0)
        classes.setdefault(key, []).append(entry)
    keys = sorted(classes)
    while True:
        queues = {k: rng.sample(classes[k], len(classes[k])) for k in keys}
        taken = dict.fromkeys(keys, 0)
        for _ in range(len(pool)):
            key = min((k for k in keys if queues[k]),
                      key=lambda k: (taken[k] + 1) / len(classes[k]))
            entry = queues[key].pop()
            taken[key] += 1
            picard = None
            if workload == "verify-flat" and rng.random() < PICARD_SHARE:
                picard = _picard(rng)
            yield entry, picard


def family_config(entry, picard):
    from hslab import (FamilyConfig, LineBundleTriple, PicardPoint, Scalar,
                       TauDeformation)
    t0, t1, tau = entry
    kwargs = {"tau": TauDeformation(*tau)}
    if picard is not None:
        sc = [Scalar.of(re, im) for re, im in picard]
        kwargs["picard"] = PicardPoint(a0=(sc[0], sc[1]), a1=(sc[2], sc[3]))
    return FamilyConfig(LineBundleTriple(*t0, role="V0"),
                        LineBundleTriple(*t1, role="V1"), **kwargs)


def report_digest(report):
    text = json.dumps(report.comparable(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# -- verify workloads -------------------------------------------------------

class Outcome:
    """Counts of attempted and failed operations, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


class Stopwatch:
    """Times operations on the wall clock and on a second clock.

    The second clock is a ``speed.SpeedClock`` in untraced passes and the
    wall clock otherwise.
    """

    def __init__(self, clock):
        self.clock = clock
        self.times = []
        self.raw_times = []

    def start(self):
        return time.perf_counter(), self.clock()

    def stop(self, started):
        raw, norm = started
        self.raw_times.append(time.perf_counter() - raw)
        self.times.append(self.clock() - norm)


def verify_one(hslab, entry, picard, golden, outcome, watch):
    """Config to verdict for one family, timed by `watch`; checks outputs."""
    cfg = family_config(entry, picard)
    key = entry_key(entry)
    outcome.attempted += 1
    started = watch.start()
    try:
        report = hslab.verify_family(hslab.make_family(cfg))
    except Exception as exc:  # every exception is a failed operation
        watch.stop(started)
        outcome.fail("%s: %s: %s" % (key, type(exc).__name__, exc))
        return
    watch.stop(started)
    if not (report.verdicts["hs_solution"]
            and report.verdicts["hermitian_einstein"]):
        outcome.fail("%s: not a Hermitian-Einstein solution" % key)
    elif report_digest(report) != golden.get(key):
        outcome.fail("%s: report differs from the recorded digest" % key)


def run_verify(workload, seed, seconds, count, outcome, clock):
    """Time families until `seconds` pass, or exactly `count` if given."""
    import hslab
    recorded = load_golden()
    golden = recorded[workload]
    stream = draw(workload, seed, recorded["cost_class"].get(workload))
    if count is None:
        # one untimed family first: imports and first-call set-up finish
        verify_one(hslab, *next(stream), golden, outcome, Stopwatch(clock))
    watch = Stopwatch(clock)
    loop = watch.start()
    while True:
        if count is None and time.perf_counter() - loop[0] >= seconds:
            break
        if count is not None and len(watch.times) >= count:
            break
        verify_one(hslab, *next(stream), golden, outcome, watch)
    whole = Stopwatch(clock)
    whole.stop(loop)
    return {"times": watch.times, "raw_times": watch.raw_times,
            "wall_s": whole.times[0], "raw_wall_s": whole.raw_times[0],
            "families": len(watch.times)}


# -- sweep workload ---------------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0))


def sweep_worker_counts(cpus):
    """Worker counts of one sweep round: 1, then 2 if there are two CPUs."""
    return (1,) if cpus < 2 else (1, 2)


def run_one_sweep(workers, out_dir, golden_sha, outcome, reference, watch):
    """One in-process `hslab sweep --max 3`; returns (records, catalog)."""
    from hslab.cli import main
    path = out_dir / ("catalog-w%d-%d.jsonl" % (workers, os.getpid()))
    outcome.attempted += 1
    started = watch.start()
    try:
        code = main(["sweep", "--max", str(SWEEP_MAX), "--threads",
                     str(workers), "--out", str(path)])
    except Exception as exc:  # every exception is a failed operation
        watch.stop(started)
        outcome.fail("sweep w=%d: %s: %s" % (workers, type(exc).__name__, exc))
        return 0, None
    watch.stop(started)
    try:
        data = path.read_bytes()
    except OSError as exc:
        outcome.fail("sweep w=%d: no catalog: %s" % (workers, exc))
        return 0, None
    finally:
        path.unlink(missing_ok=True)
    records = data.count(b"\n")
    if code != 0:
        outcome.fail("sweep w=%d: exit code %d" % (workers, code))
    elif hashlib.sha256(data).hexdigest() != golden_sha:
        outcome.fail("sweep w=%d: catalog sha256 differs from the recorded one"
                     % workers)
    elif reference is not None and data != reference:
        outcome.fail("sweep w=%d: catalog differs from the 1-worker catalog"
                     % workers)
    else:
        for line in data.splitlines():
            rec = json.loads(line)
            dot = sum(a * b for a, b in zip(rec["params"]["triple0"],
                                            rec["params"]["triple1"]))
            if rec["harmonic"] != (dot == 0):
                outcome.fail("sweep w=%d: harmonic verdict of %s is not "
                             "triple0.triple1 == 0" % (workers, rec["params"]))
                break
    return records, data


def run_sweep(seconds, worker_counts, outcome, out_dir, clock):
    """Sweeps in rounds of `worker_counts`, in that order, until time is up.

    A new round starts only if the last one would still fit in `seconds`;
    the first round always runs.  With `seconds` = 0 exactly one round runs.
    The order is fixed: the 1-worker catalog is the reference for the next,
    and peak memory depends on how large the process is when its pool forks.
    """
    # HS_LAB_THREADS overrides --threads; the benchmark sets the count itself
    os.environ.pop("HS_LAB_THREADS", None)
    import hslab.cli  # noqa: F401  (the import stays out of the timed sweeps)
    golden_sha = load_golden()["sweep"]["sha256"]
    out_dir.mkdir(parents=True, exist_ok=True)
    watches = {w: Stopwatch(clock) for w in worker_counts}
    records = 0
    reference = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for w in worker_counts:
            n, data = run_one_sweep(w, out_dir, golden_sha, outcome,
                                    reference if w != 1 else None, watches[w])
            if w == 1 and data is not None:
                reference = data
            records += n
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    times = [t for watch in watches.values() for t in watch.times]
    raw = [t for watch in watches.values() for t in watch.raw_times]
    return {"times": times, "raw_times": raw, "wall_s": sum(times),
            "raw_wall_s": sum(raw), "families": records,
            "by_workers": {str(w): watch.times
                           for w, watch in watches.items()},
            "raw_by_workers": {str(w): watch.raw_times
                               for w, watch in watches.items()}}


# -- passes -----------------------------------------------------------------

def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(workload, seed, seconds, mode, trace_path):
    outcome = Outcome()
    out_dir = Path.cwd() / ".perfbench" / "work"
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
    fixed = mode != "untraced"
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        clock = time.perf_counter
        if not fixed:
            clock = stack.enter_context(SpeedClock()).now
        if workload == "sweep":
            counts = ((1,) if mode == "traced"
                      else sweep_worker_counts(nproc()))
            result = run_sweep(0 if fixed else seconds, counts, outcome,
                               out_dir, clock)
        else:
            result = run_verify(workload, seed, seconds,
                                TRACE_FAMILIES[workload] if fixed else None,
                                outcome, clock)
    result.update({"attempted": outcome.attempted, "failed": outcome.failed,
                   "errors": outcome.errors, "peak_rss_mb": peak_rss_mb()})
    if tracer is not None:
        result["layers"] = layer_figures(tracer, workload, result)
        result["call_counts"] = tracer.call_counts()
        if trace_path:
            Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    return result


# -- per-layer figures from a traced pass ------------------------------------

# metric prefix in BENCHMARK.json -> the recorded names whose figures it sums
LAYER_SOURCES = {
    "scalars.mul": ("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
    "scalars.add": ("scalars.Scalar.__add__", "scalars.Scalar.__radd__"),
    "scalars.inverse": ("scalars.Scalar.inverse",),
    "cealg.wedge": ("cealg.InvariantForm.wedge",),
    "cealg.d": ("cealg.InvariantForm.d",),
    "cealg.contract": ("cealg.InvariantForm.contract",),
    "hermitian.HermitianStructure": ("hermitian.HermitianStructure.__init__",),
    "hermitian.levi_civita": ("hermitian.HermitianStructure.levi_civita",),
    "hermitian.bismut": ("hermitian.HermitianStructure.bismut",),
    "hermitian.brackets": ("hermitian.HermitianStructure.brackets",),
    "hermitian.star": ("hermitian.HermitianStructure.star",),
    "hermitian.matrix_inverse": ("hermitian.matrix_inverse",),
    "algebroid.connection_DG": ("algebroid.connection_DG",),
    "algebroid.QFrame": ("algebroid.QFrame.__init__",),
    "algebroid.curvature": ("algebroid.curvature",),
    "algebroid.he_residual_G": ("algebroid.he_residual_G",),
    "algebroid.transport_dolbeault": ("algebroid.transport_dolbeault",),
    "algebroid.extension_class_gamma": ("algebroid.extension_class_gamma",),
    "algebroid.subbundle_report": ("algebroid.subbundle_report",),
    "harmonic.moment_residuals": ("harmonic.moment_residuals",),
    "harmonic.nabla_H_star": ("harmonic.nabla_H_star",),
    "harmonic.CompatibleMetricH": ("harmonic.CompatibleMetricH.__init__",),
    "harmonic.adjoint": ("harmonic.CompatibleMetricH.adjoint",),
    "harmonic.higgs_equation_residuals": ("harmonic.higgs_equation_residuals",),
    "harmonic.harmonic_criteria": ("harmonic.harmonic_criteria",),
    "bundles.hs_residuals": ("bundles.hs_residuals",),
    "bundles.alpha_solve": ("bundles.alpha_solve",),
    "bundles.degree_and_slope": ("bundles.degree_and_slope",),
    "bundles.curvature_from_triple": ("bundles.curvature_from_triple",),
    "iwasawa.make_family": ("iwasawa.make_family",),
    "iwasawa.verify_family": ("iwasawa.verify_family",),
    "cli.cmd_sweep": ("cli.cmd_sweep",),
}


def layer_figures(tracer, workload, result):
    out = {}
    for name, sources in LAYER_SOURCES.items():
        out[name + ".calls"] = sum(tracer.calls(s) for s in sources)
        out[name + ".self_s"] = sum(tracer.self_s(s) for s in sources)
    families = result["families"]
    out["trace.families"] = families
    for name in ("algebroid.connection_DG", "hermitian.levi_civita"):
        out[name + ".calls_per_family"] = (out[name + ".calls"] / families
                                           if families else 0.0)
    engine_calls, engine_s = 0, 0.0
    sweep_s = 0.0
    if workload == "sweep":
        engine_calls, engine_s = tracer.via_site("iwasawa",
                                                 "harmonic.harmonic_residual")
        sweep_s = tracer.total_s("iwasawa.sweep")
    out["iwasawa.sweep.base_engine.calls"] = engine_calls
    out["iwasawa.sweep.base_engine_s"] = engine_s
    out["iwasawa.sweep.rest_s"] = sweep_s - engine_s
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-flat", "verify-deformed", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pass", dest="mode", required=True,
                    choices=("untraced", "reference", "traced"))
    ap.add_argument("--trace-out", help="write the tracer's spans here")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.seconds, args.mode,
                      args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
