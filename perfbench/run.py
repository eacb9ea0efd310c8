"""finsetrep benchmark: closed loop, one client, one job at a time.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

Before every timed pass a run sets the workload up several times (fresh
import of the package from ``src/``, inputs from ``--seed``, known answers);
the pass uses the last set-up, and the median over all set-ups of the run
is ``setup_s``.  Whole passes run until they add up to ``--seconds``.
Every job's verdict is checked against its known answer and its text
output is hashed; a pass whose hashes differ from the first pass's fails
those jobs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one with every layer wrapped (see ``tracer.py``), requires
equal verdicts and hashes from both, and prints the per-layer metrics.
The last line of stdout is one JSON object; ``--all`` runs every workload
in its own interpreter, both ways, and prints all metrics by name and unit.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.machinery
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True      # the run writes no file, not even bytecode caches
SETUP_REPEATS = 5      # set-ups before each pass
LAYERS = ("catcore", "exactla", "repmod", "doldkan", "simples", "chars",
          "invariants", "arnold", "acceptance", "cli")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GATED_CRITERIA = workloads.INV_CRITERIA + workloads.CAT_CRITERIA


class _CodeCache:
    """Meta path finder for ``finsetrep`` that keeps each module's code
    object in memory.  The first import compiles the sources (or loads
    whatever bytecode cache the checkout has); later fresh imports execute
    the kept code, so their time does not depend on ``__pycache__``."""

    codes = {}

    class Loader(importlib.machinery.SourceFileLoader):
        def get_code(self, fullname):
            code = _CodeCache.codes.get(self.path)
            if code is None:
                code = _CodeCache.codes[self.path] = super().get_code(fullname)
            return code

    def find_spec(self, name, path=None, target=None):
        if name != "finsetrep" and not name.startswith("finsetrep."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path or [str(ROOT / "src")])
        if spec is not None:
            spec.loader = self.Loader(name, spec.origin)
        return spec


def fresh_import():
    """Import the package and all its layers, dropping any earlier import;
    returns the package."""
    for name in [n for n in sys.modules if n == "finsetrep" or n.startswith("finsetrep.")]:
        del sys.modules[name]
    package = importlib.import_module("finsetrep")
    for layer in LAYERS:
        importlib.import_module("finsetrep." + layer)
    return package


def run_pass(fs, ctx, jobs):
    """One timed pass: ``(wall_s, [(job, seconds, status, digest)])``."""
    basis = getattr(fs.invariants.invariants_basis, "__wrapped__", fs.invariants.invariants_basis)
    if hasattr(basis, "cache_clear"):
        basis.cache_clear()     # memory only: a new pass never sees an old module
    gc.collect()
    out = []
    clock = time.perf_counter
    start = clock()
    for name, job in jobs(fs, ctx):
        t0 = clock()
        try:
            status, text = job()
        except Exception:
            status, text = "error", traceback.format_exc()
            print("job %s raised:\n%s" % (name, text), file=sys.stderr)
        seconds = clock() - t0
        out.append((name, seconds, status, hashlib.sha256(text.encode()).hexdigest()))
    return clock() - start, out


def score(passes):
    """``(attempted, failed, missed)``; a job fails on a wrong verdict, an
    exception, or a hash that differs from the same job in the first pass."""
    first = {name: digest for name, _, _, digest in passes[0][1]}
    attempted = failed = missed = 0
    for _, jobs in passes:
        for name, _, status, digest in jobs:
            attempted += 1
            missed += status == workloads.MISSED
            if status not in (workloads.OK, workloads.MISSED) or first.get(name) != digest:
                failed += 1
                if first.get(name) != digest:
                    print("job %s: output differs between passes" % name, file=sys.stderr)
    if [n for n, *_ in passes[0][1]] != [n for n, *_ in passes[-1][1]]:
        failed += 1
    return attempted, failed, missed


def pass_digest(jobs):
    h = hashlib.sha256()
    for name, _, _, digest in jobs:
        h.update(("%s %s\n" % (name, digest)).encode())
    return h.hexdigest()


def quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile of positive ``values``:
    a mean of all the sorted values weighted by the Beta((n+1)q, (n+1)(1-q))
    probability of each rank interval.  Unlike one order statistic it does
    not jump when one noisy job near the cut trades places with its
    neighbour.  The mean is taken over logarithms, so the few jobs far above
    the cut, with weights near zero, pull it little."""
    logs = sorted(math.log(v) for v in values)
    n = len(logs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64          # midpoint rule inside each rank interval

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return math.exp(sum(w * v for w, v in zip(weights, logs)) / sum(weights))


def layer_metrics(tracer, untraced, traced_wall, untraced_wall):
    """Per-layer metrics from one traced pass (and criterion times from the
    untraced pass before it)."""
    spans, counts = tracer.spans, tracer.counts
    m = {}

    def span(prefix, name, calls=True):
        calls_n, _, self_s = spans.get(name, (0, 0.0, 0.0))
        if calls:
            m[prefix + ".calls"] = (calls_n, "count")
        m[prefix + ".self_s"] = (self_s, "s")

    for name in ("catcore.compose", "catcore.enumerate_hom", "catcore.lift", "catcore.factorize",
                 "exactla.matmul", "exactla.reduce"):
        span(name, name)
    m["catcore.enumerate_hom.morphisms"] = (counts["catcore.enumerate_hom.morphisms"], "count")
    m["exactla.matmul.mults"] = (counts["exactla.matmul.mults"], "count")
    m["exactla.reduce.entries"] = (counts["exactla.reduce.entries"], "count")
    for name in ("exactla.kernel", "exactla.solve", "exactla.parse_matrix", "exactla.format_matrix"):
        span(name, name, calls=False)

    for kind in ("columns", "act"):
        rule = [v for k, v in spans.items() if k.startswith("repmod.%s.rule." % kind)]
        m["repmod.%s.rule.calls" % kind] = (sum(v[0] for v in rule), "count")
        m["repmod.%s.rule.self_s" % kind] = (sum(v[2] for v in rule), "s")
        span("repmod.%s.elementary" % kind, "repmod.%s.elementary" % kind)
    span("repmod.permutation_action", "repmod.permutation_action")
    span("repmod.check_functoriality", "repmod.check_functoriality")
    certify = spans.get("repmod.check_functoriality", (0, 0.0, 0.0))
    pairs = counts["repmod.check_functoriality.pairs"]
    m["repmod.check_functoriality.pairs"] = (pairs, "count")
    m["repmod.check_functoriality.rejections"] = (counts["repmod.check_functoriality.rejections"], "count")
    m["repmod.check_functoriality.pairs_per_s"] = (pairs / certify[1] if certify[1] else 0.0, "1/s")
    span("repmod.read_module", "repmod.read_module")
    m["repmod.read_module.bytes"] = (counts["repmod.read_module.bytes"], "B")
    span("repmod.write_module", "repmod.write_module", calls=False)

    span("doldkan.conormalize", "doldkan.conormalize")
    for name in ("doldkan.realize", "doldkan.read_complex", "doldkan.write_complex"):
        span(name, name, calls=False)
    span("simples.make_simple", "simples.make_simple", calls=False)
    span("simples.descends_through_phi", "simples.descends_through_phi", calls=False)
    m["simples.descends_through_phi.pairs"] = (counts["simples.descends_through_phi.pairs"], "count")
    span("chars.character", "chars.character")
    span("chars.fit_character_polynomial", "chars.fit_character_polynomial", calls=False)
    span("invariants.invariants_basis", "invariants.invariants_basis")
    for name in ("invariants.barred_map", "invariants.monotonicity_check",
                 "invariants.replication_iso_check"):
        span(name, name, calls=False)
    span("arnold.arnold_module", "arnold.arnold_module")
    for layer in ("arnold", "simples", "doldkan"):
        m[layer + ".rule.self_s"] = (sum(spans.get("repmod.%s.rule.%s" % (kind, layer), (0, 0.0, 0.0))[2]
                                         for kind in ("columns", "act")), "s")
    # the criteria the gated workloads run are always reported; verify adds the rest
    times = {name: seconds for name, seconds, _, _ in untraced}
    for index in range(1, 11):
        if index in GATED_CRITERIA or "criterion_%d" % index in times:
            m["acceptance.criterion_%d_s" % index] = (times.get("criterion_%d" % index, 0.0), "s")
    span("cli.run", "cli.run")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def run_workload(args):
    setup, jobs = workloads.WORKLOADS[args.workload]
    fresh_import()      # compiles the sources, untimed
    setup_times = []

    def set_up():
        """Set the workload up ``SETUP_REPEATS`` times, timing each; the
        set-ups are spread over the run, so one burst of load on the
        machine does not move them all."""
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            fs = fresh_import()
            ctx = setup(fs, args.seed)
            setup_times.append(time.perf_counter() - start)
        return fs, ctx

    passes = [run_pass(*set_up(), jobs)]
    while not args.trace and sum(wall for wall, _ in passes) < args.seconds:
        passes.append(run_pass(*set_up(), jobs))
    if args.trace:
        tracer = Tracer()
        fs, ctx = set_up()
        with tracer:
            traced = run_pass(fs, ctx, jobs)
        passes.append(traced)
    attempted, failed, missed = score(passes)

    if args.trace:
        metrics = layer_metrics(tracer, passes[0][1], traced[0], passes[0][0])
    else:
        per_job = {}
        for _, jobs_ in passes:
            for name, seconds, _, _ in jobs_:
                per_job.setdefault(name, []).append(seconds * 1000)
        job_ms = [statistics.median(times) for times in per_job.values()]
        metrics = {
            "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "job_p50_ms": (quantile(job_ms, 0.5), "ms"),
            "job_p90_ms": (quantile(job_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    jobs_per_pass = len(passes[0][1])
    print("workload %s seed %d: %d passes of %d jobs, trace %d"
          % (args.workload, args.seed, len(passes), jobs_per_pass, args.trace))
    for name, (value, unit) in metrics.items():
        print("  %-44s %.6g %s" % (name, value, unit))
    print("  %-44s %.6g ratio (%d failed + %d missed of %d)"
          % ("wrong_verdict_ratio", (failed + missed) / attempted, failed, missed, attempted))
    print("  digest %s" % pass_digest(passes[0][1]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Every workload in a fresh interpreter, untraced then traced; the two
    runs of a workload must print the same digest."""
    ok = True
    for workload in workloads.WORKLOADS:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
            digests.append(next((ln.split()[1] for ln in lines if ln.strip().startswith("digest ")), None))
            ok = ok and result["correct"]
        if digests[0] != digests[1]:
            print("  %s: digests differ between the two runs" % workload)
            ok = False
    print("all workloads %s" % ("correct" if ok else "NOT correct"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args()
    if not (ROOT / "src" / "finsetrep" / "__init__.py").is_file():
        print("error: no finsetrep sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.meta_path.insert(0, _CodeCache())
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
