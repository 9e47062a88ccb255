"""fibquasi benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy. The workloads and their
known answers are in ``workloads.py`` and ``expected.json``.

--trace 0 times the workload with no tracing. Passes over the
operations repeat while the next one is expected to end within
``--seconds``; there is always at least one. Between operations, at most
every half second, a fixed reference loop is timed (`Reference`), and
times are reported in units of its median ("ref"). The end-to-end
metrics are ``setup_s`` (median wall time of fresh processes that import
the package and build the inputs, in seconds), ``wall_ref`` (median time
of one pass), ``query_p50_ref``/``query_p90_ref`` (median and 90th
percentile over the operations of a pass, each operation taken at its
median latency over the passes) and ``peak_rss_mb`` (``ru_maxrss`` of
this process after the first pass). Raw seconds are printed on a
comment line for people.

--trace 1 runs an untraced pass and a traced pass, alternating operation
by operation, then a second traced pass. It reports the per-layer
metrics of the first traced pass, the tracing overhead (traced minus
untraced pass time) and the span count, and checks that traced results
equal untraced ones and that every count is the same in both traced
passes. The spans of the first traced pass are written to
``perfbench/out/<workload>.{json,bin}``.

An operation fails when it raises, exits with an unexpected code or
gives a result other than its known answer; failures are counted in
``failed`` and make ``correct`` false. Everything except the final
line on stdout is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
REFERENCE_EVERY_S = 0.5
REFERENCE_WORD = "".join(random.Random(0).choice("ab") for _ in range(60))

# Per-layer metrics. LAYER_SPANS maps a metric prefix to the function
# whose spans give its ".calls" and ".self_s"; SELF_ONLY gives ".self_s"
# alone. The other per-layer metrics are derived in `layer_metrics`.
LAYER_SPANS = {
    "engine.is_seed": "engine.is_seed",
    "engine.is_seed_fast": "engine.is_seed_fast",
    "engine.is_circular_cover": "engine.is_circular_cover",
    "engine.distinct_factors": "engine.distinct_factors",
    "engine.covers_of": "engine.covers_of",
    "engine.seeds_of": "engine.seeds_of",
    "engine.circular_covers_of": "engine.circular_covers_of",
    "words.occurrences": "words.occurrences",
    "words.is_cover": "words.is_cover",
    "fib.fib_word": "fib.fib_word",
    "closed_form.materialize": "closed_form.FactorForm.materialize",
}
SELF_ONLY = {
    "closed_form._build": "closed_form._build",
    "verify.check_category": "verify.check_category",
    "verify.cover_chain": "verify._battery_cover_chain",
    "verify.diagnose": "verify._diagnose",
    "cli.main": "cli.main",
}
ENUMERATORS = ("enum_borders", "enum_covers", "enum_left_seeds",
               "enum_right_seeds", "enum_seeds", "enum_circular_covers")
RESULT_HOOKS = {
    "engine.distinct_factors": ("distinct_factor_items", len),
    "engine.is_seed_fast": ("seeds_found", int),
    "closed_form._build": ("catalog_words", lambda result: len(result.words)),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs, exit "
                             "(what setup_s times in a fresh process)")
    return parser.parse_args(argv)


def import_package():
    """Import fibquasi from this checkout's src/ and nowhere else."""
    if not (SRC / "fibquasi" / "__init__.py").is_file():
        raise SystemExit(f"error: no fibquasi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fibquasi
    if Path(fibquasi.__file__).resolve().parent != SRC / "fibquasi":
        raise SystemExit(f"error: imported fibquasi from {fibquasi.__file__}")
    import workloads
    return fibquasi, workloads


def git_revision() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def measure_setup(args) -> float:
    """Median wall time of fresh processes that do only the set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("error: set-up probe failed: "
                             + proc.stderr.decode(errors="replace").strip())
    return statistics.median(times)


class Reference:
    """Times of a fixed pure-Python loop, sampled between operations.

    The host this benchmark was built on (2 vCPUs of a shared machine)
    ran the same pass up to twice as slowly from one minute to the next,
    and this loop, which mixes interpreter arithmetic with small-object
    allocation like the package does, slowed with it. Dividing by its
    median time over the run cancels most of that drift; the loop is not
    part of the package, so a change to the package does not move it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    @staticmethod
    def loop() -> int:
        total = 0
        for i in range(150_000):  # interpreter arithmetic
            total += i * i % 7
        word = REFERENCE_WORD
        for _ in range(35):  # slices, tuples, a dict, a sort and a join
            items = [(word[i:j], i, j) for i in range(len(word))
                     for j in range(i + 1, min(len(word), i + 12))]
            seen: dict[str, int] = {}
            for factor, i, j in items:
                seen[factor] = seen.get(factor, 0) + j - i
            total += len(sorted(seen, key=lambda w: (len(w), w)))
            total += len(",".join(factor for factor, _, _ in items[:500]))
        return total

    def sample_if_due(self) -> None:
        now = time.perf_counter()
        if now - self._last < REFERENCE_EVERY_S:
            return
        self.loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - now)

    @property
    def unit_s(self) -> float:
        return statistics.median(self.samples)


class Pass:
    """Per-operation latency, digests and failures, and captured stdout
    size, of one pass over a workload's operations."""

    def __init__(self, workload, verdicts: dict):
        self.workload = workload
        self.verdicts = verdicts
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.stdout_bytes = 0

    @classmethod
    def over(cls, workload, verdicts: dict, tracer=None,
             reference: Reference | None = None) -> "Pass":
        run = cls(workload, verdicts)
        for index, op in enumerate(workload.ops):
            if reference is not None:
                reference.sample_if_due()
            run.step(index, op, tracer)
        return run

    def step(self, index: int, op, tracer=None) -> None:
        """Run, time and check one operation."""
        workload = self.workload
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw = workload.call(op)
        except Exception as exc:  # an operation that raises has failed
            raw = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        self.latencies.append(t1 - t0)
        if isinstance(raw, Exception):
            self.digests.append(f"raised {type(raw).__name__}")
            self.failures.append(f"{workload.label(op)}: raised {raw!r}")
            return
        self.stdout_bytes += workload.stdout_bytes(raw)
        digest, evidence = workload.reduce(op, raw)
        del raw
        self.digests.append(digest)
        # A result already judged (same operation, same digest) keeps its
        # verdict; the exhaustive checks then run once per run.
        key = (index, digest)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = workload.check(index, op, digest, evidence)
            except (KeyError, TypeError, ValueError) as exc:
                self.verdicts[key] = f"result has an unexpected shape: {exc!r}"
        if self.verdicts[key] is not None:
            self.failures.append(f"{workload.label(op)}: {self.verdicts[key]}")

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def agree_with(self, first: "Pass") -> None:
        """Count every result that differs from the first pass's result
        for the same operation as a failure."""
        for op, mine, theirs in zip(self.workload.ops, self.digests,
                                    first.digests):
            if mine != theirs:
                self.failures.append(
                    f"{self.workload.label(op)}: result differs from the "
                    f"first pass")


def layer_metrics(tracer, traced: Pass, untraced: Pass) -> dict:
    metrics = {}
    for metric, span in LAYER_SPANS.items():
        calls, self_s = tracer.stats(span)
        metrics[f"{metric}.calls"] = (calls, "count")
        metrics[f"{metric}.self_s"] = (self_s, "s")
    for metric, span in SELF_ONLY.items():
        metrics[f"{metric}.self_s"] = (tracer.stats(span)[1], "s")
    for name in ENUMERATORS:
        metrics[f"closed_form.{name}.self_s"] = (
            tracer.stats(f"closed_form.{name}")[1], "s")
    counters = tracer.counters
    metrics["engine.distinct_factors.items"] = (
        counters["distinct_factor_items"], "count")
    fast_calls = tracer.stats("engine.is_seed_fast")[0]
    metrics["engine.seed_yield"] = (
        counters["seeds_found"] / fast_calls if fast_calls else 0.0, "ratio")
    metrics["fib.materialization_limit.calls"] = (
        tracer.stats("fib.materialization_limit")[0], "count")
    materialized = tracer.stats("closed_form.FactorForm.materialize")[0]
    metrics["closed_form.forms_per_word"] = (
        materialized / counters["catalog_words"]
        if counters["catalog_words"] else 0.0, "ratio")
    metrics["cli.stdout_bytes"] = (traced.stdout_bytes, "bytes")
    metrics["bench.trace_overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics["bench.spans"] = (tracer.span_count, "count")
    return metrics


def counts_of(tracer) -> dict:
    # stdout size is left out: the verify report embeds timings, so its
    # length varies from pass to pass.
    return {**tracer.call_counts(), **tracer.counters}


def timed_run(args, workload, verdicts: dict):
    """Untraced passes until the time is up; the end-to-end metrics."""
    setup_s = measure_setup(args)
    passes, reference = [], Reference()
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(Pass.over(workload, verdicts, reference=reference))
        if len(passes) == 1:
            # Taken after one pass, so that it does not depend on how
            # many passes fit in the time.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
        pass_time = statistics.mean(p.wall_s for p in passes)
        if time.perf_counter() + pass_time > deadline:
            break
    for later in passes[1:]:
        later.agree_with(passes[0])
    unit = reference.unit_s
    wall = statistics.median(p.wall_s for p in passes)
    # One latency per operation, its median over the passes; the
    # percentiles are taken across the operations of a pass.
    latencies = [statistics.median(times)
                 for times in zip(*(p.latencies for p in passes))]
    p50 = statistics.median(latencies)
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    print(f"# seconds: wall {wall:.6g}, query p50 {p50:.6g}, query p90 "
          f"{p90:.6g}; reference unit {unit:.6g} "
          f"({len(reference.samples)} samples); {len(latencies)} "
          f"operations x {len(passes)} passes")
    return passes, {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall / unit, "ref"),
        "query_p50_ref": (p50 / unit, "ref"),
        "query_p90_ref": (p90 / unit, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(args, workload, verdicts: dict, meta: dict):
    """An untraced pass, and a traced one that alternates with it
    operation by operation, so that drift in host speed falls on both
    alike and their difference is the tracing overhead; then a second
    traced pass whose counts must equal the first's. Returns the passes,
    the per-layer metrics and any failed self-check."""
    import tracer as tracing
    untraced, first = Pass(workload, verdicts), Pass(workload, verdicts)
    tracer = tracing.Tracer(RESULT_HOOKS)
    for index, op in enumerate(workload.ops):
        untraced.step(index, op)
        first.step(index, op, tracer)
    metrics = layer_metrics(tracer, first, untraced)
    tracer.write(OUT / args.workload, meta)
    counts = counts_of(tracer)
    tracer = tracing.Tracer(RESULT_HOOKS)
    second = Pass.over(workload, verdicts, tracer)
    first.agree_with(untraced)
    second.agree_with(untraced)
    problems = []
    if counts != counts_of(tracer):
        changed = sorted(k for k, v in counts.items()
                         if counts_of(tracer).get(k) != v)
        problems.append(f"counts differ between traced passes: {changed}")
    return [untraced, first, second], metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    nmax_was_set = os.environ.pop("FIBQUASI_NMAX", None) is not None
    fibquasi, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    meta = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "operations_per_pass": len(workload.ops),
        "git_revision": git_revision(),
        "fibquasi_version": fibquasi.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "fibquasi_nmax_was_set": nmax_was_set,
        "trace": args.trace,
    }
    print("# meta " + json.dumps(meta))
    verdicts: dict = {}
    if args.trace:
        passes, metrics, problems = traced_run(args, workload, verdicts, meta)
    else:
        passes, metrics = timed_run(args, workload, verdicts)
        problems = []

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for failure in dict.fromkeys(f for p in passes for f in p.failures):
        print(f"# FAIL {failure}")
    for problem in problems:
        print(f"# FAIL {problem}")
    print(f"# passes {len(passes)}, operations attempted {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
