"""Benchmark for bruhatchains, timed from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_a6 --seed 1 --seconds 10 --trace 0

Each workload is one caller in a closed loop: the next call into the
package starts when the previous one has returned, in one process and one
thread.  Whole passes of the workload repeat until ``--seconds`` have
passed (at least one pass), and every result of every pass is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then traced passes that record a span (name, start, end, parent)
around each call into a package layer, then the kernel and stage probes,
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it, and a file under ``.perfbench/``, record the
environment and every sample count; traced runs also write their spans
there.  See ``perfbench/README.md`` for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Stage metrics are summed span durations; a layer a workload bypasses
# reads 0.  Counts come from the pipelines and repeat exactly per seed.
STAGE_SPANS = [
    "enumeration.build_interchange_dag", "enumeration.build_poset",
    "search.longest_chain", "search.maximal_chain_spectrum",
    "search.monotonicity_check", "search.tight_chain_search",
    "order.secondary_bruhat_leq", "order.bruhat_verdict",
] + [f"chains.{stage}_n{n}"
     for n in (61, 100)
     for stage in ("build_chain", "chain_to_json", "chain_from_json",
                   "verify_chain")]
COUNTS = [
    "enumeration.members", "enumeration.arcs", "search.pairs_checked",
    "search.tight_explored", "search.tight_found", "order.queries",
    "order.queries_leq", "chains.steps",
]
KERNELS = ["inversion_count", "cumulative_sums", "find_interchanges",
           "apply_interchange", "interchange_increment", "canonical_key",
           "hash"]
PER_LAYER = {
    **{f"matrices.{k}_us": "us" for k in KERNELS},
    "enumeration.enumerate_class_s": "s",
    **{f"{name}_s": "s" for name in STAGE_SPANS},
    **{name: "count" for name in COUNTS},
    "order.query_p50_ms": "ms",
    "order.query_p99_ms": "ms",
    "trace.overhead_s": "s",
}
QUERY_SPAN = "order.secondary_bruhat_leq"


class Checker:
    """Counts checks attempted and failed; a raised exception is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def check(self, name: str, got, expected) -> None:
        self.attempted += 1
        if got != expected:
            self._fail({"check": name, "got": repr(got),
                        "expected": repr(expected)})

    def error(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail({"check": name, "error": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__))})

    def _fail(self, record: dict) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(record)


class NullTracer:
    """Untraced: a layer call is a plain call."""

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer(NullTracer):
    """Spans as (name, start, end, parent index), kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._parent = None

    def call(self, name, fn, *args):
        parent = self._parent
        index = len(self.spans)
        self.spans.append(None)
        self._parent = index
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (name, start, perf_counter(), parent)
            self._parent = parent


def load_package():
    """Import bruhatchains from this checkout's ``src`` and nowhere else."""
    if not (SRC / "bruhatchains" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'bruhatchains'}")
    sys.path.insert(0, str(SRC))
    import bruhatchains

    if SRC not in Path(bruhatchains.__file__).resolve().parents:
        sys.exit(f"perfbench: bruhatchains imported from {bruhatchains.__file__}")
    return bruhatchains


def time_setup(args) -> float:
    """Median time for a fresh interpreter to import the package and make
    this workload's seeded inputs."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(command, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_passes(pipeline, bc, inputs, chk, seconds: float, tracer_cls):
    """Whole passes until ``seconds`` have passed.  Returns the wall time,
    counts and tracer of each pass, and the last pass's artifact."""
    passes = []
    artifact = None
    began = perf_counter()
    while True:
        tr = tracer_cls()
        start = perf_counter()
        try:
            counts, artifact = tr.call("pass", pipeline, bc, inputs, tr, chk)
        except Exception as exc:  # reported as a failed check, not raised
            chk.error("pass", exc)
            break
        passes.append((perf_counter() - start, counts, tr))
        if passes[0][1] != counts:
            chk.check("counts_repeat", counts, passes[0][1])
        if perf_counter() - began >= seconds:
            break
    return passes, artifact


def stage_metrics(tracers: list[Tracer]) -> dict:
    """Per-pass stage sums and query percentiles, medians over passes."""
    per_pass = []
    for tr in tracers:
        sums = dict.fromkeys(STAGE_SPANS, 0.0)
        queries = []
        for name, start, end, _ in tr.spans:
            if name in sums:
                sums[name] += end - start
            if name == QUERY_SPAN:
                queries.append((end - start) * 1e3)
        row = {f"{name}_s": total for name, total in sums.items()}
        if len(queries) >= 2:
            cuts = statistics.quantiles(queries, n=100)
            row["order.query_p50_ms"] = cuts[49]
            row["order.query_p99_ms"] = cuts[98]
        per_pass.append(row)
    return {key: statistics.median(row.get(key, 0.0) for row in per_pass)
            for key in per_pass[0]}


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES")
        * os.sysconf("SC_PAGE_SIZE") // 1024,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PIPELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bc = load_package()
    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, bc)
        return 0

    values: dict = {}
    if not args.trace:
        values["setup_s"] = time_setup(args)
    inputs = workloads.make_inputs(args.workload, args.seed, bc)
    pipeline = workloads.PIPELINES[args.workload]
    chk = Checker()
    untraced, artifact = run_passes(pipeline, bc, inputs, chk, args.seconds,
                                    NullTracer)
    walls = [wall for wall, _, _ in untraced]
    samples = {"passes_untraced": len(walls)}
    spans = []
    if walls:
        values["wall_s"] = statistics.median(walls)
        values.update(untraced[0][1])
    values["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace and walls:
        del untraced, artifact
        traced, artifact = run_passes(pipeline, bc, inputs, chk, args.seconds,
                                      Tracer)
        samples["passes_traced"] = len(traced)
        if traced:
            values.update(stage_metrics([tr for _, _, tr in traced]))
            values["trace.overhead_s"] = statistics.median(
                wall for wall, _, _ in traced) - values["wall_s"]
            spans = traced[-1][2].spans
            probed, counts = workloads.probes(args.workload, inputs, artifact,
                                              args.seed, bc, chk)
            values.update(probed)
            samples.update(counts)
    if "order.queries" in values:
        samples["query_latency"] = values["order.queries"]

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "env": environment(args),
        "samples": samples,
        "fail_ratio": result["failed"] / result["attempted"],
        "failures": chk.failures,
        "walls_s": walls,
        "values": values,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps([index, name, start, end, parent]) + "\n")
    print(json.dumps({"env": record["env"], "samples": samples,
                      "fail_ratio": record["fail_ratio"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
