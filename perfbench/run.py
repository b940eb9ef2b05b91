"""Closed-loop benchmark of the brieskorn-ch command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ch_window --seed 3 --seconds 36 --trace 0

One client in one thread sends the next query only after the previous one
returns.  Each query is an in-process call to `brieskorn_ch.cli.main(argv)`
with stdout and stderr captured.  The query list (one "pass") comes from
the seed; the loop runs whole passes until `--seconds` have gone by, so
every query runs many times, spread over the run.

The 2-core machine this was tuned on runs 1.1x to 2.3x slower than its best
for stretches of seconds to minutes, whatever the clock (wall or CPU time),
and the same run read 25% apart half an hour later.  So every time is
measured on the wall clock and then put on the scale of one reference host:
a fixed pure-Python kernel is timed before and after each pass, and each
pass's times are multiplied by the reference kernel time over the kernel
time around it.  The program's own slowdowns (GC, state kept between calls,
slow queries) stay in the figures; the host's changes of speed largely
cancel.

--trace 0 prints the end-to-end metrics:
  throughput_qps   calls completed per scaled wall second of the timed loop,
                   which runs whole passes only
  latency_p50_ms   median over the queries of a pass of each query's median
                   scaled latency
  latency_tail_ms  the latency with 10 queries above it, the percentile
                   100 * (queries - 10) / queries (printed on stdout)
  ok_ratio         calls that returned the expected exit code and passed
                   the output checks, over calls attempted
  setup_s          median of several scaled set-ups: interpreter start and import
                   (a fresh interpreter), query generation, writing the
                   `sum` inputs with the tool itself, warm-up calls
  peak_rss_mb      peak resident memory of this process after the loop,
                   which holds each output only compressed
--trace 1 prints the per-layer metrics of BENCHMARK.json instead, from
pairs of whole passes, one untraced and one traced; trace.untraced_ms and
trace.traced_ms are the median wall times of the two kinds of pass, and
spans of the first traced pass are written to .perfbench/.

Outputs are checked by `oracle` after the loop: the first run of each query
must pass the checks and every later run must repeat it byte for byte.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_ABOVE = 10
SCALE_REPEATS = 3
# The fastest time of `kernel()` on the machine this was tuned on (2 vCPUs,
# x86_64, Python 3.11) while it ran at its best speed.
REFERENCE_KERNEL_S = 0.0053


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


def kernel() -> int:
    """Fixed pure-Python work that uses nothing of brieskorn_ch: dicts and gcds."""
    counts: dict[int, int] = {}
    for i in range(1, 20_000):
        counts[i % 977] = counts.get(i % 977, 0) + math.gcd(i, 360_360)
    return sum(counts.values())


def host_scale() -> float:
    """REFERENCE_KERNEL_S over the fastest of a few kernel runs now.

    A time multiplied by it reads as it would have on the reference
    machine at its best, so the host's changes of speed cancel out.
    """
    best = math.inf
    for _ in range(SCALE_REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return REFERENCE_KERNEL_S / best


def call(argv):
    """One CLI call: (exit code, stdout, stderr, exception text or None)."""
    from brieskorn_ch.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # a traceback is a failed query, not a crash
        return None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), None


def _digest(result) -> str:
    code, stdout, stderr, exc = result
    return hashlib.sha256(f"{code}\0{stdout}\0{stderr}\0{exc}".encode()).hexdigest()


class Loop:
    """Latencies and output digests of every run of every query."""

    def __init__(self, queries):
        self.queries = queries
        self.latencies: list[list[float]] = [[] for _ in queries]
        self.digests: list[str | None] = [None] * len(queries)
        self.first: list[tuple | None] = [None] * len(queries)
        self.differing = [0] * len(queries)  # runs whose output differs from the first
        self.pass_seconds: list[float] = []  # wall time of each whole pass
        self.scales: list[float] = []  # host_scale() before each pass and after the last

    def run(self, i, tracer=None) -> None:
        argv = self.queries[i].argv
        start = perf_counter()
        if tracer is None:
            result = call(argv)
        else:
            tracer.query = i
            span = tracer.open("cli.main")
            try:
                result = call(argv)
            finally:
                tracer.close(span)
        self.latencies[i].append(perf_counter() - start)
        digest = _digest(result)
        if self.digests[i] is None:
            code, stdout, stderr, exc = result
            self.digests[i] = digest
            self.first[i] = (code, zlib.compress(stdout.encode()), stderr, exc)
        elif digest != self.digests[i]:
            self.differing[i] += 1

    def run_pass(self, tracer=None) -> None:
        if not self.scales:
            self.scales.append(host_scale())
        start = perf_counter()
        gc.collect()
        for i in range(len(self.queries)):
            self.run(i, tracer)
        self.pass_seconds.append(perf_counter() - start)
        self.scales.append(host_scale())

    def pass_scale(self, p: int) -> float:
        """The host scale of pass `p`: the mean of those measured around it."""
        return (self.scales[p] + self.scales[p + 1]) / 2

    def scaled_latencies(self) -> list[list[float]]:
        """Every run's latency times the host scale of its pass."""
        return [[t * self.pass_scale(p) for p, t in enumerate(runs)] for runs in self.latencies]

    def scaled_seconds(self) -> float:
        """Wall time of all passes, each times its host scale."""
        return sum(t * self.pass_scale(p) for p, t in enumerate(self.pass_seconds))

    def run_for(self, seconds: float) -> None:
        """Whole passes until `seconds` are up; the last one may run over."""
        deadline = perf_counter() + seconds
        self.run_pass()
        while perf_counter() < deadline:
            self.run_pass()

    def runs(self, i=None) -> int:
        return sum(map(len, self.latencies)) if i is None else len(self.latencies[i])


def setup_once(workload, seed):
    """Set up from nothing; returns (seconds, queries, sum-pool entries)."""
    import queries as gen

    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import brieskorn_ch.cli"],
        cwd=ROOT, check=True,
    )
    query_list = gen.generate(workload, seed)
    pool = []
    if workload == "sphere_ladder":
        pool = gen.write_sum_pool(seed, lambda argv: call(argv)[1])
    for argv in gen.WARMUP:
        call(argv)
    return perf_counter() - start, query_list, pool


def check_all(loop: Loop, pool) -> dict[int, list[str]]:
    """Problems with each query's first output, by query index."""
    import oracle

    bad_pool = {}
    for query, path in pool:
        code, stdout, stderr, _ = call(query.argv)
        problems = oracle.check(query, code, stdout, stderr)
        if problems:
            bad_pool[path] = problems
    problems = {}
    for i, (query, (code, packed, stderr, exc)) in enumerate(zip(loop.queries, loop.first)):
        if exc:
            found = [f"raised {exc}"]
        else:
            found = oracle.check(query, code, zlib.decompress(packed).decode(), stderr)
        found += [f"input {f}: {bad_pool[f][0]}" for f in query.files if f in bad_pool]
        if found:
            problems[i] = found
    return problems


def count_failed(plain: Loop, traced: Loop, problems) -> int:
    """Runs of failing queries, plus runs whose output differs from the first."""
    failed = 0
    for i in range(len(plain.queries)):
        if i in problems:
            failed += plain.runs(i) + traced.runs(i)
        elif traced.runs(i) and traced.digests[i] != plain.digests[i]:
            failed += plain.differing[i] + traced.runs(i)
        else:
            failed += plain.differing[i] + traced.differing[i]
    return failed


def end_to_end(loop: Loop, setups, ok_ratio, peak_rss_mb):
    ordered = sorted(map(statistics.median, loop.scaled_latencies()))
    above = min(TAIL_ABOVE, len(ordered) - 1)
    metrics = {
        "throughput_qps": loop.runs() / loop.scaled_seconds(),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[-1 - above] * 1e3,
        "ok_ratio": ok_ratio,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    fewest = min(map(len, loop.latencies))
    note = (f"latency_tail_ms: p{100 * (len(ordered) - above) / len(ordered):.1f} over"
            f" {len(ordered)} queries ({above} above it), each the median of >= {fewest} runs")
    return metrics, note


def per_layer(plain: Loop, traced: Loop, tracers, names) -> dict[str, float]:
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = statistics.median(plain.pass_seconds) * 1e3
    with_trace = statistics.median(traced.pass_seconds) * 1e3
    metrics.update({
        "cli.bytes_out": float(sum(len(zlib.decompress(f[1])) for f in plain.first)),
        "trace.spans": float(len(tracers[0].spans)),
        "trace.untraced_ms": untraced,
        "trace.traced_ms": with_trace,
        "trace.overhead_ratio": with_trace / untraced,
    })
    return {name: float(metrics[name]) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "brieskorn_ch" / "cli.py").is_file():
        print(f"error: no brieskorn_ch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import queries as gen
    import tracer as tracing

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {gen.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        seconds, query_list, pool = setup_once(args.workload, args.seed)
        setups.append(seconds * host_scale())

    plain, traced, tracers = Loop(query_list), Loop(query_list), []
    if not args.trace:
        plain.run_for(args.seconds)
    else:
        deadline = perf_counter() + args.seconds
        while not tracers or perf_counter() < deadline:
            plain.run_pass()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.run_pass(tracer)
            finally:
                tracer.remove()
            tracers.append(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_all(plain, pool)
    attempted = plain.runs() + traced.runs()
    failed = count_failed(plain, traced, problems)
    for i, found in sorted(problems.items())[:10]:
        print(f"FAILED {' '.join(query_list[i].argv)}: {found[0]}")

    info = {"workload": args.workload, "seed": args.seed, "queries_per_pass": len(query_list),
            "runs": plain.runs(), "setup_s": setups,
            "pass_seconds": plain.pass_seconds, "scales": plain.scales}
    if not args.trace:
        metrics, note = end_to_end(plain, setups, (attempted - failed) / attempted, peak_rss_mb)
        units = metric_units("end_to_end")
        print(note)
    else:
        counts = tracers[0].work_counts()
        if any(t.work_counts() != counts for t in tracers[1:]):
            failed += 1
            print("FAILED work counters differ between traced passes of the same queries")
        units = metric_units("per_layer")
        metrics = per_layer(plain, traced, tracers, units)
        info.update(traced_passes=len(tracers), missing_wrappers=tracers[0].missing,
                    work_counts=counts)
        print(f"traced passes: {len(tracers)}; missing wrappers: {tracers[0].missing or 'none'}")
        tracers[0].write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    info["latencies_us"] = [[round(x * 1e6) for x in runs] for runs in plain.latencies]
    info["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(info) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
