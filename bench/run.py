"""Benchmark of the webaudit pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run writes the workload's inputs for the seed (in a child process, before
anything is timed), then drives the program in this process: the batch,
aggregate and report commands in turn as ``webaudit.cli.main`` calls (batch
at ``--parallel 1``), then every (site, mode) audited alone along the
``audit --trace-in`` path, then the reference loop (``reference.py``) and
the program's set-up in a fresh interpreter (``setup_probe.py``). That
round repeats for S seconds after one untimed warm-up round. Outputs are
checked against computations of the benchmark's own (``checks.py``); the
last line of standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
program's public functions (``tracer.py``) and reports the per-layer
metrics instead; the end-to-end figures of the traced run go to standard
error, so the two runs together give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import checks
from inputs import TEST_DATE, WORKLOADS
from program import BENCH_DIR, SRC, add_program_to_path
from reference import REFERENCE_S, reference_seconds
from tracer import Tracer

OUT = BENCH_DIR / "out"
SETUP_REPEATS = 7
# Reference passes spread through each round's single audits (and one
# after each pipeline command): the machine's speed flips between about
# 1x and 2x within a second, so one sample per round is not enough.
SPEED_SAMPLES = 8
# Audits re-derived after the timed rounds for the slower checks.
QUIET_SAMPLE = 24
WATERFALL_SAMPLE = 6
WATERFALL_MAX_REQUESTS = 400
REPORT_FORMATS = ("md", "csv", "json")

COUNTERS = {
    "netsim.simulate_waterfall": lambda args, result: {"netsim.requests_simulated": len(result)},
    "netsim.apply_throttle": lambda args, result: {"netsim.identity_passthroughs": int(result is args[0])},
}


class _Sink:
    """A text stream that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def generate_inputs(workload: str, seed: int, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        check=True,
        capture_output=True,
        text=True,
    )
    print(f"inputs {workload} seed {seed}: sha256 {done.stdout.strip()}", file=sys.stderr)
    return json.loads((out / "manifest.json").read_text("utf-8"))


def setup_probe(corpus: Path, manifest: dict) -> tuple[float, float]:
    """(reference loop, set-up) seconds in a fresh interpreter; this process waits."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--corpus", str(corpus)]
    argv += ["--modes", ",".join(manifest["modes"]), "--throttle", manifest["throttle"]]
    reference, setup = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.split()
    return float(reference), float(setup)


@dataclass
class Rounds:
    pipeline: list[float] = field(default_factory=list)  # seconds per round
    batch: list[float] = field(default_factory=list)
    latencies: list[list] = field(default_factory=list)  # per round, per audit
    setup: list[tuple[float, float]] = field(default_factory=list)  # (reference, set-up) per round
    reference: list[float] = field(default_factory=list)  # mean reference pass per round, this process
    problems: list[str] = field(default_factory=list)


def _spread(items: list, count: int) -> list:
    """Up to count items, evenly spaced."""
    step = max(1, len(items) // count)
    return items[::step][:count]


class Bench:
    """The program's set-up for one workload, the timed round and the checks."""

    def __init__(self, manifest: dict, inputs: Path, work: Path):
        import webaudit

        self.wa = webaudit
        self.manifest = manifest
        self.calibration = webaudit.load_calibration()
        members = webaudit.load_member_regions()
        self.corpus = corpus = inputs / "corpus.csv"
        records = webaudit.membership_filter(webaudit.ingest_corpus(corpus, members), members)
        self.n_sites = len(records)
        modes = manifest["modes"]
        self.devices = {kind: self.calibration.mode(kind) for kind in modes}
        self.profiles = {
            kind: webaudit.resolve_throttle(manifest["throttle"], self.calibration, device)
            for kind, device in self.devices.items()
        }
        traces = inputs / "traces"
        self.jobs = [(traces / (webaudit.trace_slug(r.url) + ".json"), r.url, kind) for r in records for kind in modes]

        self.files = {"results": work / "results.jsonl", "aggregates": work / "aggregates.json"}
        self.files.update({fmt: work / f"report.{fmt}" for fmt in REPORT_FORMATS})
        results, aggregates = str(self.files["results"]), str(self.files["aggregates"])
        self.batch_argv = [
            "batch", "--corpus", str(corpus), "--traces", str(traces), "--modes", ",".join(modes),
            "--throttle", manifest["throttle"], "--parallel", "1", "--test-date", TEST_DATE, "--out", results,
        ]  # fmt: skip
        self.after_batch = [["aggregate", "--results", results, "--out", aggregates]] + [
            ["report", "--aggregates", aggregates, "--results", results, "--format", fmt, "--out", str(self.files[fmt])]
            for fmt in REPORT_FORMATS
        ]

        self.calibration_doc = json.loads((SRC / "webaudit" / "data" / "calibration.json").read_text("utf-8"))
        self.link = self.calibration_doc["throttle_profiles"][manifest["throttle"]]
        self.identity = manifest["throttle"] == "none"
        self.expected = None  # outputs of the warm-up round, once checked
        self.batch_failed = 0

    # -- one round ---------------------------------------------------------

    def pipeline(self, speed: list[float]) -> tuple[float, float]:
        """(pipeline seconds, batch seconds) for corpus -> results -> reports.

        A pass of the reference loop follows each command, untimed, into speed.
        """
        times, codes = [], []
        with contextlib.redirect_stdout(_Sink()):
            for argv in [self.batch_argv] + self.after_batch:
                t0 = perf_counter()
                codes.append(self.wa.cli.main(argv))
                times.append(perf_counter() - t0)
                speed.append(reference_seconds(1))
        if codes[0] not in (0, 1) or any(codes[1:]):
            raise RuntimeError(f"pipeline exit codes {codes}")
        return sum(times), times[0]

    def audits(self, speed: list[float]) -> tuple[list[float | None], list[float | None]]:
        """Every (site, mode) alone: load_trace -> apply_throttle -> audit_trace.

        Returns the latency and the performance score of each, None for a
        failed audit. A pass of the reference loop follows every eighth of
        the audits, untimed, into speed.
        """
        wa = self.wa
        latencies, scores = [], []
        every = -(-len(self.jobs) // SPEED_SAMPLES)
        for i, (path, _, kind) in enumerate(self.jobs, start=1):
            t0 = perf_counter()
            try:
                trace = wa.load_trace(path)
                throttled = wa.apply_throttle(trace, self.profiles[kind])
                _, report = wa.audit_trace(throttled, self.devices[kind], self.calibration)
                latencies.append(perf_counter() - t0)
                scores.append(report.performance_score)
            except (wa.AuditError, OSError):
                latencies.append(None)
                scores.append(None)
            if i % every == 0:
                speed.append(reference_seconds(1))
        return latencies, scores

    def outputs(self) -> dict[str, str]:
        return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in self.files.items()}

    # -- the run -----------------------------------------------------------

    def warm_up(self) -> list[str]:
        """One untimed round, whose outputs later rounds must repeat."""
        self.pipeline([])
        _, scores = self.audits([])
        self.expected = (self.outputs(), scores)
        lines = [json.loads(line) for line in self.files["results"].read_text("utf-8").splitlines()]
        self.batch_failed = sum(1 for line in lines if line["status"] != "ok")
        batch_scores = {(line["site"]["url"], line["mode"]): line["performance_score"] for line in lines}
        if [batch_scores.get((url, kind)) for _, url, kind in self.jobs] != scores:
            return ["single audits and the batch disagree on performance scores"]
        return []

    def measure(self, seconds: float) -> Rounds:
        """Whole rounds until seconds have passed. Passes of the reference
        loop spread through each round measure the machine's speed during
        it, and a set-up probe follows it."""
        rounds = Rounds()
        start = perf_counter()
        while True:
            speed: list[float] = []
            p, b = self.pipeline(speed)
            latencies, scores = self.audits(speed)
            rounds.pipeline.append(p)
            rounds.batch.append(b)
            rounds.latencies.append(latencies)
            rounds.reference.append(statistics.fmean(speed))
            if (self.outputs(), scores) != self.expected:
                rounds.problems.append(f"round {len(rounds.pipeline)}: outputs differ from the warm-up round")
            rounds.setup.append(setup_probe(self.corpus, self.manifest))
            if perf_counter() - start >= seconds:
                break
        while len(rounds.setup) < SETUP_REPEATS:
            rounds.setup.append(setup_probe(self.corpus, self.manifest))
        return rounds

    def check_outputs(self) -> list[str]:
        """The independent checks of checks.py on this run's outputs."""
        text = {name: path.read_text("utf-8") for name, path in self.files.items()}
        lines = [json.loads(line) for line in text["results"].splitlines()]
        members = [
            name.strip()
            for name in (SRC / "webaudit" / "data" / "member_regions.txt").read_text("utf-8").splitlines()
            if name.strip() and not name.strip().startswith("#")
        ]
        problems = checks.results_problems(lines, self.calibration_doc, len(self.jobs))
        problems += checks.reports_problems(lines, members, text["aggregates"], text["md"], text["csv"], text["json"])

        # Every page again, now that peak RSS is read: the throttled copy is
        # the trace itself under no throttle, and causal and within the
        # link's capacity under 4g.
        for path, url, kind in self.jobs:
            trace = self.wa.load_trace(path)
            throttled = self.wa.apply_throttle(trace, self.profiles[kind])
            if self.identity:
                if throttled is not trace:
                    problems.append(f"{url} [{kind}]: apply_throttle did not return the trace itself")
            else:
                recorded = json.loads(path.read_text("utf-8"))
                problems += checks.throttle_property_problems(
                    recorded, throttled.to_dict(), self.link["rtt_ms"], self.link["downlink_kbps"]
                )

        metrics = {(line["site"]["url"], line["mode"]): line["metrics"] for line in lines}
        quiet = self.calibration_doc["quiet_window"]
        for path, url, kind in _spread(self.jobs, QUIET_SAMPLE):
            throttled = self.wa.apply_throttle(self.wa.load_trace(path), self.profiles[kind])
            problems += checks.interactivity_problems(throttled.to_dict(), metrics[(url, kind)], quiet)

        if not self.identity:
            small = [job for job, site in zip(self.jobs, self._sites_per_job()) if site["requests"] <= WATERFALL_MAX_REQUESTS]
            for path, url, kind in _spread(small, WATERFALL_SAMPLE):
                recorded = json.loads(path.read_text("utf-8"))
                throttled = self.wa.apply_throttle(self.wa.load_trace(path), self.profiles[kind]).to_dict()
                problems += checks.waterfall_problems(recorded, throttled, self.link["rtt_ms"], self.link["downlink_kbps"])
        return problems[:10]

    def _sites_per_job(self) -> list[dict]:
        by_url = {site["url"]: site for site in self.manifest["sites"]}
        return [by_url[url] for _, url, _ in self.jobs]


def end_to_end(rounds: Rounds, n_batch: int, rss_mb: float) -> dict:
    """The timings of a run, at the reference machine speed (reference.py).

    Each round's timings are scaled by the mean of the reference passes
    made during that round, and the run reports the median over its
    rounds. An
    audit's latency is its median over the rounds; p50 and p90 are taken
    across the (site, mode)s. Set-up is the median over the probes, each
    scaled by the reference loop run in the same interpreter.
    """
    scales = [REFERENCE_S / reference for reference in rounds.reference]
    per_audit = [
        statistics.median(t * scale for t, scale in zip(times, scales) if t is not None)
        for times in zip(*rounds.latencies)
        if any(t is not None for t in times)
    ]
    latencies_ms = [t * 1000.0 for t in per_audit]
    return {
        "setup_s": (statistics.median(setup * REFERENCE_S / reference for reference, setup in rounds.setup), "s"),
        "pipeline_s": (statistics.median(p * scale for p, scale in zip(rounds.pipeline, scales)), "s"),
        "audits_per_s": (n_batch / statistics.median(b * scale for b, scale in zip(rounds.batch, scales)), "1/s"),
        "audit_p50_ms": (statistics.median(latencies_ms), "ms"),
        "audit_p90_ms": (statistics.quantiles(latencies_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, rounds: int, n_sites: int, import_ms: float) -> dict:
    def mean_ms(name: str) -> float:
        stat = tracer.stat(name)
        return stat.total / stat.calls * 1000.0 if stat.calls else 0.0

    def self_ms(name: str) -> float:
        stat = tracer.stat(name)
        return stat.self_total / stat.calls * 1000.0 if stat.calls else 0.0

    def p90_ms(name: str) -> float:
        durations = tracer.stat(name).durations
        if len(durations) < 2:
            return sum(durations) * 1000.0
        return statistics.quantiles(durations, n=10)[-1] * 1000.0

    throttle = tracer.stat("netsim.apply_throttle")
    inner = tracer.under("netsim.apply_throttle", "netsim.infer_plan")[0]
    inner += tracer.under("netsim.apply_throttle", "netsim.simulate_waterfall")[0]
    batches = tracer.stat("corpus.run_batch").calls
    io_calls = [tracer.stat(name) for name in ("report.write_aggregates", "report.read_aggregates")]
    io_count = sum(s.calls for s in io_calls)
    return {
        "trace.load_ms": (mean_ms("trace.load_trace"), "ms"),
        "trace.from_dict_ms": (mean_ms("trace.from_dict"), "ms"),
        "corpus.trace_loads_per_site": (
            tracer.under("corpus.run_batch", "trace.load_trace")[1] / (batches * n_sites) if batches else 0.0,
            "ratio",
        ),
        "netsim.infer_plan_ms": (mean_ms("netsim.infer_plan"), "ms"),
        "netsim.infer_plan_p90_ms": (p90_ms("netsim.infer_plan"), "ms"),
        "netsim.simulate_waterfall_ms": (mean_ms("netsim.simulate_waterfall"), "ms"),
        "netsim.simulate_waterfall_p90_ms": (p90_ms("netsim.simulate_waterfall"), "ms"),
        "netsim.apply_throttle_self_ms": ((throttle.total - inner) / throttle.calls * 1000.0 if throttle.calls else 0.0, "ms"),
        "netsim.requests_simulated": (tracer.counts.get("netsim.requests_simulated", 0) / rounds, "count"),
        "netsim.identity_passthroughs": (tracer.counts.get("netsim.identity_passthroughs", 0) / rounds, "count"),
        "metrics.compute_all_ms": (mean_ms("metrics.compute_all"), "ms"),
        "scoring.score_metrics_ms": (mean_ms("scoring.score_metrics"), "ms"),
        "corpus.run_batch_self_ms": (self_ms("corpus.run_batch"), "ms"),
        "corpus.write_results_ms": (mean_ms("corpus.write_results"), "ms"),
        "corpus.read_results_ms": (mean_ms("corpus.read_results"), "ms"),
        "report.aggregate_regions_ms": (mean_ms("report.aggregate_regions"), "ms"),
        "report.emit_report_ms": (mean_ms("report.emit_report"), "ms"),
        "report.aggregates_io_ms": (sum(s.total for s in io_calls) / io_count * 1000.0 if io_count else 0.0, "ms"),
        "config.import_ms": (import_ms, "ms"),
        "config.load_calibration_ms": (mean_ms("config.load_calibration"), "ms"),
        "corpus.ingest_ms": (mean_ms("corpus.ingest_corpus") + mean_ms("corpus.membership_filter"), "ms"),
        "cli.main_self_ms": (self_ms("cli.main"), "ms"),
    }


def span_table(tracer: Tracer) -> dict:
    return {
        name: {"calls": s.calls, "total_ms": s.total * 1000.0, "self_ms": s.self_total * 1000.0}
        for name, s in sorted(tracer.stats.items(), key=lambda item: -item[1].total)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    add_program_to_path()

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    phases = {"start": perf_counter()}
    manifest = generate_inputs(args.workload, args.seed, inputs)
    phases["inputs"] = perf_counter()

    # The CLI configures logging on its first call unless a handler exists;
    # this one keeps its level and format and drops the text, so the
    # program's per-audit logging is paid for but no terminal is.
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=_Sink())
    t0 = perf_counter()
    import webaudit
    import webaudit.cli  # noqa: F401

    import_ms = (perf_counter() - t0) * 1000.0
    bench = Bench(manifest, inputs, work)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(COUNTERS)

    problems = bench.warm_up()
    phases["warm_up"] = perf_counter()
    if tracer:
        tracer.enabled = True
    rounds = bench.measure(args.seconds)
    phases["rounds"] = perf_counter()
    if tracer:
        tracer.enabled = False
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += rounds.problems + bench.check_outputs()
    phases["checks"] = perf_counter()
    marks = list(phases.items())
    wall = {name: t - before for (_, before), (name, t) in zip(marks, marks[1:])}

    n_rounds = len(rounds.pipeline)
    n_batch = len(bench.jobs)
    (work / "rounds.json").write_text(json.dumps(asdict(rounds)) + "\n", "utf-8")
    single_failed = sum(1 for s in bench.expected[1] if s is None)
    e2e = end_to_end(rounds, n_batch, rss_mb)
    if tracer:
        metrics = per_layer(tracer, n_rounds, bench.n_sites, import_ms)
        spans = span_table(tracer)
        traced = {name: value for name, (value, _) in e2e.items()}
        (work / "trace.json").write_text(json.dumps({"end_to_end": traced, "spans": spans}, indent=1) + "\n", "utf-8")
        print(json.dumps({"traced_end_to_end": traced, "rounds": n_rounds, "wall_s": wall}), file=sys.stderr)
    else:
        metrics = e2e
        raw = {
            "pipeline_s": statistics.median(rounds.pipeline),
            "batch_s": statistics.median(rounds.batch),
            "setup_s": statistics.median(setup for _, setup in rounds.setup),
            "reference_s": statistics.median(rounds.reference),
        }
        print(json.dumps({"rounds": n_rounds, "audits_per_round": 2 * n_batch, "unscaled": raw, "wall_s": wall}), file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": n_rounds * 2 * n_batch,
        "failed": n_rounds * (bench.batch_failed + single_failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
