"""restyle benchmark: corpus throughput and backend calls per example.

Usage (from the repository root)::

    python3 bench/run.py --workload rerank-inproc --seed 1 --seconds 30 --trace 0

Workloads are ``rerank-inproc``, ``transfer-http`` and ``eval-metrics``; see
``workloads.py`` for what each one stresses. The seed fixes every input. A run
sets the workload up ``SETUP_REPS`` times, then repeats passes over the same
corpus for ``--seconds`` (at least ``MIN_PASSES`` passes), checking every
pass's output. ``--smoke`` runs a tiny corpus with one set-up.

With ``--trace 0`` it reports the end-to-end metrics:

* ``examples_per_s``: examples per second of wall time in the fastest pass.
  The host's speed drifts by tens of percent over seconds when it is shared;
  slower passes measure that drift, and the fastest pass is the steadiest
  estimate of the program's own speed. An example is one transfer record, or
  one (src, hyp, ref) triple on ``eval-metrics``, where the table calls the
  metric ``pairs_per_s``.
* ``calls_per_example``: backend calls, all endpoints together, per example,
  counted where the calls arrive (stand-ins or the loopback server).
* ``setup_s``: imports plus the median set-up: corpus generation, dataset
  load, stand-in warm-up and server start.
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it runs half the time untraced and half, or at most
``MAX_TRACED_PASSES`` passes, traced (see ``spans.py``), writes the spans to
``.bench_out/spans-<workload>.jsonl`` and reports the per-layer metrics.
Span times and counts are per pass, that is per ``size`` examples, averaged
over the traced passes. Metrics with no path on a workload read 0; the
properties line lists every metric that reads 0.

Stdout ends with a table, a properties line (seed, size, k, jobs, word-length
quartiles, candidate shares and the bases of the shares), and one JSON result
line. A failed output check prints the result with ``"correct": false`` and
exits 1. Without ``src/restyle`` next to this directory it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_PASSES = 3
# Bounds the spans a traced run keeps in memory.
MAX_TRACED_PASSES = 10
ENDPOINTS = ("complete", "embed", "fill_mask", "score", "classify")


def _import_workloads() -> float:
    """Import the library from this checkout; return the seconds it took."""
    src = ROOT / "src"
    if not (src / "restyle" / "__init__.py").is_file():
        print(f"error: no restyle package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import restyle
    import workloads  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(restyle.__file__).resolve().parent != (src / "restyle").resolve():
        print(f"error: imported restyle from {restyle.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


class Passes:
    """Closed-loop passes over one workload, with service counters around each."""

    def __init__(self, workload, seconds: float, max_passes: float = float("inf")):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.stats = [workload.service_stats()]
        deadline = time.perf_counter() + seconds
        while len(self.times) < MIN_PASSES or (
                len(self.times) < max_passes and time.perf_counter() < deadline):
            start = time.perf_counter()
            out = workload.run_pass()
            self.times.append(time.perf_counter() - start)
            self.stats.append(workload.service_stats())
            attempted, failed = workload.outcome(out)
            self.attempted += attempted
            self.failed += failed
            workload.check_pass(out)

    def service(self, key: str):
        return self.stats[-1][key] - self.stats[0][key]


def end_to_end(workload, passes: Passes, setup_s: float) -> dict:
    return {
        "examples_per_s": workload.size / min(passes.times),
        "calls_per_example": passes.service("calls") / passes.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _percentile_ms(durations: list[float], pct: int) -> float:
    if len(durations) < 2:
        return 0.0
    return statistics.quantiles(durations, n=100)[pct - 1] * 1000


def per_layer(workload, untraced: Passes, traced: Passes, spans: dict,
              load_s: float) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the bases of the shares."""
    n = len(traced.times)
    empty = {"count": 0, "durations": [], "self_s": 0.0, "errors": 0}

    def span(name):
        return spans.get(name, empty)

    def busy(name):
        return sum(span(name)["durations"]) / n

    def self_s(name):
        return span(name)["self_s"] / n

    one = span("pipeline.transfer_one")["durations"]
    out = {
        "pipeline.transfer_one.count": len(one) / n,
        "pipeline.transfer_one.p50_ms": _percentile_ms(one, 50),
        "pipeline.transfer_one.p99_ms": _percentile_ms(one, 99),
        "pipeline.transfer_one.self_s": self_s("pipeline.transfer_one"),
        "pipeline.transfer_corpus.self_s": self_s("pipeline.transfer_corpus"),
        "prompts.render_prompt.busy_s": busy("prompts.render_prompt"),
        "prompts.extract_completion.busy_s": busy("prompts.extract_completion"),
        "reranking.rerank.self_s": self_s("reranking.rerank"),
        "reranking.similarity_score.busy_s": busy("reranking.similarity_score"),
        "reranking.similarity_score.self_s": self_s("reranking.similarity_score"),
        "reranking.style_strength.busy_s": busy("reranking.style_strength"),
        "reranking.fluency_logprob.busy_s": busy("reranking.fluency_logprob"),
    }
    for endpoint in ENDPOINTS:
        name = f"backends.{endpoint}"
        out[f"{name}.calls"] = span(name)["count"] / n
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.errors"] = span(name)["errors"] / n
    client_calls = sum(span(f"backends.{e}")["count"] for e in ENDPOINTS)
    client_busy = sum(busy(f"backends.{e}") for e in ENDPOINTS) * n
    service_calls = traced.service("calls")
    service_busy = traced.service("busy_s")
    distinct = sum(s["distinct"] for s in traced.stats[1:])
    traced_wall = sum(traced.times)
    out["backends.distinct_request_share"] = (
        distinct / service_calls if service_calls else 0.0)
    remote = workload.remote and client_calls > 0
    out["backends.server_s"] = service_busy / n if remote else 0.0
    out["backends.client_overhead_ms_per_call"] = (
        (client_busy - service_busy) / client_calls * 1000 if remote else 0.0)
    out["backends.retry_share"] = (
        service_calls / client_calls - 1 if remote else 0.0)
    for name in ("corpus_bleu", "tokenize_eval", "corpus_gleu",
                 "classifier_accuracy", "corpus_perplexity"):
        out[f"metrics.{name}.busy_s"] = busy(f"metrics.{name}")
    out["data.load_dataset_s"] = load_s
    out["standin.busy_share"] = service_busy / traced_wall
    untraced_median = statistics.median(untraced.times)
    traced_median = statistics.median(traced.times)
    out["trace.overhead_share"] = traced_median / untraced_median - 1
    bases = {
        "traced_passes": n,
        "traced_wall_s": traced_wall,
        "transfer_one_samples": len(one),
        "standin_busy_s": service_busy,
        "service_calls": service_calls,
        "client_calls": client_calls,
        "distinct_requests": distinct,
        "untraced_passes": len(untraced.times),
        "untraced_pass_median_s": untraced_median,
        "traced_pass_median_s": traced_median,
        "zero_metrics": sorted(name for name, value in out.items() if value == 0),
    }
    return out, bases


def _units(declared: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in declared}


def _print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:<42} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and a single set-up, for tests")
    args = parser.parse_args(argv)

    import_s = _import_workloads()
    from spans import Tracer
    from workloads import CheckFailed, build

    # The loopback server must never be reached through a proxy.
    for key in ("NO_PROXY", "no_proxy"):
        os.environ[key] = ",".join(filter(None, (os.environ.get(key), "127.0.0.1")))
    OUT_DIR.mkdir(exist_ok=True)

    setups, loads = [], []
    workload = None
    try:
        for _ in range(1 if args.smoke else SETUP_REPS):
            if workload is not None:
                workload.close()
            workload = build(args.workload, args.seed, args.smoke, OUT_DIR)
            start = time.perf_counter()
            workload.set_up()
            setups.append(time.perf_counter() - start)
            loads.append(workload.load_s)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            untraced = Passes(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Passes(workload, args.seconds / 2, MAX_TRACED_PASSES)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
            metrics, bases = per_layer(workload, untraced, traced,
                                       tracer.summary(), statistics.median(loads))
            units = _units(spec["per_layer"])
            passes = [untraced, traced]
        else:
            timed = Passes(workload, args.seconds)
            metrics, bases = end_to_end(workload, timed, setup_s), {}
            units = _units(spec["end_to_end"])
            passes = [timed]
        workload.final_check()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        if workload is not None:
            workload.close()

    if metrics.keys() != units.keys():
        raise RuntimeError("metrics computed do not match BENCHMARK.json: "
                           f"{sorted(metrics.keys() ^ units.keys())}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    table = dict(metrics)
    if not args.trace:
        table["error_share"] = failed / attempted
        if args.workload == "eval-metrics":
            table["pairs_per_s"] = table.pop("examples_per_s")
    _print_table(table, {**units, "error_share": "ratio", "pairs_per_s": "1/s"})
    print(json.dumps({"properties": {**workload.properties(),
                                     "passes": sum(len(p.times) for p in passes),
                                     "pass_s_quartiles": statistics.quantiles(
                                         [t for p in passes for t in p.times], n=4),
                                     "setup_samples_s": setups,
                                     "import_s": import_s, **bases}}))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
