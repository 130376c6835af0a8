"""The benchmark's workloads: set-up, one measured pass, and output checks.

Each workload is driven by one process in a closed loop: the next pass
starts when the previous one has returned. A pass is one call of the public
API over the whole generated corpus.

* ``rerank-inproc``: ``transfer_corpus`` at k=3, ``jobs=1``, with in-process
  memoizing stand-ins. Library CPU dominates: the rerank factors, the summary
  metrics, prompt render/extract and response validation. In-process runs are
  GIL-bound, so one worker is the fastest setting. Completion is
  lexicon-flip with ``plant=seed``, so one candidate in k is a verbatim copy
  of the source and the top beam usually is not the flip.
* ``transfer-http``: the same corpus generator, k=3, ``jobs=2``, with every
  endpoint an ``http://127.0.0.1`` URL served by ``server.py`` in a
  subprocess. Transport and wire parsing dominate. Pools hold k distinct
  rewrites of equal length and none equals the source, so a gain that needs
  duplicate candidates should show on ``rerank-inproc`` and not here.
* ``eval-metrics``: (src, hyp, ref) triples through the metric suite that
  ``restyle eval`` runs with a scoring endpoint configured: r-sBLEU, s-sBLEU,
  exact match, GLEU and perplexity. Perplexity makes one ``/score`` call per
  hypothesis to an in-process stand-in; everything else is the metrics layer.
"""

from __future__ import annotations

import importlib.util
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import requests

import corpora
from restyle import data, metrics, pipeline
from restyle.backends import BackendEndpoints
from restyle.metrics import EvalSummary
from restyle.mocks import (
    HashEmbedBackend,
    LexiconFlipBackend,
    SentimentMaskBackend,
    UniformScoreBackend,
    antonym_flip,
    mock_endpoints,
)
from restyle.reranking import RerankConfig
from standins import StandIn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
K = 3
# Examples (triples on eval-metrics) per pass, full and smoke size.
SIZES = {"rerank-inproc": (100, 12), "transfer-http": (30, 6),
         "eval-metrics": (2000, 60)}
# Examples re-run through the package mocks, and triples checked against
# the brute-force oracles.
CHECK_SUBSET = 40


class CheckFailed(Exception):
    """An output of the program is not what the benchmark knows it must be."""


def _word_quartiles(texts) -> list[float]:
    return statistics.quantiles([len(t.split()) for t in texts], n=4)


def _load(rows: list[dict], path: Path) -> tuple[list, float]:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    start = time.perf_counter()
    records = data.load_dataset(str(path), "jsonl", strict=True)
    return records, time.perf_counter() - start


class TransferWorkload:
    """``transfer_corpus`` over one generated sentiment corpus, pass after pass."""

    remote = False

    def __init__(self, name: str, seed: int, size: int, jobs: int, out_dir: Path):
        self.name = name
        self.seed = seed
        self.size = size
        self.jobs = jobs
        self.out_dir = out_dir
        self.plan = pipeline.RequestTemplate()
        self.expected = None

    def set_up(self) -> None:
        rows = corpora.sentiment_rows(self.seed, self.size)
        self.records, self.load_s = _load(rows, self.out_dir / f"{self.name}.jsonl")
        self.cfg = RerankConfig(k=K, endpoints=self._endpoints())
        self.expected = self.run_pass()
        self._check_winners(self.expected)

    def run_pass(self):
        return pipeline.transfer_corpus(self.records, self.plan, self.cfg,
                                        jobs=self.jobs, seed=self.seed)

    def outcome(self, manifest) -> tuple[int, int]:
        """Examples attempted and examples failed in one pass."""
        return len(manifest.records), len(manifest.records) - len(
            manifest.successful_records())

    def check_pass(self, manifest) -> None:
        if (manifest.records != self.expected.records
                or manifest.summary != self.expected.summary):
            raise CheckFailed(f"{self.name}: a timed pass did not reproduce "
                              "the warm-up pass's records and summary")

    def _check_winners(self, manifest) -> None:
        for record in manifest.records:
            if "error" in record:
                raise CheckFailed(f"{self.name}: example {record['id']} failed: "
                                  f"{record['error']}")
            if record["winner"] != antonym_flip(record["source"]):
                raise CheckFailed(f"{self.name}: example {record['id']} winner "
                                  f"{record['winner']!r} is not the antonym flip")

    def final_check(self) -> None:
        pass

    def properties(self) -> dict:
        records = self.expected.records
        pools = [[c["text"] for c in r["candidates"]] for r in records]
        candidates = sum(len(pool) for pool in pools)
        return {
            "workload": self.name, "seed": self.seed, "size": self.size,
            "k": K, "jobs": self.jobs,
            "source_words_quartiles": _word_quartiles(r["source"] for r in records),
            "candidate_equals_source_share": sum(
                text == r["source"] for r, pool in zip(records, pools)
                for text in pool) / candidates,
            "candidate_duplicate_in_pool_share": sum(
                len(pool) - len(set(pool)) for pool in pools) / candidates,
            "baseline_differs_from_winner_share": sum(
                r["baseline"] != r["winner"] for r in records) / len(records),
        }

    def close(self) -> None:
        pass


class InprocWorkload(TransferWorkload):
    def _endpoints(self) -> BackendEndpoints:
        self.standins = [StandIn(LexiconFlipBackend(plant="seed")),
                         StandIn(UniformScoreBackend()),
                         StandIn(SentimentMaskBackend()),
                         StandIn(HashEmbedBackend())]
        complete, score, fill_mask, embed = self.standins
        return BackendEndpoints(complete=complete, score=score,
                                fill_mask=fill_mask, embed=embed)

    def service_stats(self) -> dict:
        stats = [s.stats() for s in self.standins]
        return {key: sum(s[key] for s in stats)
                for key in ("calls", "busy_s", "distinct")}

    def final_check(self) -> None:
        subset = self.records[:CHECK_SUBSET]
        mocked = pipeline.transfer_corpus(
            subset, self.plan,
            RerankConfig(k=K, endpoints=mock_endpoints(plant="seed")),
            jobs=1, seed=self.seed)
        stood_in = pipeline.transfer_corpus(subset, self.plan, self.cfg,
                                            jobs=self.jobs, seed=self.seed)
        if (mocked.records != stood_in.records
                or mocked.summary != stood_in.summary):
            raise CheckFailed(f"{self.name}: stand-in records or summary differ "
                              "from a run through the package mocks")


class HttpWorkload(TransferWorkload):
    remote = True
    server = None

    def _endpoints(self) -> BackendEndpoints:
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        port = self.server.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("the loopback server did not report a port")
        self.base = f"http://127.0.0.1:{port}"
        return BackendEndpoints(complete=f"{self.base}/complete",
                                score=f"{self.base}/score",
                                fill_mask=f"{self.base}/fill_mask",
                                embed=f"{self.base}/embed")

    def service_stats(self) -> dict:
        """Server-side requests, handling seconds and distinct bodies."""
        paths = requests.get(f"{self.base}/stats", timeout=10).json().values()
        return {"calls": sum(p["requests"] for p in paths),
                "busy_s": sum(p["busy_s"] for p in paths),
                "distinct": sum(p["distinct"] for p in paths)}

    def close(self) -> None:
        if self.server is None:
            return
        self.server.stdin.close()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None


class EvalWorkload:
    """The ``restyle eval`` metric suite over generated (src, hyp, ref) triples."""

    name = "eval-metrics"
    remote = False
    jobs = 1

    def __init__(self, seed: int, size: int, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.expected = None

    def set_up(self) -> None:
        triples = corpora.eval_triples(self.seed, self.size)
        rows = [{"id": f"e{i:05d}", "source": src, "reference": ref,
                 "source_style": "draft", "target_style": "edited"}
                for i, (src, _, ref) in enumerate(triples)]
        hyp_path = self.out_dir / f"{self.name}.hyp.txt"
        hyp_path.write_text("".join(hyp + "\n" for _, hyp, _ in triples),
                            encoding="utf-8")
        records, self.load_s = _load(rows, self.out_dir / f"{self.name}.jsonl")
        self.srcs = [r.source for r in records]
        self.refs = [r.reference for r in records]
        self.hyps = hyp_path.read_text(encoding="utf-8").splitlines()
        self.scorer = StandIn(UniformScoreBackend())
        self.endpoints = BackendEndpoints(score=self.scorer)
        for hyp in self.hyps:
            self.scorer.score_tokens(hyp)

    def run_pass(self) -> EvalSummary:
        hyps, srcs, refs = self.hyps, self.srcs, self.refs
        return EvalSummary(
            s_sbleu=metrics.self_sbleu(hyps, srcs),
            r_sbleu=metrics.ref_sbleu(hyps, refs),
            exact_match=metrics.exact_match_accuracy(hyps, refs),
            gleu=metrics.corpus_gleu(srcs, hyps, refs),
            ppl=metrics.corpus_perplexity(hyps, self.endpoints))

    def outcome(self, summary) -> tuple[int, int]:
        return self.size, 0

    def check_pass(self, summary: EvalSummary) -> None:
        if self.expected is None:
            self.expected = summary
            if not math.isclose(summary.ppl, self.scorer.backend.vocab_size,
                                rel_tol=1e-9):
                raise CheckFailed(f"{self.name}: perplexity {summary.ppl} under "
                                  "uniform scoring is not the vocabulary size")
        elif summary != self.expected:
            raise CheckFailed(f"{self.name}: a timed pass did not reproduce "
                              "the first pass's summary")

    def final_check(self) -> None:
        spec = importlib.util.spec_from_file_location(
            "oracles", ROOT / "tests" / "oracles.py")
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        tok = metrics.tokenize_eval
        srcs, hyps, refs = (texts[:CHECK_SUBSET]
                            for texts in (self.srcs, self.hyps, self.refs))
        # Both directions, so one of them is short and takes the brevity
        # penalty; single pairs hit the zero-match smoothing.
        cases = [(hyps, srcs), (hyps, refs), (refs, hyps)]
        cases += [([h], [r]) for h, r in zip(hyps, refs)]
        for outputs, others in cases:
            got = metrics.corpus_bleu(outputs, others).score
            want = oracles.oracle_bleu([tok(o) for o in outputs],
                                       [tok(o) for o in others])
            if abs(got - want) > 1e-6:
                raise CheckFailed(f"{self.name}: corpus BLEU {got} differs from "
                                  f"the oracle's {want}")
        for src, hyp, ref in zip(srcs, hyps, refs):
            got = metrics.sentence_gleu(src, hyp, ref)
            want = oracles.oracle_gleu(tok(src), tok(hyp), tok(ref))
            if abs(got - want) > 1e-6:
                raise CheckFailed(f"{self.name}: GLEU {got} differs from the "
                                  f"oracle's {want} on {hyp!r}")

    def service_stats(self) -> dict:
        return self.scorer.stats()

    def properties(self) -> dict:
        return {
            "workload": self.name, "seed": self.seed, "size": self.size,
            "jobs": self.jobs,
            "source_words_quartiles": _word_quartiles(self.srcs),
            "hypothesis_words_quartiles": _word_quartiles(self.hyps),
            "reference_words_quartiles": _word_quartiles(self.refs),
            "exact_match_share": self.expected.exact_match,
        }

    def close(self) -> None:
        pass


def build(name: str, seed: int, smoke: bool, out_dir: Path):
    size = SIZES[name][1 if smoke else 0]
    if name == "rerank-inproc":
        return InprocWorkload(name, seed, size, 1, out_dir)
    if name == "transfer-http":
        return HttpWorkload(name, seed, size, 2, out_dir)
    return EvalWorkload(seed, size, out_dir)
