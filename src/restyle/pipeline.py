"""End-to-end orchestration: render, generate, extract, rerank, evaluate.

A corpus run produces a :class:`RunManifest` holding the full audit trail
(prompts, raw model output, extracted candidates, per-candidate scores,
winner and baseline picks) plus the aggregate evaluation summary. Manifests
persist as JSONL: one header object, then one record per example. With
deterministic backends and a fixed seed a run is bit-reproducible apart from
the timestamp.

The prompt-design sweep runs one corpus transfer per grid cell (template x
delimiter x direction x shots) and emits a CSV table of the cell summaries.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from . import backends, metrics
from .backends import BackendError, CompletionRequest, DecodeConfig
from .data import StylePairRecord
from .metrics import SWEEP_CSV_COLUMNS, EvalRow, EvalSummary
from .prompts import (
    DELIMITERS,
    DelimiterPair,
    Exemplar,
    TemplateKind,
    TransferRequest,
    delimiter_name,
    extract_completion,
    render_prompt,
)
from .reranking import (
    Candidate,
    RerankConfig,
    RerankScore,
    rerank,
    top_beam_baseline,
)

logger = logging.getLogger(__name__)

DEFAULT_JOBS = 4


class PipelineError(RuntimeError):
    """Run-level failure: empty inputs, empty pools, or every example failing."""


def template_name(template: TemplateKind | str) -> str:
    return template.value if isinstance(template, TemplateKind) else "custom"


@dataclass(frozen=True)
class RequestTemplate:
    """The per-run prompt choices applied to every dataset record."""

    template: TemplateKind | str = TemplateKind.CONTRASTIVE
    delimiter: DelimiterPair = DELIMITERS["curly"]
    exemplars: tuple[Exemplar, ...] = ()

    def request_for(self, record: StylePairRecord) -> TransferRequest:
        return TransferRequest(
            input_text=record.source,
            source_style=record.source_style,
            target_style=record.target_style,
            template=self.template,
            delimiter=self.delimiter,
            exemplars=self.exemplars,
        )


def transfer_one(req: TransferRequest, cfg: RerankConfig, *,
                 max_new_tokens: int = 128, decode: DecodeConfig = DecodeConfig(),
                 seed: int | None = None, example_id: str | None = None,
                 with_winner_score: bool = False) -> tuple:
    """Transfer a single text and return the winner plus its audit record.

    Renders the prompt, requests ``cfg.k`` candidates with the closing
    delimiter as the stop string, re-extracts every completion (services may
    ignore the stop), drops empty extractions, and reranks the rest. With
    ``with_winner_score`` a third element is the winner's
    :class:`RerankScore`, whose fluency totals spare the corpus summary a
    second /score call.
    """
    prompt = render_prompt(req)
    creq = CompletionRequest(
        prompt=prompt,
        max_new_tokens=max_new_tokens,
        num_candidates=cfg.k,
        stop=req.delimiter.close,
        seed=seed,
        decode=decode,
    )
    resp = backends.complete(cfg.endpoints, creq)
    raw = [{"text": g.text, "gen_score": g.gen_score} for g in resp.candidates]
    pool = []
    for i, gen in enumerate(resp.candidates):
        extraction = extract_completion(gen.text, req.delimiter)
        if extraction.text:
            pool.append(Candidate(text=extraction.text, gen_score=gen.gen_score,
                                  index=i, unterminated=extraction.unterminated))
    if not pool:
        raise PipelineError(
            f"empty extraction pool for example {example_id!r}: "
            f"all {len(raw)} candidates extracted to empty text"
        )
    winner, scores = rerank(req, pool, cfg)
    baseline = top_beam_baseline(pool)
    record = {
        "id": example_id,
        "prompt": prompt,
        "raw_candidates": raw,
        "candidates": [
            {"index": c.index, "text": c.text, "gen_score": c.gen_score,
             "unterminated": c.unterminated}
            for c in pool
        ],
        "scores": [s.to_dict() for s in scores],
        "winner_index": winner.index,
        "baseline_index": baseline.index,
        "winner": winner.text,
        "baseline": baseline.text,
    }
    if with_winner_score:
        return winner, record, scores[pool.index(winner)]
    return winner, record


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to audit or re-evaluate a corpus run."""

    run_id: str
    timestamp: str
    config: dict
    records: list[dict]
    summary: EvalSummary

    def successful_records(self) -> list[dict]:
        return [r for r in self.records if "error" not in r]


def _eval_row(record: dict) -> EvalRow:
    return EvalRow(record["winner"], record["source"], record.get("reference"),
                   record["source_style"], record["target_style"])


def _run_config(plan: RequestTemplate, cfg: RerankConfig, *,
                seed: int | None, max_new_tokens: int,
                decode: DecodeConfig) -> dict:
    return {
        "template": (plan.template.value if isinstance(plan.template, TemplateKind)
                     else plan.template),
        "delimiter": {"name": delimiter_name(plan.delimiter),
                      "open": plan.delimiter.open,
                      "close": plan.delimiter.close},
        "shots": len(plan.exemplars),
        "k": cfg.k,
        "use_fluency": cfg.use_fluency,
        "strength_source": cfg.strength_source,
        "max_new_tokens": max_new_tokens,
        "decode": decode.to_wire(cfg.k),
        "endpoints": cfg.endpoints.snapshot(),
        "seed": seed,
    }


def transfer_corpus(records: list[StylePairRecord], plan: RequestTemplate,
                    cfg: RerankConfig, *, jobs: int = DEFAULT_JOBS,
                    seed: int | None = None, max_new_tokens: int = 128,
                    decode: DecodeConfig = DecodeConfig()) -> RunManifest:
    """Transfer every record with bounded concurrency and evaluate the winners.

    Per-example failures become error records and the run continues; the run
    itself fails only if every example fails. Records keep dataset order no
    matter the completion order, and per-example seeds derive from the run
    seed plus the record position.
    """
    if not records:
        raise PipelineError("transfer_corpus requires a non-empty record list")
    labels = metrics.accuracy_labels(cfg.endpoints, (
        style.render() for r in records for style in (r.source_style, r.target_style)))

    def one(item: tuple[int, StylePairRecord]) -> tuple[dict, RerankScore | None,
                                                        str | None]:
        index, rec = item
        base = rec.to_dict()
        try:
            req = plan.request_for(rec)
            winner, record, score = transfer_one(
                req, cfg, max_new_tokens=max_new_tokens, decode=decode,
                seed=None if seed is None else seed + index,
                example_id=rec.id, with_winner_score=True)
            predicted = (None if labels is None else
                         metrics.predict_style(cfg.endpoints, winner.text, labels))
        except (BackendError, PipelineError, ValueError) as exc:
            logger.warning("example %s failed: %s", rec.id, exc)
            return {**base, "error": f"{type(exc).__name__}: {exc}"}, None, None
        record.update(base)
        return record, score, predicted

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as executor:
        results = list(executor.map(one, enumerate(records)))

    out_records = [record for record, _, _ in results]
    done = [result for result in results if "error" not in result[0]]
    if not done:
        raise PipelineError(
            f"all {len(records)} examples failed; first error: "
            f"{out_records[0].get('error')}"
        )
    fluency = None
    if cfg.use_fluency:
        fluency = [(score.log_fluency, score.fluency_tokens)
                   for _, score, _ in done]
    summary = metrics.summarize(
        [_eval_row(record) for record, _, _ in done], cfg.endpoints,
        predicted=None if labels is None else [p for _, _, p in done],
        fluency=fluency)
    config = _run_config(plan, cfg, seed=seed, max_new_tokens=max_new_tokens,
                         decode=decode)
    run_id = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    # jobs changes no output, so runs that differ only in it share an id.
    config["jobs"] = jobs
    return RunManifest(
        run_id=run_id,
        timestamp=datetime.now(timezone.utc).isoformat(),
        config=config,
        records=out_records,
        summary=summary,
    )


def write_manifest(manifest: RunManifest, path: str) -> None:
    """JSONL: one header object, then one record object per example."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"run_id": manifest.run_id, "timestamp": manifest.timestamp,
                  "config": manifest.config,
                  "summary": manifest.summary.to_dict()}
        fh.write(json.dumps(header) + "\n")
        for record in manifest.records:
            fh.write(json.dumps(record) + "\n")


_HEADER_TYPES = {"run_id": str, "timestamp": str, "config": dict, "summary": dict}


def read_manifest(path: str) -> RunManifest:
    """Load a manifest written by :func:`write_manifest`; any other JSONL
    file raises PipelineError."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]

    def not_a_manifest(why: str) -> PipelineError:
        return PipelineError(f"{path} is not a manifest: {why}")

    if not lines:
        raise not_a_manifest("empty file")
    header, *records = (json.loads(line) for line in lines)
    if not (isinstance(header, dict) and all(
            isinstance(header.get(key), kind) for key, kind in _HEADER_TYPES.items())):
        raise not_a_manifest("the first line is not a header object with "
                             "run_id, timestamp, config and summary")
    if not all(isinstance(record, dict) for record in records):
        raise not_a_manifest("a record is not an object")
    for key, value in header["summary"].items():
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            raise not_a_manifest(f"summary {key} is {value!r}, not a number")
    return RunManifest(
        run_id=header["run_id"],
        timestamp=header["timestamp"],
        config=header["config"],
        records=records,
        summary=EvalSummary.from_dict(header["summary"]),
    )


def reevaluate_manifest(manifest: RunManifest) -> EvalSummary:
    """Recompute the evaluation summary from a manifest's own records.

    Endpoints are rebuilt from the stored config snapshot; with
    deterministic backends this reproduces the stored summary exactly.
    Metric changes can therefore be re-applied without regeneration.
    """
    endpoints = backends.BackendEndpoints.from_snapshot(
        manifest.config.get("endpoints", {}))
    ok = manifest.successful_records()
    if not ok:
        raise PipelineError("manifest has no successful records to evaluate")
    # The label set spans every record, failed ones too, as in the run.
    labels = metrics.accuracy_labels(endpoints, (
        r[key] for r in manifest.records for key in ("source_style", "target_style")))
    return metrics.summarize([_eval_row(r) for r in ok], endpoints, labels=labels)


@dataclass(frozen=True)
class SweepGrid:
    """The axes of a prompt-design sweep; every axis must be non-empty and
    every shot count >= 0."""

    templates: tuple[TemplateKind, ...] = tuple(TemplateKind)
    delimiters: tuple[DelimiterPair, ...] = tuple(DELIMITERS.values())
    directions: tuple[tuple[str, str], ...] = ()
    shots: tuple[int, ...] = (0,)

    def __post_init__(self):
        for name, axis in (("templates", self.templates),
                           ("delimiters", self.delimiters),
                           ("directions", self.directions),
                           ("shots", self.shots)):
            if not axis:
                raise ValueError(f"sweep grid axis {name!r} is empty")
        if min(self.shots) < 0:
            raise ValueError(f"shot counts must be >= 0, got {self.shots}")


def directions_in(records: list[StylePairRecord]) -> tuple[tuple[str, str], ...]:
    """Distinct (source, target) style directions, in first-seen order."""
    seen: dict[tuple[str, str], None] = {}
    for r in records:
        seen.setdefault((r.source_style.render(), r.target_style.render()), None)
    return tuple(seen)


@dataclass
class SweepResult:
    rows: list[dict] = field(default_factory=list)
    manifests: list[RunManifest] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_COLUMNS,
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            formatted = dict(row)
            for metric in fields(EvalSummary):
                value = formatted.get(metric.name)
                formatted[metric.name] = "" if value is None else f"{value:.4f}"
            writer.writerow(formatted)
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def run_sweep(records: list[StylePairRecord], grid: SweepGrid,
              cfg: RerankConfig, *,
              exemplars_by_direction: dict[tuple[str, str],
                                           tuple[Exemplar, ...]] | None = None,
              jobs: int = DEFAULT_JOBS, seed: int | None = None,
              max_new_tokens: int = 128,
              decode: DecodeConfig = DecodeConfig()) -> SweepResult:
    """One corpus run per grid cell, collected into a CSV-ready table.

    Cell failures are isolated: the failing cell's row keeps empty metric
    columns and the sweep continues. Rows follow grid iteration order
    (templates, then delimiters, directions, shots), so runs with
    deterministic backends produce byte-identical CSV output.
    """
    result = SweepResult()
    exemplars_by_direction = exemplars_by_direction or {}
    for template, delimiter, direction, shots in itertools.product(
            grid.templates, grid.delimiters, grid.directions, grid.shots):
        row = {
            "template": template_name(template),
            "delimiter": delimiter_name(delimiter),
            "direction": f"{direction[0]}->{direction[1]}",
            "shots": shots,
        }
        try:
            subset = [r for r in records
                      if (r.source_style.render(), r.target_style.render()) == direction]
            if not subset:
                raise PipelineError(f"no records in direction {row['direction']}")
            available = exemplars_by_direction.get(direction, ())
            if len(available) < shots:
                raise PipelineError(
                    f"{shots}-shot cell needs {shots} exemplars for direction "
                    f"{row['direction']}, got {len(available)}"
                )
            plan = RequestTemplate(template=template, delimiter=delimiter,
                                   exemplars=tuple(available[:shots]))
            manifest = transfer_corpus(subset, plan, cfg, jobs=jobs, seed=seed,
                                       max_new_tokens=max_new_tokens,
                                       decode=decode)
        except (BackendError, PipelineError, ValueError) as exc:
            logger.warning("sweep cell %s failed: %s", row, exc)
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            result.manifests.append(manifest)
            row.update(manifest.summary.to_dict())
        result.rows.append(row)
    return result


def copy_baseline(records: list[StylePairRecord],
                  endpoints: backends.BackendEndpoints | None = None) -> EvalSummary:
    """Evaluate the do-nothing baseline that outputs every source verbatim.

    s-sBLEU is 100 by construction. The other metrics follow
    :func:`metrics.summarize`: reference metrics where references exist,
    classifier accuracy and perplexity where ``endpoints`` allow them.
    """
    if not records:
        raise PipelineError("copy_baseline requires a non-empty record list")
    return metrics.summarize(
        [EvalRow(r.source, r.source, r.reference, r.source_style.render(),
                 r.target_style.render()) for r in records], endpoints)
