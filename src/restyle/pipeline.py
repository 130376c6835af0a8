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
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from . import backends, metrics
from .backends import BackendError, CompletionRequest, LabelError, check_count
from .data import DatasetError, StylePairRecord
from .metrics import SWEEP_CSV_COLUMNS, EvalRow, EvalSummary, MetricError
from .prompts import (
    DELIMITERS,
    TEMPLATES,
    DelimiterPair,
    Exemplar,
    TransferRequest,
    check_collisions,
    delimiter_name,
    extract_completion,
    parse_direction,
    render_prompt,
    template_name,
    validate_template,
)
from .reranking import (
    Candidate,
    RerankConfig,
    RerankScore,
    asks_classifier,
    fluency_logprob,
    rerank,
    top_beam_baseline,
)

logger = logging.getLogger(__name__)

DEFAULT_JOBS = 4


class PipelineError(RuntimeError):
    """Run-level failure: empty inputs, empty pools, or every example failing."""


@dataclass(frozen=True)
class RequestTemplate:
    """The per-run prompt choices applied to every dataset record; the
    template text, and each exemplar against the closing delimiter, are
    checked when the plan is built."""

    template: str = TransferRequest.template
    delimiter: DelimiterPair = TransferRequest.delimiter
    exemplars: tuple[Exemplar, ...] = ()

    def __post_init__(self):
        validate_template(self.template)
        check_collisions(self.delimiter, self.exemplars)

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
                 seed: int | None = None, example_id: str | None = None
                 ) -> tuple[Candidate, dict, RerankScore]:
    """Transfer a single text: the winner, its audit record and its score.

    Renders the prompt, requests ``cfg.k`` candidates as ``cfg`` says, with
    the closing delimiter as the stop string, re-extracts every completion
    (services may ignore the stop), drops empty extractions, and reranks the
    rest. The winner's :class:`RerankScore` holds its fluency totals and
    strength likelihoods, which spare the corpus summary a second /score
    call and, when accuracy asks the service strength asked, a label call.
    """
    prompt = render_prompt(req)
    creq = CompletionRequest(
        prompt=prompt,
        max_new_tokens=cfg.max_new_tokens,
        num_candidates=cfg.k,
        stop=req.delimiter.close,
        seed=seed,
        decode=cfg.decode,
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
    return winner, record, scores[pool.index(winner)]


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
                seed: int | None) -> dict:
    return {
        "template": template_name(plan.template),
        "delimiter": {"name": delimiter_name(plan.delimiter),
                      "open": plan.delimiter.open,
                      "close": plan.delimiter.close},
        "shots": len(plan.exemplars),
        "k": cfg.k,
        "use_fluency": cfg.use_fluency,
        "strength_source": cfg.strength_source,
        "max_new_tokens": cfg.max_new_tokens,
        "decode": cfg.decode.to_wire(cfg.k),
        "endpoints": cfg.endpoints.snapshot(),
        "seed": seed,
    }


def transfer_corpus(records: list[StylePairRecord], plan: RequestTemplate,
                    cfg: RerankConfig, *, jobs: int = DEFAULT_JOBS,
                    seed: int | None = None) -> RunManifest:
    """Transfer every record with bounded concurrency and evaluate the winners.

    ``jobs=1`` runs the examples one after another in the calling thread;
    ``jobs=N>1`` runs them on N worker threads. Fewer than 1 raises
    ValueError before any backend call. Per-example failures become error
    records and the run continues; the run itself fails only if every
    example fails. Records keep dataset order no matter the completion
    order, and per-example seeds derive from the run seed plus the record
    position.
    """
    if not records:
        raise PipelineError("transfer_corpus requires a non-empty record list")
    check_count(jobs, "jobs")
    labels = metrics.accuracy_labels(cfg.endpoints, (
        style for r in records for style in (r.source_style, r.target_style)))
    # When accuracy asks the service strength asked, over the example's own
    # two styles as the only labels, the winner's strength likelihoods answer it.
    reuse = (asks_classifier(cfg.endpoints, cfg.strength_source)
             == asks_classifier(cfg.endpoints) and len(labels or ()) == 2)
    # A label error depends on the label set, not on the text, so the first
    # one answers every later accuracy call of the run. A worker that looked
    # before it was set makes its call, which fails alike: no lock needed.
    label_error: LabelError | None = None

    def one(item: tuple[int, StylePairRecord]):
        nonlocal label_error
        index, rec = item
        base = rec.to_dict()
        try:
            winner, record, score = transfer_one(
                plan.request_for(rec), cfg,
                seed=None if seed is None else seed + index,
                example_id=rec.id)
            if reuse:
                predicted = metrics.top_label(score.strength_scores)
            elif label_error is not None:
                predicted = label_error
            else:
                try:
                    predicted = metrics.predict_style(cfg.endpoints,
                                                      winner.text, labels)
                except LabelError as exc:
                    # The run's accuracy is absent; the transfer stands.
                    predicted = label_error = exc
            if cfg.use_fluency:
                fluency = score.log_fluency, score.fluency_tokens
            elif cfg.endpoints.score is not None:
                # Scored here, so a failed /score call fails only this example.
                fluency = fluency_logprob(winner.text, cfg.endpoints)
            else:
                fluency = None
        except (BackendError, PipelineError, ValueError) as exc:
            logger.warning("example %s failed: %s", rec.id, exc)
            return {**base, "error": f"{type(exc).__name__}: {exc}"}, None, None
        record.update(base)
        return record, predicted, fluency

    if jobs == 1:
        results = [one(item) for item in enumerate(records)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as executor:
            results = list(executor.map(one, enumerate(records)))

    out_records = [record for record, _, _ in results]
    done = [result for result in results if "error" not in result[0]]
    if not done:
        raise PipelineError(
            f"all {len(records)} examples failed; first error: "
            f"{out_records[0].get('error')}"
        )
    # Every example holds its winner's (log-prob, tokens) pair, or none does.
    fluency = None if done[0][2] is None else [f for _, _, f in done]
    predicted = [p for _, p, _ in done]
    # One label the service cannot score leaves the run's accuracy absent.
    predicted = next((p for p in predicted if isinstance(p, LabelError)),
                     predicted)
    summary = metrics.summarize(
        [_eval_row(record) for record, _, _ in done], cfg.endpoints,
        labels=labels, predicted=predicted, fluency=fluency)
    config = _run_config(plan, cfg, seed=seed)
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
    file raises PipelineError, as does a record whose dataset fields make no
    :class:`StylePairRecord` or, if it succeeded, with no string ``winner``.
    A leading byte order mark is dropped."""

    def not_a_manifest(why: str) -> PipelineError:
        return PipelineError(f"{path} is not a manifest: {why}")

    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise not_a_manifest(f"not UTF-8 text: {exc}") from None
    if not lines:
        raise not_a_manifest("empty file")
    try:
        header, *records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise not_a_manifest(f"a line is not JSON: {exc}") from None
    if not (isinstance(header, dict) and all(
            isinstance(header.get(key), kind) for key, kind in _HEADER_TYPES.items())):
        raise not_a_manifest("the first line is not a header object with "
                             "run_id, timestamp, config and summary")
    endpoints = header["config"].get("endpoints", {})
    if not isinstance(endpoints, dict):
        raise not_a_manifest("config endpoints is not an object")
    try:
        backends.BackendEndpoints.from_snapshot(endpoints)
    except (TypeError, ValueError) as exc:
        raise not_a_manifest(f"config endpoints: {exc}") from None
    for record in records:
        if not isinstance(record, dict):
            raise not_a_manifest("a record is not an object")
        try:
            StylePairRecord(**{f.name: record.get(f.name)
                               for f in fields(StylePairRecord)})
        except DatasetError as exc:
            raise not_a_manifest(str(exc)) from None
        if "error" not in record and not isinstance(record.get("winner"), str):
            raise not_a_manifest(f"record {record['id']!r} has no string winner")
    try:
        summary = EvalSummary.from_dict(header["summary"])
    except MetricError as exc:
        raise not_a_manifest(f"summary {exc}") from None
    return RunManifest(
        run_id=header["run_id"],
        timestamp=header["timestamp"],
        config=header["config"],
        records=records,
        summary=summary,
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
    """The axes of a prompt-design sweep; every axis must be non-empty, every
    template a valid text, every direction stored as :func:`parse_direction`
    writes it, and every shot count an integer >= 0."""

    templates: tuple[str, ...] = tuple(TEMPLATES.values())
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
        object.__setattr__(self, "directions", tuple(
            parse_direction(*direction) for direction in self.directions))
        for template in self.templates:
            validate_template(template)
        for shots in self.shots:
            check_count(shots, "shot counts", 0)


def _direction(record: StylePairRecord) -> tuple[str, str]:
    return record.source_style, record.target_style


def directions_in(records: list[StylePairRecord]) -> tuple[tuple[str, str], ...]:
    """Distinct (source, target) style directions, in first-seen order."""
    return tuple(dict.fromkeys(_direction(r) for r in records))


def records_in(records: Iterable[StylePairRecord],
               direction: tuple[str, str]) -> list[StylePairRecord]:
    """The records whose (source, target) styles are ``direction``, the form
    :attr:`SweepGrid.directions` holds."""
    return [r for r in records if _direction(r) == direction]


def select_exemplars(pool: Iterable[StylePairRecord], direction: tuple[str, str],
                     shots: int) -> tuple[Exemplar, ...]:
    """The first ``shots`` records of ``pool`` in ``direction`` with a
    non-blank reference, as exemplars. ValueError if ``shots`` is not a
    count >= 0 or the pool has fewer such records."""
    check_count(shots, "shots", 0)
    usable = [r for r in records_in(pool, direction)
              if r.reference and r.reference.strip()]
    if len(usable) < shots:
        raise ValueError(
            f"{shots} shots need {shots} exemplars with a reference in "
            f"direction {direction[0]}->{direction[1]}, the pool has {len(usable)}")
    return tuple(Exemplar(input=r.source, output=r.reference)
                 for r in usable[:shots])


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
              cfg: RerankConfig, *, exemplars: Sequence[StylePairRecord] = (),
              jobs: int = DEFAULT_JOBS, seed: int | None = None) -> SweepResult:
    """One corpus run per grid cell, collected into a CSV-ready table.

    A cell's few-shot exemplars come from the ``exemplars`` pool through
    :func:`select_exemplars`. Cell failures are isolated: a cell with no
    records or too few exemplars in its direction, or whose run fails,
    gets a row with an error and empty metric columns, and the sweep
    continues. A ``jobs`` below 1 fails the whole sweep at once, not each
    cell. Rows follow grid iteration order (templates, then delimiters,
    directions, shots), so runs with deterministic backends produce
    byte-identical CSV output.
    """
    check_count(jobs, "jobs")
    result = SweepResult()
    for template, delimiter, direction, shots in itertools.product(
            grid.templates, grid.delimiters, grid.directions, grid.shots):
        row = {
            "template": template_name(template),
            "delimiter": delimiter_name(delimiter),
            "direction": f"{direction[0]}->{direction[1]}",
            "shots": shots,
        }
        try:
            subset = records_in(records, direction)
            if not subset:
                raise PipelineError(f"no records in direction {row['direction']}")
            plan = RequestTemplate(
                template=template, delimiter=delimiter,
                exemplars=select_exemplars(exemplars, direction, shots))
            manifest = transfer_corpus(subset, plan, cfg, jobs=jobs, seed=seed)
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
        [EvalRow(r.source, r.source, r.reference, r.source_style,
                 r.target_style) for r in records], endpoints)
