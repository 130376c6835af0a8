"""Automatic evaluation metrics, implemented from scratch.

Covers corpus-level BLEU-4 against references (r-sBLEU) and against the
sources (s-sBLEU, high means copying), sentence-level GLEU for error
correction, corpus token-level perplexity from a scoring backend, classifier
accuracy, and exact string match. :func:`summarize` computes all of them
over the rows of a corpus run, re-evaluation, baseline or eval command.

All text passes through :func:`tokenize_eval` first: lowercase, punctuation
split from word characters, whitespace split. This is a simplified
sacre-style "13a" tokenization; published BLEU tables computed with other
signatures are comparable in spirit only.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import backends, reranking
from .backends import BackendEndpoints, check_real

logger = logging.getLogger(__name__)

MAX_NGRAM_ORDER = 4

# For str patterns \w is isalnum() or "_" and \s is isspace(): a token is a
# run of word characters or any single other non-space character.
_TOKEN = re.compile(r"\w+|[^\w\s]")


class MetricError(ValueError):
    """Invalid metric input (length mismatch, empty corpus)."""


def tokenize_eval(text: str) -> list[str]:
    """Lowercase, split punctuation from word characters, split on whitespace."""
    tokens = []
    # str.split() splits where \s matches, and an isalnum() word is one run of
    # \w: only the other words need the regex.
    for word in text.lower().split():
        if word.isalnum():
            tokens.append(word)
        else:
            tokens += _TOKEN.findall(word)
    return tokens


# Rows whose n-grams the kernel counts at a time: its working set is bounded
# by one chunk, whatever the corpus size.
CHUNK_ROWS = 64


class _GramCounts:
    """The token counts and n-gram counts of a chunk of rows of texts.

    Side 0 of a row is the hypothesis, side 1 its reference and side 2, when
    there is one, its source. Each text is tokenized once, and its tokens get
    ids from a vocabulary of the chunk. Each order sorts the key ``prefix *
    vocabulary + last token`` of the whole n-grams of every side once. The
    prefix is the row at order 1, and above it the dense id of the gram's
    first n - 1 tokens, so one id names one n-gram of one row, on every side.
    The runs of equal keys give the dense ids, and one ``np.bincount`` gives
    the order's sides × grams count table. Ids and keys are bounded by the
    chunk's size, not the corpus's, and cannot overflow. Every statistic is
    an exact integer.
    """

    def __init__(self, rows: Sequence[tuple[str, ...]]):
        self.height = len(rows)
        vocab = defaultdict(itertools.count().__next__)
        tokens = [tokenize_eval(text) for side in zip(*rows) for text in side]
        lengths = list(map(len, tokens))
        self.lengths = np.array(lengths, dtype=np.int64).reshape(-1, self.height)
        ids = np.fromiter(map(vocab.__getitem__, itertools.chain(*tokens)),
                          dtype=np.int64, count=sum(lengths))
        # Tokens from each position to the end of its text, itself included.
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))
        # The side and the row of each token. At each order, starts holds
        # where each whole n-gram begins, sides its side and prefixes the id
        # of its first n - 1 tokens (at order 1, its row).
        sides, rows = np.divmod(np.repeat(np.arange(len(lengths)), lengths),
                                self.height)
        prefixes, starts = rows, np.arange(len(ids))
        # Per order: the sides × grams count table, and the row of each gram.
        self.orders = []
        for n in range(1, MAX_NGRAM_ORDER + 1):
            # Below rows × vocabulary at order 1, and below tokens² above it.
            keys = prefixes * len(vocab) + ids[starts + n - 1]
            order = np.argsort(keys)
            keys = keys[order]
            first = np.empty(len(keys), dtype=bool)
            first[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            # The dense ids follow the sorted keys, and the members of a run
            # share their key and so their row: how the sort orders equal
            # keys changes no id and no count.
            grams = np.cumsum(first) - 1
            size = int(grams[-1]) + 1 if len(grams) else 0
            prefixes = np.empty_like(grams)
            prefixes[order] = grams
            table = np.bincount(sides * size + prefixes,
                                minlength=len(self.lengths) * size)
            self.orders.append((table.reshape(len(self.lengths), size),
                                rows[starts[order[first]]]))
            whole = left[starts] > n
            prefixes, starts, sides = prefixes[whole], starts[whole], sides[whole]

    def clipped(self, other: int, drop: int | None = None) -> np.ndarray:
        """Per order and row, the hypothesis n-grams, each counted at most as
        often as in side ``other``; with ``drop``, at most as often as in
        ``other`` and not at all when in side ``drop``."""
        out = np.zeros((MAX_NGRAM_ORDER, self.height), dtype=np.int64)
        for n, (table, rows) in enumerate(self.orders):
            matched = np.minimum(table[0], table[other])
            if drop is not None:
                matched[table[drop] > 0] = 0
            np.add.at(out[n], rows, matched)
        return out

    def bleu_stats(self, other: int) -> np.ndarray:
        """BLEU's sufficient statistics of each row's hypothesis against side
        ``other``, one line per statistic: both lengths, then per order the
        clipped matches and the hypothesis n-gram count."""
        hyp_len = self.lengths[0]
        stats = np.empty((2 + 2 * MAX_NGRAM_ORDER, self.height), dtype=np.int64)
        stats[0], stats[1] = hyp_len, self.lengths[other]
        stats[2::2] = self.clipped(other)
        stats[3::2] = np.maximum(hyp_len - np.arange(MAX_NGRAM_ORDER)[:, None], 0)
        return stats

    def gleus(self, pair: np.ndarray) -> list[float]:
        """Sentence GLEU of every row, from the hyp/ref :meth:`bleu_stats`
        ``pair`` with the hyp's matches of source-only n-grams taken off
        each order."""
        stats = pair.copy()
        stats[2::2] = np.maximum(pair[2::2] - self.clipped(2, drop=1), 0)
        return [_gleu(row) for row in stats.T.tolist()]


@dataclass(frozen=True)
class RowStats:
    """Per-row statistics of a chunk of (hyp, ref[, src]) rows, one column
    per row: ``lengths`` the token counts, a line per side; ``by_reference``
    and ``by_source`` each hyp's exact int64 BLEU statistics against its ref
    and its src (:meth:`_GramCounts.bleu_stats`), and ``gleu`` each row's
    sentence GLEU, both None without a src side. No row is masked: callers
    pick theirs from ``lengths > 0``."""

    lengths: np.ndarray
    by_reference: np.ndarray
    by_source: np.ndarray | None
    gleu: list[float] | None


def row_stats(rows: Iterable[tuple[str, ...]]) -> Iterator[RowStats]:
    """The :class:`RowStats` of each run of :data:`CHUNK_ROWS` rows, in order,
    the one table that BLEU, GLEU and :func:`summarize` fold. Only one chunk's
    n-gram counts are alive at a time: each is dropped before its table is
    yielded."""
    rows = iter(rows)
    while batch := list(itertools.islice(rows, CHUNK_ROWS)):
        chunk = _GramCounts(batch)
        pair = chunk.bleu_stats(1)
        sourced = len(chunk.lengths) > 2
        table = RowStats(chunk.lengths, pair, chunk.bleu_stats(2) if sourced else None,
                         chunk.gleus(pair) if sourced else None)
        chunk.orders.clear()
        yield table


@dataclass(frozen=True)
class BleuReport:
    """Corpus BLEU-4 with its sufficient statistics.

    ``score`` is brevity_penalty times the geometric mean of the four
    n-gram precisions, scaled to [0, 100].
    """

    score: float
    ngram_precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def corpus_bleu(hyps: list[str], refs: list[str]) -> BleuReport:
    """Corpus BLEU-4 over tokenized text.

    Clipped n-gram matches are summed over the whole corpus before the
    precision ratios are taken. Zero-match counts at orders n >= 2 get
    add-one smoothing (match+1 over total+1), so short hypotheses are not
    zeroed out by missing higher-order overlap; a zero unigram precision
    still yields a zero score. The brevity penalty is exp(1 - ref_len /
    hyp_len) when the hypotheses are shorter than the references.
    """
    if len(hyps) != len(refs):
        raise MetricError(
            f"corpus size mismatch: {len(hyps)} hypotheses vs {len(refs)} references"
        )
    if not hyps:
        raise MetricError("corpus_bleu requires at least one pair")
    return _bleu_report(sum(table.by_reference.sum(axis=1)
                            for table in row_stats(zip(hyps, refs))))


def _bleu_report(stats: np.ndarray) -> BleuReport:
    """Corpus BLEU-4 from :attr:`RowStats.by_reference` summed over the pairs."""
    stats = stats.tolist()
    hyp_len, ref_len = stats[0], stats[1]
    precisions = []
    for n in range(1, MAX_NGRAM_ORDER + 1):
        c, t = stats[2 * n], stats[2 * n + 1]
        if c == 0 and n >= 2:
            precisions.append((c + 1) / (t + 1))
        elif t > 0:
            precisions.append(c / t)
        else:
            precisions.append(0.0)

    if hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1 - ref_len / hyp_len) if hyp_len > 0 else math.exp(1 - ref_len)

    if min(precisions) > 0:
        geo_mean = math.exp(sum(math.log(p) for p in precisions) / MAX_NGRAM_ORDER)
        score = 100.0 * bp * geo_mean
    else:
        score = 0.0
    return BleuReport(
        score=score,
        ngram_precisions=tuple(precisions),  # type: ignore[arg-type]
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def self_sbleu(outputs: list[str], sources: list[str]) -> float:
    """BLEU of the outputs against their own sources; 100 means pure copying."""
    return corpus_bleu(outputs, sources).score


def ref_sbleu(outputs: list[str], references: list[str]) -> float:
    """BLEU of the outputs against human references."""
    return corpus_bleu(outputs, references).score


def sentence_gleu(src: str, hyp: str, ref: str) -> float:
    """Sentence-level GLEU for grammatical error correction, in [0, 1].

    For each n in 1..4 the precision numerator is the hyp/ref n-gram overlap
    minus the hyp overlap with n-grams that appear in the source but not in
    the reference (clamped at zero): the score rewards corrections and
    penalizes keeping source-only material. Zero statistics are smoothed to
    one for sentence-level use, and hypotheses shorter than the reference
    take the usual exponential length penalty. It is a one-triple
    :func:`corpus_gleu`, whose MetricError names a side without tokens.
    """
    return corpus_gleu([src], [hyp], [ref])


def _gleu(stats: list[int]) -> float:
    """Sentence GLEU from one row's hyp/ref BLEU statistics, each order's
    matches already less the hyp's matches of source-only n-grams."""
    stats = [s if s != 0 else 1 for s in stats]
    hyp_len, ref_len = stats[0], stats[1]
    log_prec = sum(
        math.log(stats[i] / stats[i + 1]) for i in range(2, len(stats), 2)
    ) / MAX_NGRAM_ORDER
    return math.exp(min(0.0, 1 - ref_len / hyp_len) + log_prec)


def corpus_gleu(srcs: list[str], hyps: list[str], refs: list[str]) -> float:
    """Mean sentence-level GLEU over a corpus of (src, hyp, ref) triples, the
    :attr:`RowStats.gleu` summed in order. A triple with a side without
    tokens raises MetricError naming its index and that side."""
    if not (len(srcs) == len(hyps) == len(refs)):
        raise MetricError("corpus_gleu requires equal-length lists")
    if not srcs:
        raise MetricError("corpus_gleu requires at least one triple")
    total = 0.0
    for chunk, table in enumerate(row_stats(zip(hyps, refs, srcs))):
        empty = np.argwhere(table.lengths.T == 0)
        if len(empty):
            row, side = empty[0]
            raise MetricError(f"corpus_gleu: triple {chunk * CHUNK_ROWS + row} has "
                              f"no tokens in its {('hyp', 'ref', 'src')[side]}")
        for gleu in table.gleu:
            total += gleu
    return total / len(srcs)


def corpus_perplexity(texts: list[str], endpoints: BackendEndpoints) -> float:
    """Average token-level perplexity across the corpus.

    Token-weighted: exp of minus the sum of all token log-probabilities over
    the total token count, so longer texts contribute proportionally.
    """
    if not texts:
        raise MetricError("corpus_perplexity requires at least one text")
    return perplexity_from_totals(reranking.fluency_logprob(text, endpoints)
                                  for text in texts)


def perplexity_from_totals(totals: Iterable[tuple[float, int]]) -> float:
    """Token-weighted perplexity from per-text (total log-prob, token count).

    The totals are summed in order, so the same totals give the same bytes
    whether they come from fresh /score calls or from earlier ones. No
    tokens, or a perplexity beyond the float range, raise MetricError.
    """
    total_logprob = 0.0
    total_tokens = 0
    for logprob, tokens in totals:
        total_logprob += logprob
        total_tokens += tokens
    if total_tokens == 0:
        raise MetricError("scoring backend returned no tokens")
    mean_logprob = total_logprob / total_tokens
    try:
        return math.exp(-mean_logprob)
    except OverflowError:
        raise MetricError(
            "perplexity overflows a float: the mean token log-prob "
            f"{mean_logprob:.6g} is below about -709.78") from None


def exact_match_accuracy(outputs: list[str], references: list[str]) -> float:
    """Fraction of pairs that are byte-equal after trimming surrounding whitespace."""
    if len(outputs) != len(references):
        raise MetricError(
            f"corpus size mismatch: {len(outputs)} outputs vs {len(references)} references"
        )
    if not outputs:
        raise MetricError("exact_match_accuracy requires at least one pair")
    hits = sum(o.strip() == r.strip() for o, r in zip(outputs, references))
    return hits / len(outputs)


def classifier_accuracy(outputs: list[str], target_styles: list[str],
                        endpoints: BackendEndpoints,
                        labels: list[str] | None = None) -> float:
    """Fraction of outputs whose predicted style label matches the target.

    Each output's style is the :func:`predict_style` over the label set,
    compared to the target. ``labels`` defaults to the distinct
    target styles; pass it explicitly for unidirectional corpora, where fewer
    than two distinct targets occur.
    """
    if len(outputs) != len(target_styles):
        raise MetricError("outputs and target_styles must have equal lengths")
    if not outputs:
        raise MetricError("classifier_accuracy requires at least one output")
    if labels is None:
        labels = sorted(set(target_styles))
    if len(set(labels)) < 2:
        raise MetricError(
            "classifier needs >= 2 labels; pass labels= explicitly for "
            "unidirectional corpora"
        )
    hits = sum(predict_style(endpoints, output, labels) == target
               for output, target in zip(outputs, target_styles))
    return hits / len(outputs)


def top_label(scores: Mapping[str, float]) -> str:
    """The label with the highest likelihood, the first in sorted order on
    ties."""
    return max(sorted(scores), key=scores.__getitem__)


def predict_style(endpoints: BackendEndpoints, text: str,
                  labels: Sequence[str]) -> str:
    """The :func:`top_label` of the likelihoods from the service that
    :func:`reranking.asks_classifier` picks for accuracy."""
    return top_label(reranking.label_likelihoods(
        text, list(labels), endpoints, reranking.asks_classifier(endpoints)))


@dataclass(frozen=True)
class EvalSummary:
    """Corpus-level evaluation results; absent metrics stay None, and each
    present one is a finite number within its range (:func:`check_real`)."""

    r_sbleu: float | None = None
    s_sbleu: float | None = None
    accuracy: float | None = None
    ppl: float | None = None
    gleu: float | None = None
    exact_match: float | None = None

    def __post_init__(self):
        # (name, low, high) bounds for check_real; perplexity's low one is open.
        for name, *bounds in (
            ("r_sbleu", 0.0, 100.0), ("s_sbleu", 0.0, 100.0), ("accuracy", 0.0, 1.0),
            ("ppl", 0.0, math.inf, True), ("gleu", 0.0, 1.0), ("exact_match", 0.0, 1.0),
        ):
            value = getattr(self, name)
            try:
                if value is not None:
                    check_real(value, name, *bounds)
            except (TypeError, ValueError) as exc:
                raise MetricError(str(exc)) from None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EvalSummary":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


class EvalRow(NamedTuple):
    """One output and what it is scored against; all but the output may be None."""

    output: str
    source: str | None = None
    reference: str | None = None
    source_style: str | None = None
    target_style: str | None = None


def accuracy_labels(endpoints: BackendEndpoints | None,
                    styles: Iterable[str | None]) -> list[str] | None:
    """The sorted distinct styles, or None when accuracy cannot be measured:
    no classifier or fill-mask endpoint, or fewer than two labels."""
    if endpoints is None or (endpoints.classifier is None
                             and endpoints.fill_mask is None):
        return None
    labels = sorted({style for style in styles if style is not None})
    return labels if len(labels) >= 2 else None


def _nonblank(text: str | None) -> str:
    """``text``, or "" when it is absent or blank."""
    return text if text is not None and text.strip() else ""


def summarize(rows: Sequence[EvalRow], endpoints: BackendEndpoints | None = None,
              *, labels: list[str] | None = None,
              predicted: Sequence[str | None] | backends.LabelError | None = None,
              fluency: Sequence[tuple[float, int]] | None = None) -> EvalSummary:
    """Corpus metrics over ``rows``, each one where its inputs are present.

    s-sBLEU uses the rows with a non-blank source; r-sBLEU and exact match
    the rows with a non-blank reference; GLEU the rows with both. Accuracy
    compares ``predicted`` styles, or else the classifier's pick among
    ``labels`` (default: :func:`accuracy_labels` of the rows' styles), to the
    target styles; when the service cannot score one of ``labels`` (a
    :class:`backends.LabelError` raised, or passed as ``predicted``),
    accuracy is None and a warning names the labels. PPL comes from
    ``fluency``, each output's (total log-prob, token count) from a corpus
    run, or else from /score calls when ``endpoints`` has a score endpoint.
    When either gives no perplexity (a :class:`MetricError`), PPL is None and a
    warning says why. BLEU and GLEU are one pass over :func:`row_stats`,
    the GLEUs summed in row order.

    A blank output scores GLEU 0 for its row, counts as an accuracy miss and
    adds no tokens to PPL, with no backend call for it. A ``predicted`` list
    or ``fluency`` of another length than ``rows`` raises MetricError.
    """
    if not rows:
        raise MetricError("summarize requires at least one row")
    for name, given in (("predicted", predicted), ("fluency", fluency)):
        if isinstance(given, Sequence) and len(given) != len(rows):
            raise MetricError(f"summarize: {name} has {len(given)} entries "
                              f"for {len(rows)} rows")
    by_source = by_reference = gleu_sum = sourced = referenced = scored = 0
    for table in row_stats((row.output, _nonblank(row.reference),
                            _nonblank(row.source)) for row in rows):
        _, has_reference, has_source = table.lengths > 0
        by_reference = by_reference + table.by_reference[:, has_reference].sum(axis=1)
        by_source = by_source + table.by_source[:, has_source].sum(axis=1)
        sourced += int(has_source.sum())
        referenced += int(has_reference.sum())
        scored += int((has_source & has_reference).sum())
        # A blank output has no n-grams to score: GLEU 0, which adds nothing.
        for row in np.flatnonzero(table.lengths.all(axis=0)):
            gleu_sum += table.gleu[row]
    exact = sum(row.output.strip() == row.reference.strip() for row in rows
                if _nonblank(row.reference))
    values: dict = {}
    if sourced:
        values["s_sbleu"] = _bleu_report(by_source).score
    if referenced:
        values["r_sbleu"] = _bleu_report(by_reference).score
        values["exact_match"] = exact / referenced
    if scored:
        values["gleu"] = gleu_sum / scored
    if predicted is None:
        if labels is None:
            labels = accuracy_labels(endpoints, (
                style for row in rows
                for style in (row.source_style, row.target_style)))
        if labels is not None:
            try:  # no call after the first LabelError
                predicted = [predict_style(endpoints, row.output, labels)
                             if row.output.strip() else None for row in rows]
            except backends.LabelError as exc:
                predicted = exc
    if isinstance(predicted, backends.LabelError):
        logger.warning("accuracy not measured: the service cannot score the "
                       "labels %s (%s)", ", ".join(labels or ()), predicted)
    elif predicted is not None:
        hits = sum(label is not None and label == row.target_style
                   for label, row in zip(predicted, rows))
        values["accuracy"] = hits / len(rows)
    try:
        if fluency is not None:
            values["ppl"] = perplexity_from_totals(fluency)
        elif endpoints is not None and endpoints.score is not None:
            if outputs := [row.output for row in rows if row.output.strip()]:
                values["ppl"] = corpus_perplexity(outputs, endpoints)
    except MetricError as exc:
        logger.warning("perplexity not measured: %s", exc)
    return EvalSummary(**values)


# Column order for the prompt-design sweep table.
SWEEP_CSV_COLUMNS = ("template", "delimiter", "direction", "shots",
                     "accuracy", "r_sbleu", "s_sbleu", "ppl", "gleu",
                     "exact_match")
