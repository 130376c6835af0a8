"""Automatic evaluation metrics, implemented from scratch.

Covers corpus-level BLEU-4 against references (r-sBLEU) and against the
sources (s-sBLEU, high means copying), sentence-level GLEU for error
correction, corpus token-level perplexity from a scoring backend, classifier
accuracy, and exact string match.

All text passes through :func:`tokenize_eval` first: lowercase, punctuation
split from word characters, whitespace split. This is a simplified
sacre-style "13a" tokenization; published BLEU tables computed with other
signatures are comparable in spirit only.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, fields

from . import backends
from .backends import BackendEndpoints

MAX_NGRAM_ORDER = 4


class MetricError(ValueError):
    """Invalid metric input (length mismatch, empty corpus)."""


def tokenize_eval(text: str) -> list[str]:
    """Lowercase, split punctuation from word characters, split on whitespace."""
    out: list[str] = []
    word: list[str] = []
    for ch in text.lower():
        if ch.isspace():
            if word:
                out.append("".join(word))
                word = []
        elif ch.isalnum() or ch == "_":
            word.append(ch)
        else:
            if word:
                out.append("".join(word))
                word = []
            out.append(ch)
    if word:
        out.append("".join(word))
    return out


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


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

    correct = [0] * MAX_NGRAM_ORDER
    total = [0] * MAX_NGRAM_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        htok = tokenize_eval(hyp)
        rtok = tokenize_eval(ref)
        hyp_len += len(htok)
        ref_len += len(rtok)
        for n in range(1, MAX_NGRAM_ORDER + 1):
            hgrams = _ngram_counts(htok, n)
            total[n - 1] += sum(hgrams.values())
            correct[n - 1] += sum((hgrams & _ngram_counts(rtok, n)).values())

    precisions = []
    for n in range(1, MAX_NGRAM_ORDER + 1):
        c, t = correct[n - 1], total[n - 1]
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
    take the usual exponential length penalty.
    """
    stok = tokenize_eval(src)
    htok = tokenize_eval(hyp)
    rtok = tokenize_eval(ref)
    if not stok or not htok or not rtok:
        raise MetricError("sentence_gleu requires non-empty src, hyp and ref")

    stats: list[float] = [len(htok), len(rtok)]
    for n in range(1, MAX_NGRAM_ORDER + 1):
        hgrams = _ngram_counts(htok, n)
        sgrams = _ngram_counts(stok, n)
        rgrams = _ngram_counts(rtok, n)
        src_only = Counter({g: c for g, c in sgrams.items() if g not in rgrams})
        matched = sum((hgrams & rgrams).values())
        penalized = sum((hgrams & src_only).values())
        stats.append(max(matched - penalized, 0))
        stats.append(max(len(htok) + 1 - n, 0))

    stats = [s if s != 0 else 1 for s in stats]
    hyp_len, ref_len = stats[0], stats[1]
    log_prec = sum(
        math.log(stats[i] / stats[i + 1]) for i in range(2, len(stats), 2)
    ) / MAX_NGRAM_ORDER
    return math.exp(min(0.0, 1 - ref_len / hyp_len) + log_prec)


def corpus_gleu(srcs: list[str], hyps: list[str], refs: list[str]) -> float:
    """Mean sentence-level GLEU over a corpus of (src, hyp, ref) triples."""
    if not (len(srcs) == len(hyps) == len(refs)):
        raise MetricError("corpus_gleu requires equal-length lists")
    if not srcs:
        raise MetricError("corpus_gleu requires at least one triple")
    return sum(sentence_gleu(s, h, r)
               for s, h, r in zip(srcs, hyps, refs)) / len(srcs)


def corpus_perplexity(texts: list[str], endpoints: BackendEndpoints) -> float:
    """Average token-level perplexity across the corpus.

    Token-weighted: exp of minus the sum of all token log-probabilities over
    the total token count, so longer texts contribute proportionally.
    """
    if not texts:
        raise MetricError("corpus_perplexity requires at least one text")
    responses = (backends.score_tokens(endpoints, text) for text in texts)
    return perplexity_from_totals((resp.total_logprob, len(resp.tokens))
                                  for resp in responses)


def perplexity_from_totals(totals: Iterable[tuple[float, int]]) -> float:
    """Token-weighted perplexity from per-text (total log-prob, token count).

    The totals are summed in order, so the same totals give the same bytes
    whether they come from fresh /score calls or from earlier ones.
    """
    total_logprob = 0.0
    total_tokens = 0
    for logprob, tokens in totals:
        total_logprob += logprob
        total_tokens += tokens
    if total_tokens == 0:
        raise MetricError("scoring backend returned no tokens")
    return math.exp(-total_logprob / total_tokens)


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

    Each output is sent to the classifier endpoint (wire-shaped like
    /fill_mask) with the label set, and the argmax label is compared to the
    target. ``labels`` defaults to the distinct target styles; pass it
    explicitly for unidirectional corpora, where fewer than two distinct
    targets occur.
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
    hits = 0
    for output, target in zip(outputs, target_styles):
        resp = backends.classify(endpoints, output, list(labels))
        predicted = max(labels, key=lambda lb: resp.scores[lb])
        hits += predicted == target
    return hits / len(outputs)


@dataclass(frozen=True)
class EvalSummary:
    """Corpus-level evaluation results; absent metrics stay None."""

    r_sbleu: float | None = None
    s_sbleu: float | None = None
    accuracy: float | None = None
    ppl: float | None = None
    gleu: float | None = None
    exact_match: float | None = None

    def __post_init__(self):
        for name, low, high in (
            ("r_sbleu", 0.0, 100.0), ("s_sbleu", 0.0, 100.0),
            ("accuracy", 0.0, 1.0), ("gleu", 0.0, 1.0),
            ("exact_match", 0.0, 1.0),
        ):
            value = getattr(self, name)
            if value is not None and not (low <= value <= high):
                raise MetricError(f"{name}={value} outside [{low}, {high}]")
        if self.ppl is not None and self.ppl <= 0:
            raise MetricError(f"ppl={self.ppl} must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EvalSummary":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


# Column order for the prompt-design sweep table.
SWEEP_CSV_COLUMNS = ("template", "delimiter", "direction", "shots",
                     "accuracy", "r_sbleu", "s_sbleu", "ppl")
