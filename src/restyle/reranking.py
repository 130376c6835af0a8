"""Candidate scoring and selection.

Each candidate rewrite is scored by three probability factors, combined in
log space:

* similarity: greedy-matching F1 over pairwise cosine similarities of
  contextual token embeddings of the source and the candidate,
* strength: the probability that the candidate carries the target style,
  estimated from masked-LM cloze likelihoods over the two style words, or
  from a classifier (:func:`asks_classifier`), and l1-normalized,
* fluency: the candidate's total log-probability under a language model
  (optional; it penalizes long or rare-word texts, so a no-fluency variant
  is provided).

The winner is the candidate with the highest composite. The top-beam
baseline instead takes the candidate the generator itself ranked first.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import backends
from .backends import BackendEndpoints, CompletionRequest, DecodeConfig, check_count
from .prompts import TransferRequest, render_cloze

# Probability floor applied to the similarity and strength factors before
# taking logs; keeps composites finite without moving any non-degenerate
# argmax. The fluency term is already a (finite) log-probability.
PROB_FLOOR = 1e-9

STRENGTH_SOURCES = ("mlm_cloze", "external_classifier")


@dataclass(frozen=True)
class Candidate:
    """One extracted rewrite within a candidate pool."""

    text: str
    gen_score: float
    index: int
    unterminated: bool = False


@dataclass(frozen=True)
class RerankConfig:
    """How a run generates its ``k`` candidates and how it scores them.

    The settings are checked when built, so the constructor,
    ``dataclasses.replace``, :func:`restyle.pipeline.transfer_corpus`,
    :func:`restyle.pipeline.run_sweep` and the CLI meet the same rules. Last
    come ``endpoints``, which must be a :class:`BackendEndpoints`, and the
    endpoints a run calls: ``complete`` and ``embed`` always,
    ``score`` with ``use_fluency``, and ``fill_mask`` unless
    :func:`asks_classifier` sends every label question to the classifier.
    ValueError names each one missing and the RESTYLE_*_URL variable
    :meth:`BackendEndpoints.from_env` reads it from.
    """

    k: int = 3
    max_new_tokens: int = CompletionRequest.max_new_tokens
    decode: DecodeConfig = CompletionRequest.decode
    use_fluency: bool = True
    strength_source: str = "mlm_cloze"
    endpoints: BackendEndpoints = BackendEndpoints()

    def __post_init__(self):
        check_count(self.k, "k")
        check_count(self.max_new_tokens, "max_new_tokens")
        if not isinstance(self.use_fluency, bool):
            raise ValueError(f"use_fluency must be a bool, got {self.use_fluency!r}")
        self.decode.width(self.k)
        if self.strength_source not in STRENGTH_SOURCES:
            raise ValueError(
                f"strength_source must be one of {STRENGTH_SOURCES}"
            )
        if not isinstance(self.endpoints, BackendEndpoints):
            raise ValueError(
                f"endpoints must be a BackendEndpoints, got {self.endpoints!r}")
        missing = [f"RESTYLE_{name.upper()}_URL ({name}{hint})"
                   for name, needed, hint in (
                       ("complete", True, ""),
                       ("fill_mask", not asks_classifier(
                           self.endpoints, self.strength_source), ""),
                       ("embed", True, ""),
                       ("score", self.use_fluency, ", or use_fluency=False"),
                   ) if needed and getattr(self.endpoints, name) is None]
        if missing:
            raise ValueError("missing backend endpoints: " + ", ".join(missing))


@dataclass(frozen=True)
class RerankScore:
    """The log factors of one candidate; composite sums the enabled terms.

    A candidate pruned by :func:`score_pool` keeps the factors it was
    given, whose sum already shows it cannot win; its other factors and
    ``composite`` are None. ``fluency_tokens`` is the token count of the
    /score response behind ``log_fluency``; perplexity needs it, the score
    record does not. ``strength_scores`` are the raw label likelihoods behind
    ``log_strength``; summary accuracy reads the winner's, and they take no
    part in equality or in the score record.
    """

    log_similarity: float | None
    log_strength: float | None
    log_fluency: float | None
    composite: float | None
    fluency_tokens: int | None = None
    strength_scores: Mapping[str, float] | None = field(default=None,
                                                        compare=False)

    def to_dict(self) -> dict:
        return {
            "log_similarity": self.log_similarity,
            "log_strength": self.log_strength,
            "log_fluency": self.log_fluency,
            "composite": self.composite,
        }


def similarity_score(src: str, cand: str, endpoints: BackendEndpoints) -> float:
    """Greedy-matching F1 over token embedding cosine similarities, in (0, 1].

    Recall matches each source token to its most similar candidate token,
    precision the reverse, and the harmonic mean combines them. The function
    is symmetric in its two texts, and identical texts score 1.0 under any
    embedding backend.
    """
    src_rows = _unit_rows(endpoints, src)
    # A fresh buffer, as in _score_steps.
    cand_rows = src_rows.copy() if cand == src else _unit_rows(endpoints, cand)
    return _greedy_f1(src_rows, cand_rows)


def _greedy_f1(src_vecs: np.ndarray, cand_vecs: np.ndarray) -> float:
    """The F1 of :func:`similarity_score` over unit-normalized token rows."""
    sim = src_vecs @ cand_vecs.T
    # A float sum over a count divides as ndarray.mean does, bit for bit.
    recall = float(sim.max(axis=1).sum()) / sim.shape[0]
    precision = float(sim.max(axis=0).sum()) / sim.shape[1]
    if precision + recall <= 0:
        return PROB_FLOOR
    f1 = 2 * precision * recall / (precision + recall)
    return min(max(f1, PROB_FLOOR), 1.0)


def _unit_rows(endpoints: BackendEndpoints, text: str) -> np.ndarray:
    """The text's token embeddings, each row scaled to unit length."""
    return _unit(backends.embed_tokens(endpoints, text))


def _unit(resp: backends.EmbeddingResponse) -> np.ndarray:
    # np.linalg.norm(mat, axis=1, keepdims=True) computes exactly this for a
    # real matrix, behind a Python wrapper that costs more than the math.
    mat = resp.vectors
    return mat / np.sqrt(np.add.reduce(mat * mat, axis=1, keepdims=True))


def asks_classifier(endpoints: BackendEndpoints,
                    strength_source: str | None = None) -> bool:
    """Whether a label question asks the classifier endpoint, not the cloze:
    accuracy (no ``strength_source``) whenever one is configured, strength
    only under ``external_classifier``."""
    return endpoints.classifier is not None and strength_source in (
        None, "external_classifier")


def label_likelihoods(text: str, labels: list[str], endpoints: BackendEndpoints,
                      classifier: bool) -> dict[str, float]:
    """Raw likelihoods of ``labels`` for a non-blank ``text``, from the
    classifier endpoint or the mask filler over its cloze; both reject a blank."""
    if classifier:
        return backends.classify(endpoints, text, labels).scores
    return backends.fill_mask(endpoints, render_cloze(text, endpoints.mask_token),
                              labels).scores


def _label_call(text: str, labels: list[str], endpoints: BackendEndpoints,
                classifier: bool) -> backends.Call:
    """The call :func:`label_likelihoods` makes."""
    if classifier:
        return backends.classify_call(endpoints, text, labels)
    return backends.fill_mask_call(
        endpoints, render_cloze(text, endpoints.mask_token), labels)


def _label_strength(text: str, s1: str, s2: str, endpoints: BackendEndpoints,
                    classifier: bool) -> tuple[float, dict[str, float]]:
    """The l1-normalized likelihood of s2 against s1, 0.5 when both are zero,
    paired with the raw label likelihoods of ``text``."""
    return _normalized(label_likelihoods(text, [s1, s2], endpoints, classifier),
                       s1, s2)


def _normalized(scores: dict[str, float], s1: str, s2: str
                ) -> tuple[float, dict[str, float]]:
    total = scores[s1] + scores[s2]
    return 0.5 if total == 0 else scores[s2] / total, scores


def style_strength(cand: str, s1: str, s2: str, endpoints: BackendEndpoints
                   ) -> tuple[float, dict[str, float]]:
    """Probability in [0, 1] that the text carries style s2 rather than s1,
    paired with the raw likelihood of each of the two labels.

    The text is wrapped in the cloze statement, the masked-LM is queried for
    the raw likelihoods of the two style words at the mask position, and the
    pair is l1-normalized. When both raw likelihoods are zero the strength
    is the indifferent 0.5.
    """
    return _label_strength(cand, s1, s2, endpoints, classifier=False)


def classifier_strength(cand: str, s1: str, s2: str, endpoints: BackendEndpoints
                        ) -> tuple[float, dict[str, float]]:
    """Like style_strength, but from the classifier endpoint only."""
    return _label_strength(cand, s1, s2, endpoints, classifier=True)


def fluency_logprob(cand: str, endpoints: BackendEndpoints
                    ) -> tuple[float, int]:
    """Total log-probability of the text, the sum of per-token conditionals,
    and its token count: the pair token-weighted perplexity is built from."""
    return _fluency(backends.score_tokens(endpoints, cand))


def _fluency(resp: backends.TokenScoreResponse) -> tuple[float, int]:
    return resp.total_logprob, len(resp.tokens)


# Asks: what a sans-IO step (:func:`_score_steps`, the corpus example steps
# in :mod:`restyle.pipeline`, :class:`restyle.metrics.Judge`) yields for a
# driver to answer, each a tuple that says all its answer depends on besides
# the endpoints:
#
# * ``("complete", CompletionRequest)``: the CompletionResponse;
# * ``("fluency", text)``: :func:`fluency_logprob`;
# * ``("strength", text, s1, s2, classifier)``: :func:`classifier_strength`
#   or :func:`style_strength`;
# * ``("embed", text)``: the unit rows of the text's token embeddings;
# * ``("label", text, labels)``: :func:`label_likelihoods` from the service
#   :func:`asks_classifier` picks for accuracy.


def request(ask: tuple, endpoints: BackendEndpoints):
    """``ask`` as the :class:`backends.Call` :func:`drive` makes for it, and
    the function of its response that gives the same answer."""
    kind = ask[0]
    if kind == "fluency":
        return backends.score_tokens_call(endpoints, ask[1]), _fluency
    if kind == "strength":
        _, text, s1, s2, classifier = ask
        return (_label_call(text, [s1, s2], endpoints, classifier),
                lambda resp: _normalized(resp.scores, s1, s2))
    if kind == "embed":
        return backends.embed_tokens_call(endpoints, ask[1]), _unit
    if kind == "label":
        return (_label_call(ask[1], ask[2], endpoints, asks_classifier(endpoints)),
                lambda resp: resp.scores)
    return backends.complete_call(endpoints, ask[1]), lambda resp: resp


def drive(steps, endpoints: BackendEndpoints):
    """Run the generator ``steps`` to its end, answering each ask at once
    through the functions above, and return what it returns. A failed ask
    is raised into the steps at the ``yield`` that made it."""
    try:
        ask = next(steps)
        while True:
            try:
                kind = ask[0]
                if kind == "fluency":
                    reply = fluency_logprob(ask[1], endpoints)
                elif kind == "strength":
                    _, text, s1, s2, classifier = ask
                    strength = classifier_strength if classifier else style_strength
                    reply = strength(text, s1, s2, endpoints)
                elif kind == "embed":
                    reply = _unit_rows(endpoints, ask[1])
                elif kind == "label":
                    reply = label_likelihoods(ask[1], ask[2], endpoints,
                                              asks_classifier(endpoints))
                else:
                    reply = backends.complete(endpoints, ask[1])
            except Exception as exc:
                ask = steps.throw(exc)
            else:
                ask = steps.send(reply)
    except StopIteration as stop:
        return stop.value


def _floored_log(p: float) -> float:
    return math.log(max(p, PROB_FLOOR))


def score_pool(req: TransferRequest, pool: list[Candidate],
               cfg: RerankConfig) -> list[RerankScore]:
    """All enabled log factors for every candidate that can win, parallel to
    ``pool``.

    Each distinct text's factors are asked in a fixed order: fluency (when
    enabled), then strength, then similarity. A text's bound is the float
    sum of its known log factors, in the composite's own order: 0 with none
    known, then its log-fluency, then ``log_strength + log_fluency``, and
    last the full ``(log_sim + log_strength) + log_fluency``. The loop takes
    the pending text with the highest bound, ties in first-seen order, and
    asks its next factor; the source is embedded once, just before the
    first similarity. It stops once that bound is strictly below the best
    full composite. Every log factor is at most 0 and float addition is
    monotone, so no bound is below the composite it ends in: a text it
    stops at cannot win, and ``<`` keeps every possible tie scored. A text
    that kept the source style is thus often ruled out by its strength,
    before its /embed call.

    A failed call ends the example before any later call. A repeated text
    shares its first occurrence's scores, and every fully scored candidate
    scores exactly as it would alone.

    The loop is :func:`_score_steps`, whose asks this drives one at a time
    through :func:`fluency_logprob`, :func:`style_strength` or
    :func:`classifier_strength`, and the source's and each candidate's
    embedding (:func:`drive`).
    """
    return drive(_score_steps(req, pool, cfg), cfg.endpoints)


def _score_steps(req: TransferRequest, pool: list[Candidate],
                 cfg: RerankConfig):
    """:func:`score_pool` as sans-IO steps: it yields the ``fluency``,
    ``strength`` and ``embed`` asks, is sent their answers and returns the
    scores."""
    src, s1, s2 = req.input_text, req.source_style, req.target_style
    classifier = asks_classifier(cfg.endpoints, cfg.strength_source)
    texts = list(dict.fromkeys(cand.text for cand in pool))
    # Without the fluency factor every text's fluency is known to be absent,
    # so its first factor asked is strength.
    fluencies = {} if cfg.use_fluency else dict.fromkeys(texts, (None, None))
    strengths = {}
    by_text = {}
    src_rows = None
    best = -math.inf
    # (-bound, first-seen position, text); sorted, so already a heap.
    heap = [(0.0, i, text) for i, text in enumerate(texts)]
    while heap and -heap[0][0] >= best:
        _, order, text = heapq.heappop(heap)
        if text not in fluencies:
            fluencies[text] = yield "fluency", text
            bound = fluencies[text][0]
        elif text not in strengths:
            p_strength, label_scores = yield "strength", text, s1, s2, classifier
            log_strength = _floored_log(p_strength)
            strengths[text] = log_strength, label_scores
            log_fluency = fluencies[text][0]
            bound = (log_strength if log_fluency is None
                     else log_strength + log_fluency)
        else:
            if src_rows is None:
                src_rows = yield "embed", src
            # A fresh buffer: A @ A.T on one array takes NumPy's symmetric
            # product, whose last bits differ from the general one.
            cand_rows = src_rows.copy() if text == src else (yield "embed", text)
            log_sim = _floored_log(_greedy_f1(src_rows, cand_rows))
            (log_strength, label_scores), (log_fluency, tokens) = \
                strengths[text], fluencies[text]
            composite = log_sim + log_strength
            if log_fluency is not None:
                composite += log_fluency
            best = max(best, composite)
            by_text[text] = RerankScore(log_sim, log_strength, log_fluency,
                                        composite, tokens, label_scores)
            continue
        heapq.heappush(heap, (-bound, order, text))
    for _, _, text in heap:
        log_strength, label_scores = strengths.get(text, (None, None))
        log_fluency, tokens = fluencies.get(text, (None, None))
        by_text[text] = RerankScore(None, log_strength, log_fluency, None,
                                    tokens, label_scores)
    return [by_text[cand.text] for cand in pool]


def _first_max(values: list[float | None]) -> int:
    """Index of the largest value that is not None, ties to the lowest
    index."""
    return max((i for i, value in enumerate(values) if value is not None),
               key=values.__getitem__)


def rerank(req: TransferRequest, pool: list[Candidate],
           cfg: RerankConfig) -> tuple[Candidate, list[RerankScore]]:
    """Score the candidates and pick the composite argmax.

    Ties break toward the lowest pool index. A pruned candidate has no
    composite and cannot win.
    """
    if not pool:
        raise ValueError("rerank requires a non-empty candidate pool")
    return _winner(pool, score_pool(req, pool, cfg))


def rerank_steps(req: TransferRequest, pool: list[Candidate],
                 cfg: RerankConfig):
    """:func:`rerank` of a non-empty pool as sans-IO steps (see
    :func:`_score_steps`)."""
    return _winner(pool, (yield from _score_steps(req, pool, cfg)))


def _winner(pool: list[Candidate], scores: list[RerankScore]
            ) -> tuple[Candidate, list[RerankScore]]:
    return pool[_first_max([s.composite for s in scores])], scores


def top_beam_baseline(pool: list[Candidate]) -> Candidate:
    """The candidate the generator ranked highest, ties to the lowest index."""
    if not pool:
        raise ValueError("top_beam_baseline requires a non-empty pool")
    return pool[_first_max([c.gen_score for c in pool])]

