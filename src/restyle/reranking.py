"""Candidate scoring and selection.

Each candidate rewrite is scored by three probability factors, combined in
log space:

* similarity: greedy-matching F1 over pairwise cosine similarities of
  contextual token embeddings of the source and the candidate,
* strength: the probability that the candidate carries the target style,
  estimated from masked-LM cloze likelihoods over the two style words and
  l1-normalized,
* fluency: the candidate's total log-probability under a language model
  (optional; it penalizes long or rare-word texts, so a no-fluency variant
  is provided).

The winner is the candidate with the highest composite. The top-beam
baseline instead takes the candidate the generator itself ranked first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """How a run generates its ``k`` candidates and how it scores them."""

    k: int = 3
    max_new_tokens: int = CompletionRequest.max_new_tokens
    decode: DecodeConfig = CompletionRequest.decode
    use_fluency: bool = True
    strength_source: str = "mlm_cloze"
    endpoints: BackendEndpoints = BackendEndpoints()

    def __post_init__(self):
        check_count(self.k, "k")
        check_count(self.max_new_tokens, "max_new_tokens")
        if self.strength_source not in STRENGTH_SOURCES:
            raise ValueError(
                f"strength_source must be one of {STRENGTH_SOURCES}"
            )


@dataclass(frozen=True)
class RerankScore:
    """The log factors of one candidate; composite sums the enabled terms.

    ``fluency_tokens`` is the token count of the /score response behind
    ``log_fluency``; perplexity needs it, the score record does not.
    """

    log_similarity: float
    log_strength: float
    log_fluency: float | None
    composite: float
    fluency_tokens: int | None = None

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
    return _similarities(src, [cand], endpoints)[0]


def _similarities(src: str, texts: list[str],
                  endpoints: BackendEndpoints) -> list[float]:
    """:func:`similarity_score` of each text against ``src``, embedding the
    source once and then each text that is not the source."""
    src_rows = _unit_rows(backends.embed_tokens(endpoints, src))
    # A fresh buffer: A @ A.T on one array takes NumPy's symmetric product,
    # whose last bits differ from the general one.
    rows = [src_rows.copy() if text == src
            else _unit_rows(backends.embed_tokens(endpoints, text))
            for text in texts]
    return [_greedy_f1(src_rows, cand_rows) for cand_rows in rows]


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


def _unit_rows(resp: backends.EmbeddingResponse) -> np.ndarray:
    # np.linalg.norm(mat, axis=1, keepdims=True) computes exactly this for a
    # real matrix, behind a Python wrapper that costs more than the math.
    mat = resp.vectors
    return mat / np.sqrt(np.add.reduce(mat * mat, axis=1, keepdims=True))


def _label_strength(lookup, text: str, s1: str, s2: str,
                    endpoints: BackendEndpoints) -> float:
    """The l1-normalized likelihood of s2 against s1, 0.5 when both are zero,
    from the raw label likelihoods ``lookup`` returns for ``text``."""
    scores = lookup(endpoints, text, [s1, s2]).scores
    raw_source, raw_target = scores[s1], scores[s2]
    total = raw_source + raw_target
    if total == 0:
        return 0.5
    return raw_target / total


def style_strength(cand: str, s1: str, s2: str,
                   endpoints: BackendEndpoints) -> float:
    """Probability in [0, 1] that the text carries style s2 rather than s1.

    The text is wrapped in the cloze statement, the masked-LM is queried for
    the raw likelihoods of the two style words at the mask position, and the
    pair is l1-normalized. When both raw likelihoods are zero the result is
    the indifferent 0.5.
    """
    if s1 == s2:
        raise ValueError("style_strength needs two distinct styles")
    return _label_strength(backends.fill_mask,
                           render_cloze(cand, endpoints.mask_token),
                           s1, s2, endpoints)


def classifier_strength(cand: str, s1: str, s2: str,
                        endpoints: BackendEndpoints) -> float:
    """Like style_strength, but from a trained classifier endpoint."""
    return _label_strength(backends.classify, cand, s1, s2, endpoints)


def fluency_logprob(cand: str, endpoints: BackendEndpoints, *,
                    with_token_count: bool = False):
    """Total log-probability of the text: the sum of per-token conditionals.

    With ``with_token_count`` the result is ``(total_logprob, token_count)``,
    the pair token-weighted perplexity is built from.
    """
    resp = backends.score_tokens(endpoints, cand)
    if with_token_count:
        return resp.total_logprob, len(resp.tokens)
    return resp.total_logprob


def _floored_log(p: float) -> float:
    return math.log(max(p, PROB_FLOOR))


def score_pool(req: TransferRequest, pool: list[Candidate],
               cfg: RerankConfig) -> list[RerankScore]:
    """All enabled log factors for every candidate, parallel to ``pool``.

    The pool's distinct texts are scored one factor stage at a time, in
    first-seen order: similarity (the source is embedded once, then each
    text that is not the source), strength, then fluency, so a failed stage
    ends the example before any later stage's backend calls. A repeated
    text shares its first occurrence's scores, so every candidate scores
    exactly as it would alone.
    """
    endpoints = cfg.endpoints
    texts = list(dict.fromkeys(cand.text for cand in pool))
    sims = _similarities(req.input_text, texts, endpoints)
    strength = (classifier_strength
                if cfg.strength_source == "external_classifier"
                else style_strength)
    strengths = [strength(text, req.source_style, req.target_style, endpoints)
                 for text in texts]
    fluencies = ([fluency_logprob(text, endpoints, with_token_count=True)
                  for text in texts] if cfg.use_fluency
                 else [(None, None)] * len(texts))
    by_text = {}
    for text, sim, p_strength, (log_fluency, tokens) in zip(
            texts, sims, strengths, fluencies):
        log_sim, log_strength = _floored_log(sim), _floored_log(p_strength)
        composite = log_sim + log_strength
        if log_fluency is not None:
            composite += log_fluency
        by_text[text] = RerankScore(log_sim, log_strength, log_fluency,
                                    composite, tokens)
    return [by_text[cand.text] for cand in pool]


def _first_max(values: list[float]) -> int:
    """Index of the largest value, ties to the lowest index."""
    return max(range(len(values)), key=values.__getitem__)


def rerank(req: TransferRequest, pool: list[Candidate],
           cfg: RerankConfig) -> tuple[Candidate, list[RerankScore]]:
    """Score every candidate and pick the composite argmax.

    Ties break toward the lowest pool index.
    """
    if not pool:
        raise ValueError("rerank requires a non-empty candidate pool")
    scores = score_pool(req, pool, cfg)
    return pool[_first_max([s.composite for s in scores])], scores


def top_beam_baseline(pool: list[Candidate]) -> Candidate:
    """The candidate the generator ranked highest, ties to the lowest index."""
    if not pool:
        raise ValueError("top_beam_baseline requires a non-empty pool")
    return pool[_first_max([c.gen_score for c in pool])]

