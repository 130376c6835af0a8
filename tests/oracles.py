"""Brute-force references the library is checked against.

The metric scorers are independent of the library implementation. They
were written before the main metrics module and kept deliberately naive: n-grams are materialized as plain lists, clipping uses
per-distinct-gram minimum counts, and the geometric mean is a literal
product raised to 1/4. The only shared convention with the library is the
token-list input. :func:`oracle_tokenize` is the character loop the
library's regex tokenizer must equal.

:func:`oracle_rerank_plan` replays the rerank's best-first rule by linear
scan. :func:`oracle_transfer_corpus` runs a corpus the naive way and shares
only the library's public single-text functions: every factor of every
candidate, with the summary built from the metric scorers here.
"""

import hashlib
import json
import math

from restyle import backends
from restyle.backends import CompletionRequest
from restyle.prompts import (
    delimiter_name,
    extract_completion,
    render_cloze,
    render_prompt,
    template_name,
)
from restyle.reranking import (
    PROB_FLOOR,
    _first_max,
    classifier_strength,
    fluency_logprob,
    similarity_score,
    style_strength,
)

# The order the rerank asks a text's log factors in.
FACTORS = ("log_fluency", "log_strength", "log_similarity")


def oracle_tokenize(text):
    """Character loop: lowercase, split on whitespace, and make every
    character that is neither alphanumeric nor "_" a token of its own."""
    out = []
    word = []
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


def ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def clipped_matches(hyp_grams, ref_grams):
    matched = 0
    for gram in set(hyp_grams):
        matched += min(hyp_grams.count(gram), ref_grams.count(gram))
    return matched


def oracle_bleu(hyp_token_lists, ref_token_lists):
    """Corpus BLEU-4 in [0, 100]: clipped precisions with add-one smoothing on
    zero-match orders n >= 2, exponential brevity penalty."""
    assert len(hyp_token_lists) == len(ref_token_lists) and hyp_token_lists
    hyp_len = sum(len(h) for h in hyp_token_lists)
    ref_len = sum(len(r) for r in ref_token_lists)

    precisions = []
    for n in range(1, 5):
        matched = 0
        total = 0
        for hyp, ref in zip(hyp_token_lists, ref_token_lists):
            hgrams = ngram_list(hyp, n)
            rgrams = ngram_list(ref, n)
            matched += clipped_matches(hgrams, rgrams)
            total += len(hgrams)
        if matched == 0 and n >= 2:
            precisions.append((matched + 1) / (total + 1))
        elif total > 0:
            precisions.append(matched / total)
        else:
            precisions.append(0.0)

    if 0.0 in precisions:
        return 0.0
    geo_mean = (precisions[0] * precisions[1] * precisions[2] * precisions[3]) ** 0.25
    if hyp_len >= ref_len:
        bp = 1.0
    elif hyp_len == 0:
        bp = math.exp(1 - ref_len)
    else:
        bp = math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * geo_mean


def oracle_gleu(src_tokens, hyp_tokens, ref_tokens):
    """Sentence GLEU in [0, 1]: hyp/ref overlap minus hyp overlap with
    source-only n-grams, zero statistics smoothed to one."""
    assert src_tokens and hyp_tokens and ref_tokens
    stats = [len(hyp_tokens), len(ref_tokens)]
    for n in range(1, 5):
        hgrams = ngram_list(hyp_tokens, n)
        sgrams = ngram_list(src_tokens, n)
        rgrams = ngram_list(ref_tokens, n)
        src_only = [g for g in sgrams if g not in rgrams]
        numerator = clipped_matches(hgrams, rgrams) - clipped_matches(hgrams, src_only)
        stats.append(max(numerator, 0))
        stats.append(max(len(hyp_tokens) + 1 - n, 0))
    stats = [s if s != 0 else 1 for s in stats]
    hyp_len, ref_len = stats[0], stats[1]
    product = 1.0
    for i in range(2, 10, 2):
        product *= stats[i] / stats[i + 1]
    bp = math.exp(min(0.0, 1 - ref_len / hyp_len))
    return bp * product ** 0.25


def known_bound(known):
    """The float sum of a text's known log factors, in the composite's own
    order ``(log_similarity + log_strength) + log_fluency``; 0 with none."""
    total = None
    for factor in reversed(FACTORS):
        if known.get(factor) is not None:
            total = known[factor] if total is None else total + known[factor]
    return 0.0 if total is None else total


def oracle_rerank_plan(factors, use_fluency):
    """Replay the best-first rule over ``factors``, a dict from each distinct
    text, in first-seen order, to its log factors by name.

    Each round scans every pending text, takes the first with the highest
    :func:`known_bound`, and stops if that bound is below the best full
    composite; otherwise the text's next factor in :data:`FACTORS` order
    becomes known. Returns the ``(factor, text)`` asks in order and each
    text's known factors at the stop. A factor the rule asks for must be in
    ``factors``; one it never asks for may be None.
    """
    order = FACTORS if use_fluency else FACTORS[1:]
    known = {text: {} for text in factors}
    asks = []
    best = -math.inf
    while True:
        pending = [text for text in factors if len(known[text]) < len(order)]
        if not pending:
            break
        top = max(pending, key=lambda text: known_bound(known[text]))
        if known_bound(known[top]) < best:
            break
        factor = order[len(known[top])]
        assert factors[top][factor] is not None, (top, factor)
        known[top][factor] = factors[top][factor]
        asks.append((factor, top))
        if len(known[top]) == len(order):
            best = max(best, known_bound(known[top]))
    return asks, known


def _top_label(scores):
    """The label with the highest likelihood, the first in sorted order on
    ties."""
    best = None
    for label in sorted(scores):
        if best is None or scores[label] > scores[best]:
            best = label
    return best


def oracle_transfer_corpus(records, plan, cfg, *, seed=None):
    """A corpus run one example at a time, with no pruning and no threads.

    Every candidate, repeats too, gets every enabled factor from the public
    single-text functions, the winner is the :func:`_first_max` of the full
    composites, and the summary comes from the metric scorers above, with
    accuracy from a live label call per winner and perplexity from a /score
    call per winner. A label question goes to the classifier endpoint when
    one is set, except strength under ``mlm_cloze``, and otherwise to the
    mask filler with the text's cloze. Returns a dict with the ``run_id``, the
    ``records`` (candidates, full score entries, winner and baseline) and
    the ``summary`` fields that apply.
    """
    endpoints = cfg.endpoints
    strength = (classifier_strength
                if cfg.strength_source == "external_classifier"
                and endpoints.classifier is not None
                else style_strength)
    out = []
    for position, rec in enumerate(records):
        req = plan.request_for(rec)
        prompt = render_prompt(req)
        resp = backends.complete(endpoints, CompletionRequest(
            prompt=prompt, max_new_tokens=cfg.max_new_tokens,
            num_candidates=cfg.k, stop=req.delimiter.close,
            seed=None if seed is None else seed + position,
            decode=cfg.decode))
        candidates = []
        for index, gen in enumerate(resp.candidates):
            extraction = extract_completion(gen.text, req.delimiter)
            if extraction.text:
                candidates.append({"index": index, "text": extraction.text,
                                   "gen_score": gen.gen_score,
                                   "unterminated": extraction.unterminated})
        scores = []
        for cand in candidates:
            sim = similarity_score(req.input_text, cand["text"], endpoints)
            p_strength, _ = strength(cand["text"], req.source_style,
                                     req.target_style, endpoints)
            log_sim = math.log(max(sim, PROB_FLOOR))
            log_strength = math.log(max(p_strength, PROB_FLOOR))
            composite = log_sim + log_strength
            log_fluency = None
            if cfg.use_fluency:
                log_fluency, _ = fluency_logprob(cand["text"], endpoints)
                composite += log_fluency
            scores.append({"log_similarity": log_sim,
                           "log_strength": log_strength,
                           "log_fluency": log_fluency,
                           "composite": composite})
        winner = candidates[_first_max([s["composite"] for s in scores])]
        baseline = candidates[_first_max([c["gen_score"] for c in candidates])]
        out.append({"candidates": candidates, "scores": scores,
                    "winner_index": winner["index"],
                    "baseline_index": baseline["index"],
                    "winner": winner["text"], "baseline": baseline["text"]})

    winners = [r["winner"] for r in out]
    summary = {"s_sbleu": oracle_bleu([oracle_tokenize(w) for w in winners],
                                      [oracle_tokenize(r.source)
                                       for r in records])}
    referenced = [(r.source, w, r.reference) for r, w in zip(records, winners)
                  if r.reference is not None and r.reference.strip()]
    if referenced:
        summary["r_sbleu"] = oracle_bleu(
            [oracle_tokenize(w) for _, w, _ in referenced],
            [oracle_tokenize(ref) for _, _, ref in referenced])
        summary["exact_match"] = sum(
            w.strip() == ref.strip() for _, w, ref in referenced) / len(referenced)
        summary["gleu"] = sum(
            oracle_gleu(oracle_tokenize(src), oracle_tokenize(w),
                        oracle_tokenize(ref))
            for src, w, ref in referenced) / len(referenced)
    labels = sorted({style for r in records
                     for style in (r.source_style, r.target_style)})
    if len(labels) >= 2:
        def accuracy_scores(text):
            if endpoints.classifier is not None:
                return backends.classify(endpoints, text, labels).scores
            return backends.fill_mask(
                endpoints, render_cloze(text, endpoints.mask_token),
                labels).scores

        hits = sum(_top_label(accuracy_scores(w)) == r.target_style
                   for r, w in zip(records, winners))
        summary["accuracy"] = hits / len(records)
    total_logprob, total_tokens = 0.0, 0
    for w in winners:
        logprob, tokens = fluency_logprob(w, endpoints)
        total_logprob += logprob
        total_tokens += tokens
    summary["ppl"] = math.exp(-total_logprob / total_tokens)

    config = {
        "template": template_name(plan.template),
        "delimiter": {"name": delimiter_name(plan.delimiter),
                      "open": plan.delimiter.open,
                      "close": plan.delimiter.close},
        "shots": len(plan.exemplars), "k": cfg.k,
        "use_fluency": cfg.use_fluency,
        "strength_source": cfg.strength_source,
        "max_new_tokens": cfg.max_new_tokens,
        "decode": cfg.decode.to_wire(cfg.k),
        "endpoints": endpoints.snapshot(), "seed": seed,
    }
    run_id = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    return {"run_id": run_id, "records": out, "summary": summary}
