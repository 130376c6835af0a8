"""Brute-force reference scorers, independent of the library implementation.

Written before the main metrics module and kept deliberately naive: n-grams
are materialized as plain lists, clipping uses per-distinct-gram minimum
counts, and the geometric mean is a literal product raised to 1/4. The only
shared convention with the library is the token-list input.
:func:`oracle_tokenize` is the character loop the library's regex tokenizer
must equal.
"""

import math


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
