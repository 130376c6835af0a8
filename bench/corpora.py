"""Seeded input generators: the same seed always gives the same inputs."""

from __future__ import annotations

import random

from restyle.mocks import ANTONYMS, antonym_flip

POSITIVE = tuple(ANTONYMS)
NEGATIVE = tuple(ANTONYMS.values())
FILLER = (
    "the", "food", "was", "and", "service", "staff", "room", "place", "very",
    "really", "our", "waiter", "menu", "with", "a", "of", "we", "it", "this",
    "table", "coffee", "bread", "view", "hotel", "price", "at", "for", "they",
    "were", "in", "my", "dinner", "lunch", "breakfast", "soup", "is", "too",
    "all", "night", "morning", "bar", "wine", "dessert", "pizza", "salad",
)


def sentiment_rows(seed: int, n: int) -> list[dict]:
    """``n`` dataset rows of 5-40 words, each of one sentiment polarity.

    Every source holds one or more lexicon words of its own polarity and no
    word of the other, and at most a quarter of its words are lexicon words,
    so the antonym flip is the clear rerank winner. The reference is the
    antonym flip of the source. Lengths cycle through 5..40, so every seed
    gives the same length mix and seeds differ only in the words.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        length = 5 + i % 36
        positive = rng.random() < 0.5
        words = [rng.choice(FILLER) for _ in range(length)]
        lexicon = POSITIVE if positive else NEGATIVE
        for at in rng.sample(range(length), rng.randint(1, length // 4)):
            words[at] = rng.choice(lexicon)
        if rng.random() < 0.3:
            at = rng.randrange(length - 1)
            words[at] += ","
        if rng.random() < 0.5:
            words[-1] += "."
        source = " ".join(words)
        styles = ("positive", "negative") if positive else ("negative", "positive")
        rows.append({"id": f"s{seed}-{i:05d}", "source": source,
                     "reference": antonym_flip(source),
                     "source_style": styles[0], "target_style": styles[1]})
    return rows


_VOCAB = FILLER + POSITIVE + NEGATIVE + ("it's", "don't", "(really)", "well!",
                                         "yes?", "e.g.", "co-op", "100%")


def _edit(rng: random.Random, words: list[str], rate: float) -> list[str]:
    out = []
    for word in words:
        roll = rng.random()
        if roll < rate / 3:
            continue
        if roll < 2 * rate / 3:
            out.append(rng.choice(_VOCAB))
        elif roll < rate:
            out.extend((word, rng.choice(_VOCAB)))
        else:
            out.append(word)
    return out or [rng.choice(_VOCAB)]


def eval_triples(seed: int, n: int) -> list[tuple[str, str, str]]:
    """``n`` (src, hyp, ref) triples of 5-60 source words.

    The reference and hypothesis are independent word-level edits of the
    source (drops, substitutions, insertions); one hypothesis in ten is the
    reference itself, so exact match is not zero. Source lengths cycle
    through 5..60, as in :func:`sentiment_rows`.
    """
    rng = random.Random(seed)
    triples = []
    for i in range(n):
        src = [rng.choice(_VOCAB) for _ in range(5 + i % 56)]
        ref = _edit(rng, src, 0.3)
        hyp = list(ref) if rng.random() < 0.1 else _edit(rng, src, 0.4)
        triples.append((" ".join(src), " ".join(hyp), " ".join(ref)))
    return triples
