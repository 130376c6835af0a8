"""Candidate reranking walkthrough
=================================

Why the highest beam score is not enough: a verbatim copy of the input is
maximally similar and perfectly fluent, yet carries the wrong style. The
composite of the three log factors (similarity, target style strength,
fluency) passes it over. With the fluency factor, the mock scorer's length
penalty lets the truncated 'the food' win; without it, the rewrite wins.
"""

import math

from restyle import Candidate, RerankConfig, TransferRequest
from restyle.mocks import mock_endpoints
from restyle.reranking import (
    fluency_logprob,
    rerank,
    similarity_score,
    style_strength,
    top_beam_baseline,
)

endpoints = mock_endpoints()
source = "the food was good"

# An adversarial pool: the copy sits at the top of the beam.
pool = [
    Candidate(text="the food was good", gen_score=-0.5, index=0),
    Candidate(text="the food was bad", gen_score=-0.7, index=1),
    Candidate(text="the food", gen_score=-0.9, index=2),
]

print("--- factor by factor")
for cand in pool:
    sim = similarity_score(source, cand.text, endpoints)
    strength, likelihoods = style_strength(cand.text, "positive", "negative",
                                           endpoints)
    fluency, tokens = fluency_logprob(cand.text, endpoints)
    print(f"  {cand.text!r:24} sim={sim:.3f} strength={strength:.2f} "
          f"(likelihoods {likelihoods['positive']:.2f} / "
          f"{likelihoods['negative']:.2f}) "
          f"fluency={fluency:8.2f} over {tokens} tokens")

# The copy wins on similarity (1.0) and ties on fluency, but its strength
# toward "negative" is 0.1 against the flip's 0.9: a gap of ln(9) ~ 2.2 in
# log space, far larger than the similarity gap.
req = TransferRequest(input_text=source, source_style="positive",
                      target_style="negative")
cfg = RerankConfig(k=3, endpoints=endpoints)
winner, scores = rerank(req, pool, cfg)
baseline = top_beam_baseline(pool)

# Reranking asks each text's factors in a fixed order: fluency, then
# strength, then similarity. A text's bound is the sum of its known log
# factors, and the text with the highest bound gets its next factor. Every
# log factor is <= 0, so no bound is below the composite it ends in: once
# the best bound left is below the best composite, the rest cannot win and
# are pruned, keeping the factors they were given.
def shown(score):
    if score.composite is not None:
        return f"{score.composite:9.4f}"
    known = [f"{name}={value:.2f}" for name, value in
             (("strength", score.log_strength), ("fluency", score.log_fluency))
             if value is not None]
    return f"   pruned ({', '.join(known)})"


print("\n--- composites")
for cand, score in zip(pool, scores):
    marker = " <- winner" if cand is winner else ""
    print(f"  [{cand.index}] {shown(score)}  {cand.text!r}{marker}")
print(f"\ntop-beam baseline picked: {baseline.text!r}")
print(f"reranker picked:          {winner.text!r}")
print("strength gap ln(0.9/0.1) =", math.log(0.9 / 0.1))

# The no-fluency variant: useful because total log-probability penalizes
# long texts, which can drown the other two factors for wordy candidates,
# as it does here for the truncated 'the food'. Without fluency the loop
# starts at strength: the copy's log-strength ln(0.1) is already below the
# rewrite's composite, so the copy is never embedded.
no_fluency = RerankConfig(k=3, use_fluency=False, endpoints=endpoints)
winner2, scores2 = rerank(req, pool, no_fluency)
print("\nwithout the fluency factor the winner is:", winner2.text)
for cand, score in zip(pool, scores2):
    print(f"  [{cand.index}] {shown(score)}  {cand.text!r}")
