"""Backend wire contract and the deterministic mocks
====================================================

Four services drive the pipeline: /complete, /score, /fill_mask, /embed.
Endpoints are URLs; mock:// URLs resolve to in-process stand-ins that are
pure functions of the request, which is what makes every test and demo
reproducible.
"""

import math

from restyle import (
    BackendEndpoints,
    CompletionRequest,
    StyleLabel,
    TransferRequest,
    complete,
    embed_tokens,
    fill_mask,
    render_prompt,
    score_tokens,
)

endpoints = BackendEndpoints(
    complete="mock://lexicon-flip",
    score="mock://uniform?vocab=50257",
    fill_mask="mock://sentiment",
    embed="mock://hash-embed?dim=32",
)

prompt = render_prompt(TransferRequest(
    input_text="good food", source_style=StyleLabel("positive"),
    target_style=StyleLabel("negative")))

# Completion: k candidates ordered by generator score. The flip mock swaps
# antonyms for candidate 1 and pads copies for the rest.
resp = complete(endpoints, CompletionRequest(prompt=prompt, num_candidates=3,
                                             stop="}"))
print("--- /complete")
for cand in resp.candidates:
    print(f"  gen_score={cand.gen_score:+.2f}  {cand.text!r}")

# Token scoring: per-token conditional log-probabilities, here uniform.
scored = score_tokens(endpoints, "bad food")
print("\n--- /score")
for tok in scored.tokens:
    print(f"  {tok.token:6} logprob={tok.logprob:.4f}")
print("  sum:", scored.total_logprob, "(= 2 * -ln 50257 =",
      -2 * math.log(50257), ")")

# Mask filling: raw label likelihoods at the mask position of a cloze.
masked = fill_mask(endpoints, "The following text is <mask>: [bad food].",
                   ["positive", "negative"])
print("\n--- /fill_mask")
print(" ", masked.scores)

# Embeddings: one unit vector per token, hashed from the token string, so
# identical texts embed identically on every call.
first = embed_tokens(endpoints, "fresh bread")
second = embed_tokens(endpoints, "fresh bread")
print("\n--- /embed")
print(f"  dim={first.dim}, vectors={len(first.vectors)}, "
      f"deterministic={first == second}")

# Determinism extends to completions: same request, byte-identical response.
again = complete(endpoints, CompletionRequest(prompt=prompt, num_candidates=3,
                                              stop="}"))
print("\nsame request -> identical response:", resp == again)
