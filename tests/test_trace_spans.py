"""The span tracer behind ``bench/run.py --trace`` against the library.

``bench/spans.py`` wraps library functions at the module attributes their
callers look up. A rename or a call that stops going through one of those
attributes would leave a span silently empty, so this runs a small
``mock://`` corpus under the tracer and checks every span it must record.
"""

import importlib
import importlib.util
from pathlib import Path

from restyle import pipeline
from restyle.mocks import mock_endpoints
from restyle.reranking import RerankConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module_name, attr, _ in load_spans().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


def test_traced_corpus_records_the_call_plan(sentiment_records):
    # Per example at k=3: the flip, a verbatim copy of the source and a
    # padded copy, so d = 3 distinct texts. The padded copy is one token
    # longer and less fluent than the flip's composite, so it is pruned on
    # its fluency, and the copy on its strength: d_s = 2 texts reach
    # strength and c_s = 1 reaches similarity. Accuracy reads the winner's
    # strength likelihoods: no classify call.
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        manifest = pipeline.transfer_corpus(
            sentiment_records, pipeline.RequestTemplate(),
            RerankConfig(k=3, endpoints=mock_endpoints()), jobs=1, seed=3)
    finally:
        tracer.uninstall()
    n = len(sentiment_records)
    assert len(manifest.successful_records()) == n
    counts = {name: entry["count"] for name, entry in tracer.summary().items()}
    expected = {
        "pipeline.transfer_corpus": 1,
        "pipeline.transfer_one": n,
        "prompts.render_prompt": n,
        "prompts.extract_completion": 3 * n,
        "reranking.rerank": n,
        "reranking.style_strength": 2 * n,
        "reranking.fluency_logprob": 3 * n,
        "backends.complete": n,
        "backends.embed": 2 * n,
        "backends.fill_mask": 2 * n,
        "backends.score": 3 * n,
        "backends.classify": 0,
    }
    assert {name: counts.get(name, 0) for name in expected} == expected
    # Spans under transfer_one carry its example id.
    examples = {span[5] for span in tracer.spans if span[1] == "backends.embed"}
    assert examples == {r.id for r in sentiment_records}
