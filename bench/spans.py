"""Span tracing from outside the program.

:class:`Tracer` replaces public functions at the module attribute their
callers look them up through (``restyle.pipeline.render_prompt``,
``restyle.reranking.similarity_score``, ...) with wrappers that record a span
per call: name, start, end, parent span, example id and thread. Each thread
keeps its own span stack; a span opened on an empty stack, such as a
``transfer_one`` in a pool thread, takes the outermost open span as its
parent. A span's example id is the ``example_id`` of the ``transfer_one``
call it runs under. Self time is a span's duration minus the union of its
children's intervals, so children running in parallel are not counted twice.
Spans stay in memory until :meth:`Tracer.write`. The library itself is not
changed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("restyle.pipeline", "transfer_corpus", "pipeline.transfer_corpus"),
    ("restyle.pipeline", "transfer_one", "pipeline.transfer_one"),
    ("restyle.pipeline", "render_prompt", "prompts.render_prompt"),
    ("restyle.pipeline", "extract_completion", "prompts.extract_completion"),
    ("restyle.pipeline", "rerank", "reranking.rerank"),
    ("restyle.reranking", "similarity_score", "reranking.similarity_score"),
    ("restyle.reranking", "style_strength", "reranking.style_strength"),
    ("restyle.reranking", "fluency_logprob", "reranking.fluency_logprob"),
    ("restyle.backends", "complete", "backends.complete"),
    ("restyle.backends", "embed_tokens", "backends.embed"),
    ("restyle.backends", "fill_mask", "backends.fill_mask"),
    ("restyle.backends", "score_tokens", "backends.score"),
    ("restyle.backends", "classify", "backends.classify"),
    ("restyle.metrics", "corpus_bleu", "metrics.corpus_bleu"),
    ("restyle.metrics", "tokenize_eval", "metrics.tokenize_eval"),
    ("restyle.metrics", "corpus_gleu", "metrics.corpus_gleu"),
    ("restyle.metrics", "classifier_accuracy", "metrics.classifier_accuracy"),
    ("restyle.metrics", "corpus_perplexity", "metrics.corpus_perplexity"),
)
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "example", "thread",
               "self_s", "error")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._root = None

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans, ids, local = self.spans, self._ids, self._local
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            example = kwargs.get("example_id")
            if example is None and parent is not None:
                example = parent[2]
            frame = [next(ids), [], example]  # id, child intervals, example
            if parent is None:
                self._root = frame
            stack.append(frame)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                if parent is None:
                    self._root = None
                else:
                    parent[1].append((start, end))
                spans.append((frame[0], name, start, end,
                              parent[0] if parent else None, example,
                              get_ident(), end - start - _covered(frame[1]),
                              error))

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, durations, total self time and errors."""
        out: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "durations": [], "self_s": 0.0, "errors": 0})
        for _, name, start, end, _, _, _, self_s, error in self.spans:
            entry = out[name]
            entry["count"] += 1
            entry["durations"].append(end - start)
            entry["self_s"] += self_s
            entry["errors"] += error
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
