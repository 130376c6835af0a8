"""Prompt-based arbitrary textual style transfer with candidate reranking.

The pipeline renders a natural-language prompt around the input text, asks a
language-model backend for several candidate rewrites, extracts them from the
delimited generation slot, and picks the winner by combining three scores:
textual similarity to the source, target style strength from a masked-LM
cloze, and fluency. Evaluation metrics (r/s-sBLEU, sentence GLEU, perplexity,
classifier and exact-match accuracy) are implemented from scratch.
"""

from .backends import (
    BackendEndpoints,
    BackendError,
    CompletionRequest,
    CompletionResponse,
    DecodeConfig,
    EmbeddingResponse,
    Generation,
    LabelError,
    MalformedResponseError,
    MaskFillResponse,
    ServiceError,
    TokenScoreResponse,
    TransportError,
    complete,
    embed_tokens,
    fill_mask,
    score_tokens,
)
from .data import (
    ComparisonParseError,
    DatasetError,
    StylePairRecord,
    SymbSpec,
    clean_text,
    generate_symb,
    load_dataset,
    parse_comparison,
    save_records,
    verbalize_comparison,
)
from .metrics import (
    BleuReport,
    EvalRow,
    EvalSummary,
    MetricError,
    classifier_accuracy,
    corpus_bleu,
    corpus_gleu,
    corpus_perplexity,
    exact_match_accuracy,
    ref_sbleu,
    self_sbleu,
    sentence_gleu,
    summarize,
    tokenize_eval,
)
from .pipeline import (
    PipelineError,
    RequestTemplate,
    RunManifest,
    SweepGrid,
    SweepResult,
    copy_baseline,
    read_manifest,
    records_in,
    reevaluate_manifest,
    run_sweep,
    select_exemplars,
    transfer_corpus,
    transfer_one,
    write_manifest,
)
from .prompts import (
    DELIMITERS,
    TEMPLATES,
    DelimiterCollisionError,
    DelimiterPair,
    Exemplar,
    ExtractionResult,
    PromptConfig,
    PromptError,
    TransferRequest,
    extract_completion,
    load_prompt_config,
    parse_direction,
    parse_style,
    render_cloze,
    render_prompt,
)
from .reranking import (
    Candidate,
    RerankConfig,
    RerankScore,
    fluency_logprob,
    rerank,
    similarity_score,
    style_strength,
    top_beam_baseline,
)

__version__ = "0.1.0"
