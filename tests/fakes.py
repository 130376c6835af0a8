"""Hand-built backends for scoring scenarios whose answers a test fixes."""

import numpy as np

from restyle.backends import BackendError, EmbeddingResponse, MaskFillResponse


class StaticMaskBackend:
    """Fixed raw likelihood table; labels missing from it score 0."""

    def __init__(self, table: dict[str, float]):
        self.table = dict(table)

    def fill_mask(self, text: str, labels: list[str]) -> MaskFillResponse:
        return MaskFillResponse({label: self.table.get(label, 0.0)
                                 for label in labels})


class FixedEmbedBackend:
    """Embeds each whitespace token via an explicit token -> vector table."""

    def __init__(self, table: dict[str, tuple[float, ...]]):
        if not table:
            raise ValueError("embedding table must be non-empty")
        dims = {len(v) for v in table.values()}
        if len(dims) != 1:
            raise ValueError("all table vectors must share one dim")
        self.table = {k: np.array(v, dtype=np.float64) for k, v in table.items()}
        self.dim = dims.pop()

    def embed_tokens(self, text: str) -> EmbeddingResponse:
        try:
            rows = [self.table[tok] for tok in text.split()]
        except KeyError as exc:
            raise BackendError(f"token {exc.args[0]!r} not in embedding table")
        return EmbeddingResponse(vectors=rows, dim=self.dim)
