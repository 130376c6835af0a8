"""End-to-end corpus run and prompt-design sweep
===============================================

The whole pipeline against the mock suite: transfer a toy sentiment corpus,
inspect the manifest, compare against the copy baseline, then sweep two
templates over three delimiter pairs and print the CSV table.
"""

import json

from restyle import (
    DELIMITERS,
    TEMPLATES,
    RequestTemplate,
    RerankConfig,
    StylePairRecord,
    SweepGrid,
    copy_baseline,
    run_sweep,
    transfer_corpus,
)
from restyle.mocks import mock_endpoints
from restyle.pipeline import directions_in

records = [
    StylePairRecord("p0", "the food was good", None, "positive", "negative"),
    StylePairRecord("p1", "great service and fresh bread", None, "positive", "negative"),
    StylePairRecord("n0", "the room was dirty", None, "negative", "positive"),
    StylePairRecord("n1", "terrible food and rude staff", None, "negative", "positive"),
]

endpoints = mock_endpoints()
cfg = RerankConfig(k=3, endpoints=endpoints)

# Corpus transfer: every record rendered, generated, extracted, reranked.
manifest = transfer_corpus(records, RequestTemplate(), cfg, seed=0)
print("run:", manifest.run_id)
for record in manifest.records:
    print(f"  {record['id']}: {record['source']!r} -> {record['winner']!r}")
print("summary:", json.dumps(manifest.summary.to_dict(), indent=2))

# The copy baseline: s-sBLEU 100 by construction, accuracy 0 here because
# copies keep their source sentiment.
baseline = copy_baseline(records, endpoints)
print("\ncopy baseline:", json.dumps(baseline.to_dict()))

# A small sweep: 2 templates x 3 delimiters x 2 directions = 12 cells.
grid = SweepGrid(
    templates=(TEMPLATES["vanilla"], TEMPLATES["contrastive"]),
    delimiters=tuple(DELIMITERS[n] for n in ("curly", "square", "quote")),
    directions=directions_in(records),
)
result = run_sweep(records, grid, cfg, seed=0)
print("\nsweep table:")
print(result.to_csv())
