import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from restyle import StylePairRecord
from restyle.mocks import mock_endpoints

POSITIVE = "positive"
NEGATIVE = "negative"


@pytest.fixture
def mock_ep():
    return mock_endpoints()


@pytest.fixture
def sentiment_records():
    """Toy two-direction sentiment corpus built from lexicon words."""
    rows = [
        ("p0", "the food was good", POSITIVE, NEGATIVE),
        ("p1", "great service and fresh bread", POSITIVE, NEGATIVE),
        ("n0", "the room was dirty", NEGATIVE, POSITIVE),
        ("n1", "terrible food and rude staff", NEGATIVE, POSITIVE),
    ]
    return [
        StylePairRecord(id=rid, source=text, reference=None,
                        source_style=src, target_style=dst)
        for rid, text, src, dst in rows
    ]
