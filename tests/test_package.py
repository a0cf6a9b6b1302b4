"""The package's public names."""

from collections import Counter

import matchboost


def test_every_exported_name_resolves_once():
    assert [name for name, k in Counter(matchboost.__all__).items() if k > 1] == []
    assert [name for name in matchboost.__all__ if not hasattr(matchboost, name)] == []
