import rankgauge


def test_all_names_resolve():
    missing = [name for name in rankgauge.__all__ if not hasattr(rankgauge, name)]
    assert missing == []
