import rulemix


def test_every_public_name_resolves():
    assert len(set(rulemix.__all__)) == len(rulemix.__all__)
    assert rulemix.__all__ == sorted(rulemix.__all__)
    missing = [name for name in rulemix.__all__ if not hasattr(rulemix, name)]
    assert missing == []
