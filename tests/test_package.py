import zlq


def test_every_exported_name_resolves():
    missing = [name for name in zlq.__all__ if not hasattr(zlq, name)]
    assert missing == []
    assert len(set(zlq.__all__)) == len(zlq.__all__)
