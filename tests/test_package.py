import edgereuse


def test_all_is_sorted_unique_and_resolves():
    names = edgereuse.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(edgereuse, name)]
    assert missing == []
