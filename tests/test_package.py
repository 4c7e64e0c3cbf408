import dmkit


def test_public_names_resolve_sorted_and_unique():
    names = dmkit.__all__
    assert [n for n in names if not hasattr(dmkit, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
