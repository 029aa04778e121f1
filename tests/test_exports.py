import homcollapse


def test_every_export_resolves_once():
    # a name left in __all__ after its definition is deleted fails here
    names = homcollapse.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(homcollapse, n)] == []
