import types

import cappedkc


def test_every_export_resolves_once():
    names = cappedkc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cappedkc, name)] == []
    # and every public name the package imports is listed
    public = {
        name
        for name, value in vars(cappedkc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
