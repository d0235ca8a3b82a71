import types

import lexres


def test_all_lists_public_names_not_modules():
    assert len(lexres.__all__) == len(set(lexres.__all__))
    for name in lexres.__all__:
        assert not isinstance(getattr(lexres, name), types.ModuleType), name
    namespace = {}
    exec("from lexres import *", namespace)  # resolves every name in __all__
    assert set(lexres.__all__) <= namespace.keys()
