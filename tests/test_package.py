"""The package's public namespace."""

import purcell_lab


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from purcell_lab import *", namespace)
    assert len(set(purcell_lab.__all__)) == len(purcell_lab.__all__)
    for name in purcell_lab.__all__:
        assert namespace[name] is getattr(purcell_lab, name)
