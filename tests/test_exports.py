import importlib
import pkgutil

import spectralbox


def test_every_exported_name_resolves():
    modules = [spectralbox] + [
        importlib.import_module(f"spectralbox.{info.name}")
        for info in pkgutil.iter_modules(spectralbox.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__
