"""Every name a module lists in ``__all__`` is defined in that module, so a
name deleted from ``src/coverdiam`` cannot stay listed."""

import importlib
import pkgutil

import coverdiam

MODULES = sorted(f"coverdiam.{m.name}" for m in pkgutil.iter_modules(coverdiam.__path__))


def test_all_names_are_defined():
    listed = [(name, importlib.import_module(name)) for name in MODULES]
    listed = [(name, module) for name, module in listed if hasattr(module, "__all__")]
    assert listed
    missing = [
        f"{name}.{attr}"
        for name, module in listed
        for attr in module.__all__
        if not hasattr(module, attr)
    ]
    assert not missing, f"listed in __all__ but not defined: {missing}"
