"""Every name a module lists in ``__all__`` is defined in that module, so a
name deleted from ``src/coverdiam`` cannot stay listed, and has a caller in
the package or the benchmark, so code that only the tests run lives in the
tests."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_every_listed_name_has_a_caller():
    """A listed name is called from the package or the benchmark, not only
    from the tests; the package never imports the tests."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "coverdiam"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "bench").glob("*.py"))
    lines = [line for p in sources for line in p.read_text(encoding="utf-8").splitlines()]
    uncalled = []
    for name in MODULES:
        for attr in getattr(importlib.import_module(name), "__all__", ()):
            word = re.compile(rf"\b{re.escape(attr)}\b")
            # a name's own def/class line and its __all__ entry do not count
            own = re.compile(
                rf"^\s*(?:(?:def|class)\s+{re.escape(attr)}\b|[\"']{re.escape(attr)}[\"'],?\s*$)"
            )
            if not any(word.search(line) and not own.search(line) for line in lines):
                uncalled.append(f"{name}.{attr}")
    assert not uncalled, f"listed in __all__ but called only from the tests: {uncalled}"
    from_tests = re.compile(r"^\s*(?:from\s+\.*tests\b|import\s+tests\b)", re.MULTILINE)
    importing = [
        p.name for p in sorted(package.glob("*.py")) if from_tests.search(p.read_text(encoding="utf-8"))
    ]
    assert not importing, f"package modules import from tests: {importing}"
