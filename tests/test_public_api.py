"""Release-quality checks on the public API surface.

Every name exported through ``__all__`` must resolve, and every public
module, class and function must carry a docstring — the deliverable is
a library, not a script pile.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cdma",
    "repro.coloring",
    "repro.distributed",
    "repro.events",
    "repro.geometry",
    "repro.gossip",
    "repro.matching",
    "repro.sim",
    "repro.strategies",
    "repro.strategies.cp",
    "repro.strategies.minim",
    "repro.topology",
]


def iter_all_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            yield importlib.import_module(info.name)


ALL_MODULES = list(iter_all_modules())


class TestExports:
    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_dunder_all_resolves(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"

    def test_top_level_exports_cover_the_core_objects(self):
        for name in (
            "AdHocNetwork",
            "MinimStrategy",
            "CPStrategy",
            "BBBGlobalStrategy",
            "NodeConfig",
            "CodeAssignment",
        ):
            assert name in repro.__all__

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2 and all(p.isdigit() for p in parts[:2])


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_documented(self, module):
        assert module.__doc__ and module.__doc__.strip()

    @staticmethod
    def _documented(cls, method_name) -> bool:
        """A method counts as documented if any class in the MRO documents
        it — interface contracts live on the ABC / protocol base."""
        for base in cls.__mro__:
            meth = vars(base).get(method_name)
            if meth is not None and getattr(meth, "__doc__", None):
                if meth.__doc__.strip():
                    return True
        return False

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_items_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if not self._documented(obj, mname):
                            undocumented.append(f"{name}.{mname}")
        assert not undocumented, f"{module.__name__}: undocumented {undocumented}"
