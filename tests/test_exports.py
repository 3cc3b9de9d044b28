"""Package exports: every name a module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        # Importing ``repro.__main__`` runs the CLI.
        if info.name != "repro.__main__":
            names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_every_package_is_walked():
    assert {"repro.netlist", "repro.netlist.opt", "repro.netlist.sat",
            "repro.obs", "repro.server", "repro.verilog"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
