import importlib
import pkgutil

import pytest

import kirchlab

MODULES = ["kirchlab"] + [
    f"kirchlab.{info.name}" for info in pkgutil.iter_modules(kirchlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
