import types

import sepmix
from sepmix import errors


def test_all_names_resolve():
    missing = [name for name in sepmix.__all__ if not hasattr(sepmix, name)]
    assert not missing
    assert len(set(sepmix.__all__)) == len(sepmix.__all__)


def test_all_is_exactly_the_public_bindings():
    bound = {
        name
        for name, value in vars(sepmix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sepmix.__all__) == bound


def test_every_error_class_is_exported():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert classes <= set(sepmix.__all__)
