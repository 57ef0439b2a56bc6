"""The package's public names, loaded from their module on first use (PEP 562)."""

import importlib

import pytest

import ringtrap


def test_each_public_name_is_its_home_modules_object():
    assert len(ringtrap.__all__) == len(set(ringtrap.__all__)) == 47
    listed = dir(ringtrap)
    for name in ringtrap.__all__:
        home = importlib.import_module(f"ringtrap.{ringtrap._HOME[name]}")
        value = getattr(ringtrap, name)
        assert value is getattr(home, name)
        # a class or function is listed under the module that defines it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert name in listed
    assert "__version__" in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'shell_minimum'"):
        ringtrap.shell_minimum
    assert not hasattr(ringtrap, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ringtrap import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(ringtrap.__all__)
    assert all(namespace[n] is getattr(ringtrap, n) for n in ringtrap.__all__)
