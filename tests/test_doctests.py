"""The examples in every ``starfact`` docstring run and print what they state."""

import doctest
import importlib
import pkgutil

import pytest

import starfact

MODULES = sorted(info.name for info in pkgutil.iter_modules(starfact.__path__, "starfact."))


@pytest.mark.parametrize("name", ["starfact", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
