"""Run the doctests embedded in the library's docstrings."""

from __future__ import annotations

import doctest

import pytest

import repro.primitives.batched
import repro.primitives.radix
import repro.bench.report


@pytest.mark.parametrize(
    "module",
    [repro.primitives.batched, repro.primitives.radix, repro.bench.report],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, tried = doctest.testmod(module).failed, doctest.testmod(module).attempted
    assert failures == 0
