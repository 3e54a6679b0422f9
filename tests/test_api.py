"""API-surface guard: every name exported through ``__all__`` resolves."""

import importlib

import pytest

MODULES = ["momentgate"] + [f"momentgate.{m}" for m in
                            ("dependence", "errors", "estimators",
                             "montecarlo", "tail_models", "theory")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
