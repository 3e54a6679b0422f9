"""API-surface guard: every name exported through ``__all__`` resolves, and
so does every name the benchmark's tracer patches."""

import importlib
import importlib.util
import pathlib

import pytest

MODULES = ["momentgate"] + [f"momentgate.{m}" for m in
                            ("dependence", "errors", "estimators",
                             "montecarlo", "tail_models", "theory")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _perfbench_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_traced_names_resolve():
    # the benchmark's --trace mode patches these module attributes
    tracer = _perfbench_tracer()
    names = [*tracer.SPANNED, *tracer.COUNTED, *tracer.ALIASES]
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"momentgate.{mod}"), attr)]
    assert names and missing == []


NUMERICAL = ("ConvergenceError", "DegenerateSaddleError",
             "NonPositiveOmegaError", "DegenerateRegressionError",
             "InsufficientPositiveValues", "InsufficientSievedPoints",
             "EmbeddingError", "DivergentError")


def test_numerical_errors_share_one_base():
    # the Monte-Carlo runner counts exactly these as failed replications
    errors = importlib.import_module("momentgate.errors")
    runtime = [name for name in errors.__all__
               if issubclass(getattr(errors, name), RuntimeError)]
    assert sorted(runtime) == sorted(("NumericalError",) + NUMERICAL)
    for name in NUMERICAL:
        assert issubclass(getattr(errors, name), errors.NumericalError)
