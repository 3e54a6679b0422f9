"""API-surface guard: every name exported through ``__all__`` resolves, so
does every name the benchmark's tracer patches (and qc_hat_corr calls the
two it nests under it), every error class has a
raiser, and the README's library, ``theory`` and ``estimate`` examples
print what the README shows."""

import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from momentgate import cli, dependence as dep, tail_models as tm

MODULES = ["momentgate"] + [f"momentgate.{m}" for m in
                            ("dependence", "errors", "estimators",
                             "montecarlo", "tail_models", "theory")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_loads_submodules_on_first_use():
    # in a fresh interpreter, since this one has imported every submodule
    code = """import sys, momentgate
assert not [m for m in sys.modules if m.startswith("momentgate.")]
assert momentgate.theory.critical_curve
assert "momentgate.montecarlo" not in sys.modules
assert all(hasattr(momentgate, name) for name in momentgate.__all__)
assert "momentgate.montecarlo" in sys.modules
try:
    momentgate.nosuch
except AttributeError as exc:
    assert str(exc) == "module 'momentgate' has no attribute 'nosuch'"
else:
    raise AssertionError
"""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")


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



def test_qc_hat_corr_reaches_the_traced_estimators(monkeypatch):
    # the benchmark's trace nests theta_hat and rho_hat spans under
    # qc_hat_corr's through dependence's own imports of the two
    calls = []
    for name in ("theta_hat", "rho_hat"):
        def spy(*args, _name=name, _f=getattr(dep, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(dep, name, spy)
    values = np.arange(1.0, 201.0)
    dep.qc_hat_corr(tm.Sample(values=values, n=200, seed=0), tau=1)
    assert calls == ["theta_hat", "rho_hat"]

NUMERICAL = ("ConvergenceError",
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


def test_every_error_class_is_raised():
    # a class whose last raiser is deleted goes with it; the two bases are
    # only caught
    errors = importlib.import_module("momentgate.errors")
    src = pathlib.Path(errors.__file__).parent
    code = "\n".join(path.read_text() for path in sorted(src.glob("*.py")))
    unraised = [name for name in errors.__all__
                if name not in ("MomentgateError", "NumericalError")
                and not re.search(rf"\braise {name}\b", code)]
    assert unraised == []


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(anchor: str) -> list[str]:
    """The README's lines after anchor, up to the end of its code block."""
    text = README.read_text()
    start = text.index(anchor) + len(anchor)
    return text[start:text.index("```", start)].splitlines()


def test_readme_quick_start_prints_what_it_shows(capsys):
    code = _readme_block("```python\n")
    exec(compile("\n".join(code), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # "print(...)  # 5.7402... 6.0697...": each shown value is a prefix
    shown = [line.partition("#")[2].split() for line in code
             if line.startswith("print(")]
    assert len(printed) == len(shown) > 0
    for line, want in zip(printed, shown):
        got = line.split()
        assert len(got) == len(want), (line, want)
        assert all(g.startswith(w.removesuffix("..."))
                   for g, w in zip(got, want)), (line, want)


def test_readme_theory_example_prints_what_it_shows(capsys):
    command = "$ momentgate theory --model lognormal --n 1000 --q-grid 1,3\n"
    shown = _readme_block(command)
    assert cli.main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


@pytest.mark.parametrize("first", [
    "$ momentgate sample --model logweibull:rho=2 --n 10000 --seed 1 "
    "--out s.txt\n",
    "$ momentgate synth --model lognormal --cov exp:tau=50 --n 65536 "
    "--seed 2 --out series.txt\n"], ids=["iid", "corr"])
def test_readme_estimate_examples_print_what_they_show(first, capsys,
                                                       tmp_path, monkeypatch):
    # the README's commands, run in tmp_path; where it elides keys with
    # " ...", the lines it does show are printed, in its order
    monkeypatch.chdir(tmp_path)
    block = [first.rstrip("\n"), *_readme_block(first)]
    commands = [line for line in block if line.startswith("$ ")]
    for command in commands:
        assert cli.main(command.split()[2:]) == 0
    shown = [line for line in block[len(commands):] if line != " ..."]
    printed = capsys.readouterr().out.splitlines()
    if len(shown) < len(block) - len(commands):
        printed = [line for line in printed if line in shown]
    assert printed == shown
