"""Command line interface: theory queries, sampling, synthesis, estimation,
and Monte-Carlo experiment execution.

A command exits 0 on success, and on failure with its error's
``exit_code`` (``errors.py``).  ``theory``, ``mc`` and ``estimate --format
csv`` start with three ``#`` lines (version, resolved configuration, seed:
0 for ``theory`` and ``estimate``, which read no random stream and take no
``--seed``); with ``--format json`` these lines still precede the JSON
document.
``estimate``'s JSON is the bare payload, and ``sample``/``synth`` files
start with one ``#`` metadata line.  No output holds a timestamp, so
identical invocations produce byte-identical files.  ``mc --figure N`` runs
the INI document ``_FIGURES[N]`` exactly as ``mc --config`` runs a file.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import re
import sys
from functools import partial

import numpy as np

from . import __version__
from . import dependence as dep
from . import estimators as est
from . import tail_models as tm
from . import theory
from .errors import ArgumentError, DataFormatError, MomentgateError

_THEORY_COLUMNS = ("n", "y_dagger", "theta", "rho_l", "qc_exact", "qc_approx")


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ArgumentError(f"expected comma-separated numbers, got {text!r}") from None


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not all(x.is_integer() for x in values):
        raise ArgumentError(f"expected comma-separated integers, got {text!r}")
    return [int(x) for x in values]


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a command writes to: stdout, or the file at path."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as stream:
            yield stream


def _header(stream, seed, config_items) -> None:
    stream.write(f"# version={__version__}\n")
    cfg = " ".join(f"{k}={v}" for k, v in config_items)
    stream.write(f"# config={cfg}\n")
    stream.write(f"# seed={seed}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_theory(args) -> int:
    from . import montecarlo as mc
    model = tm.parse_model(args.model)
    ns = _floats(args.n)
    q_grid = None if args.q_grid is None else _floats(args.q_grid)
    if not ns or q_grid == []:
        raise ArgumentError("--n and --q-grid each need at least one number")
    curves = [theory.critical_curve(model, n) for n in ns]
    for c in curves:
        if c.qc_exact < 0.0:
            sys.stderr.write(
                f"warning: n={c.n:g}: qc_exact={c.qc_exact:.6g} is negative, "
                f"y_dagger={c.y_dagger:.6g} lies below the density's mode\n"
            )
    rows = [{"n": c.n, "y_dagger": c.y_dagger, "theta": c.theta,
             "rho_l": c.rho_l_at_dagger, "qc_exact": c.qc_exact,
             "qc_approx": c.qc_approx} for c in curves]
    q_rows = []
    if q_grid is not None:
        if len(ns) != 1:
            raise ArgumentError("--q-grid needs exactly one --n value")
        ceiling = theory.q_validity_ceiling(model, ns[0])
        qs = np.array(q_grid)
        log_moments = theory.moment_quadrature(model, qs)
        predicted = theory._predicted_lnS(model, curves[0], qs, log_moments)
        for q, p, log_moment in zip(q_grid, predicted.tolist(),
                                    log_moments.tolist()):
            if q > ceiling:
                sys.stderr.write(
                    f"warning: q={q:g} exceeds validity ceiling {ceiling:.6g}\n"
                )
            q_rows.append({"q": q, "predicted_lnS": p,
                           "log_moment": log_moment})
    cfg = [("command", "theory"), ("model", tm.format_model(model)),
           ("n", args.n)]
    with _output(args.out) as stream:
        _header(stream, 0, cfg)
        if args.format == "json":
            json.dump({"curves": rows, "q_table": q_rows}, stream, indent=1,
                      sort_keys=True)
            stream.write("\n")
        else:
            mc._write_rows(stream, _THEORY_COLUMNS, rows)
            if q_rows:
                stream.write("# q_table\n")
                mc._write_rows(stream, ("q", "predicted_lnS", "log_moment"),
                               q_rows)
    return 0


def _cmd_sample(args) -> int:
    model = tm.parse_model(args.model)
    sample = tm.sample_iid(model, args.n, args.seed)
    with _output(args.out) as stream:
        tm.write_sample(stream, sample, model,
                        extra_header={"version": __version__})
    return 0


def _cmd_synth(args) -> int:
    model = tm.parse_model(args.model)
    cov = dep.parse_cov(args.cov)
    sample = dep.synth_series(model, cov, args.n, args.seed, args.match)
    with _output(args.out) as stream:
        tm.write_sample(stream, sample, model,
                        extra_header={"cov": dep.format_cov(cov),
                                      "match": args.match,
                                      "version": __version__})
    return 0


# the sieve settings of estimate --corr and of an INI [correlated] section
# where they are not given
_CORR_DEFAULTS = {"kappa": dep._KAPPA, "alpha": dep._ALPHA, "beta": dep._BETA}


def _cmd_estimate(args) -> int:
    corr_flags = ("tau", "s", *_CORR_DEFAULTS)
    if not args.corr and any(getattr(args, f) is not None for f in corr_flags):
        raise ArgumentError(
            "--tau, --s, --kappa, --alpha and --beta apply only with --corr")
    if args.corr and args.tau is None:
        raise ArgumentError("--corr requires --tau")
    if args.input == "-":
        # strict UTF-8 after an optional BOM, as a file is read; detached so
        # that stdin stays open
        stream = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
        try:
            values = tm.read_sample(stream)
        finally:
            stream.detach()
    else:
        with open(args.input, encoding="utf-8-sig") as fh:
            values = tm.read_sample(fh)
    if args.log_input:
        if np.any(values <= 0.0):
            raise DataFormatError("--log-input requires strictly positive values")
        values = np.log(values)
    n = len(values)
    sample = tm.Sample(values=values, n=n, seed=0)  # no estimator reads a seed
    if args.corr:
        for name, value in _CORR_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
        ns, kt, kr, s = dep._correction(n, args.tau, args.kappa, args.k_theta,
                                        args.k_rho, args.s, args.alpha)
        e = dep.qc_hat_corr(sample, kt, kr, tau=args.tau, kappa=args.kappa,
                            s=s, beta=args.beta)
        extra = {"tau": args.tau, "kappa": args.kappa, "beta": args.beta,
                 "s": s, "n_star": ns}
    else:
        e = est.qc_hat(sample, args.k_theta, args.k_rho)
        extra = {}
    payload = {"theta_hat": e.theta_hat, "rho_hat": e.rho_hat,
               "qc_hat": e.qc_hat, "k_theta": e.k_theta, "k_rho": e.k_rho,
               "n": n, **extra}
    with _output(args.out) as stream:
        if args.format == "csv":
            from . import montecarlo as mc
            cfg = [("command", "estimate"), ("input", args.input)]
            _header(stream, 0, cfg)
            mc._write_rows(stream, tuple(payload), [payload])
        else:
            json.dump(payload, stream, indent=1, sort_keys=True)
            stream.write("\n")
    return 0


# ``mc --figure N`` runs the INI document _FIGURES[N] (read_dict form):
# numbered standard estimator studies.  Unset keys take the loader's defaults
# (kind corr with a [correlated] section, else iid; reps 500; default k
# windows; seed 0).
_FIGURES = {
    2: {"experiment": {
        "kind": "lnS", "models": "lognormal", "n": "100,1000,1000000",
        "q_over_qc": ",".join(map(repr, np.linspace(0.1, 3.0, 30).tolist()))}},
    3: {"experiment": {"models": "logweibull:rho=2", "n": "1000",
                       "k_theta": "1,2,4,8,16,28", "k_rho": "80"}},
    5: {"experiment": {"models": "logweibull:rho=2",
                       "n": "1000,10000,100000"}},
    6: {"experiment": {"models": "logweibull:rho=2", "n": "1000",
                       "k_theta": "28", "k_rho": "10,20,40,80,120,160,200"}},
    11: {"experiment": {"models": "lognormal", "n": "65536", "k_theta": "10",
                        "k_rho": "100", "reps": "200"},
         "correlated": {"cov": "exp:tau=10,exp:tau=50,exp:tau=100"}},
    12: {"experiment": {"models": "lognormal", "n": "65536", "k_theta": "1",
                        "k_rho": "100", "reps": "200"},
         "correlated": {"cov": "exp:tau=10,exp:tau=50,exp:tau=100"}},
    16: {"experiment": {"models": "lognormal", "n": "65536", "k_theta": "10",
                        "k_rho": "100", "reps": "200"},
         "correlated": {"cov": "exp:tau=100", "assumed_tau": "100,200,400"}},
}
_FIGURES[8], _FIGURES[15] = _FIGURES[5], _FIGURES[11]


def _k_grid(text: str | None) -> tuple:
    if text is None or text.strip().lower() in ("", "default"):
        return (None,)
    return tuple(_ints(text))


# the keys each section takes; q and q_over_qc only where kind = lnS
_INI_KEYS = {"experiment": {"kind", "models", "n", "k_theta", "k_rho", "reps",
                            "seed", "q", "q_over_qc"},
             "correlated": {"cov", "match", "assumed_tau", "s", *_CORR_DEFAULTS}}


def _config_experiment(parser: configparser.ConfigParser, reps: int | None,
                       seed: int | None):
    """(kind, seed, calls) of the experiment an INI document describes:
    calls are the zero-argument study calls whose reports, joined in order,
    make its output.  reps and seed, when not None, override the document's."""
    from . import montecarlo as mc
    if "experiment" not in parser:
        raise DataFormatError("config needs an [experiment] section")
    exp = parser["experiment"]
    correlated = "correlated" in parser
    kind = exp.get("kind", "corr" if correlated else "iid").strip().lower()
    if kind not in ("iid", "corr", "lns"):
        raise DataFormatError(
            f"unknown experiment kind {kind!r} (expected iid, corr or lnS)")
    for name in parser.sections():
        if name not in _INI_KEYS:
            raise DataFormatError(f"malformed config: unknown section [{name}]")
        keys = _INI_KEYS[name] - (set() if kind == "lns" else {"q", "q_over_qc"})
        bad = sorted(set(parser[name]) - keys)
        if bad:
            raise DataFormatError(f"malformed config: [{name}] takes no key {bad[0]!r}")
    if kind != "lns" and (kind == "corr") != correlated:
        raise DataFormatError(f"experiment kind {kind} "
                              f"{'takes no' if correlated else 'needs a'} "
                              "[correlated] section")
    models = tuple(tm.parse_model(s) for s in exp.get("models", "").split(",")
                   if s.strip())
    if not models:
        raise DataFormatError("config needs experiment.models")
    seed = seed if seed is not None else exp.getint("seed", fallback=0)
    reps = reps if reps is not None else exp.getint("reps", fallback=500)
    n_grid = tuple(_ints(exp.get("n", "1000")))
    if kind == "lns":
        if len(models) > 1 or {"k_theta", "k_rho"} & set(exp) or correlated:
            raise DataFormatError("lnS config takes one model and no k_theta, "
                                  "k_rho or [correlated] section")
        q = _floats(exp.get("q", ""))
        rel_q = _floats(exp.get("q_over_qc", ""))
        if bool(q) == bool(rel_q) or not n_grid:
            raise DataFormatError("lnS config needs n and exactly one of q / q_over_qc")
        # one lnS_curve per n, on its own seed; q_over_qc is in units of q_c(n)
        calls = []
        for i, n in enumerate(n_grid):
            scale = theory.critical_curve(models[0], n).qc_approx if rel_q else 1.0
            calls.append(partial(mc.lnS_curve, models[0], [n],
                                 np.asarray(q or rel_q, dtype=float) * scale,
                                 reps, mc.rep_seed(seed, i, 0)))
        return "lnS", seed, calls
    corr = None
    if correlated:
        sec = parser["correlated"]
        # a list splits only before a kind, so a tab: spec keeps its commas
        covs = tuple(dep.parse_cov(s) for s in
                     re.split(r",(?=\s*(?:exp|tab):)", sec.get("cov", ""),
                              flags=re.IGNORECASE)
                     if s.strip())
        if not covs:
            raise DataFormatError("correlated section needs cov")
        assumed = sec.get("assumed_tau", fallback=None)
        s_vals = sec.get("s", fallback=None)
        corr = mc.CorrelatedConfig(
            covs=covs,
            **{name: sec.getfloat(name, fallback=value)
               for name, value in _CORR_DEFAULTS.items()},
            match_mode=dep.MatchMode(sec.get("match", "gaussian")),
            assumed_taus=tuple(_floats(assumed)) if assumed else None,
            s_values=tuple(_floats(s_vals)) if s_vals else None,
        )
    config = mc.ExperimentConfig(
        models=models,
        n_grid=n_grid,
        k_theta_grid=_k_grid(exp.get("k_theta", fallback=None)),
        k_rho_grid=_k_grid(exp.get("k_rho", fallback=None)),
        reps=reps,
        seed=seed,
        correlated=corr,
    )
    run = mc.run_corr if kind == "corr" else mc.run_iid
    return kind, seed, [partial(run, config)]


def _cmd_mc(args) -> int:
    if (args.config is None) == (args.figure is None):
        raise ArgumentError("mc needs exactly one of --config / --figure")
    # [DEFAULT] reads as an ordinary section, and so as an unknown one
    parser = configparser.ConfigParser(default_section="")
    try:
        if args.figure is not None:
            parser.read_dict(_FIGURES[args.figure])
            source = ("figure", args.figure)
        elif parser.read(args.config):
            source = ("config", args.config)
        else:
            raise DataFormatError(f"cannot read config file {args.config!r}")
        kind, seed, calls = _config_experiment(parser, args.reps, args.seed)
    except MomentgateError:
        raise
    except (configparser.Error, ValueError) as exc:
        # no section header, or a value that getint or MatchMode rejects
        raise DataFormatError(f"malformed config: {exc}") from None
    report = calls[0]()
    for call in calls[1:]:
        report.rows.extend(call().rows)
    report.meta["seed"] = seed

    cfg_desc = [("command", "mc"), source, ("kind", kind)]
    with _output(args.out) as stream:
        _header(stream, seed, cfg_desc)
        if args.format == "json":
            report.to_json(stream)
        else:
            report.to_csv(stream)
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    tabular = argparse.ArgumentParser(add_help=False, parents=[common])
    tabular.add_argument("--format", choices=("csv", "json"), default=None)

    parser = argparse.ArgumentParser(
        prog="momentgate",
        description="Critical moment orders of log-exponential-power-law "
                    "samples: theory, estimation, and Monte-Carlo studies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", parents=[tabular],
                       help="frontier quantities and moment predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--n", required=True,
                   help="comma-separated sample sizes (real, >= 2)")
    p.add_argument("--q-grid", default=None,
                   help="orders for the predicted-lnS table (single n only)")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("sample", parents=[common], help="draw an i.i.d. sample")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize a correlated stationary series")
    p.add_argument("--model", required=True)
    p.add_argument("--cov", required=True, help="e.g. exp:tau=100")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--match", choices=("gaussian", "hermite"),
                   default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("estimate", parents=[tabular],
                       help="estimate theta, rho, and q_c from a sample file")
    p.add_argument("--input", required=True, help="sample file ('-' = stdin)")
    p.add_argument("--k-theta", type=int, default=None)
    p.add_argument("--k-rho", type=int, default=None)
    p.add_argument("--log-input", action="store_true",
                   help="input values are X; take logs first")
    p.add_argument("--corr", action="store_true",
                   help="use the sieve-corrected estimators")
    p.add_argument("--tau", type=float, default=None)
    for name, value in _CORR_DEFAULTS.items():
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"with --corr (default {value})")
    p.add_argument("--s", type=float, default=None,
                   help="sieve radius override (default alpha*tau)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mc", parents=[tabular],
                       help="run a Monte-Carlo experiment")
    p.add_argument("--config", default=None, help="INI experiment file")
    p.add_argument("--figure", type=int, default=None,
                   choices=sorted(_FIGURES),
                   help="numbered built-in experiment preset")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the INI seed")
    p.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that an EPIPE here is caught below
        return status
    except BrokenPipeError:
        # the reader stopped early (| head); devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (MomentgateError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 4)  # 4: an OSError


if __name__ == "__main__":
    sys.exit(main())
