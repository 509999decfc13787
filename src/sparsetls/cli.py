"""Command-line entry point.

Subcommands: generate, solve, trace, sweep-lambda, sweep-xi, bench.
Exit codes: 0 success, 2 invalid arguments, 1 runtime failure.

A plain-text config file (`key = value` lines, # comments) can supply any
flag default via --config; explicit command-line flags win.  The running
subcommand checks a config value as it would the flag's: its type, and
its choices (_check_choices).  cli_main builds its parser once per
process for each set of config defaults (_parser).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    default_lambda_grid,
    default_xi_grid,
    iteration_budget,
    require_grid,
    run_bench,
    run_lambda_sweep,
    run_trace,
    run_xi_sweep,
    solve_instance,
)
from .kernel import require_iterations, require_lambda
from .problems import (
    SCENARIO_TAGS,
    Ensemble,
    ScenarioConfig,
    generate_instance,
    require_xi,
    save_instance,
    scenario_config,
)
from .rng import derive_stream


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    defaults = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        defaults["lam" if key == "lambda" else key] = value
    return defaults


def _config_defaults(argv: list[str]) -> dict:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    return _read_config(path) if path is not None else {}


# the flags more than one subcommand reads; each subcommand takes only
# those it reads, so argparse rejects the others (a config file may still
# set any key: a default for a flag a subcommand lacks is never read)
_FLAGS = {
    "--n": dict(type=int, help="columns (custom scenario)"),
    "--m": dict(type=int, help="rows (custom scenario)"),
    "--k": dict(type=int, help="sparsity (custom scenario)"),
    "--ensemble": dict(choices=["gaussian", "rademacher"], help="matrix ensemble (custom scenario)"),
    "--xi": dict(type=float, default=0.01, help="perturbation-variance parameter"),
    "--trials": dict(type=int, default=100),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--trial": dict(type=int, default=0, help="trial index of the instance"),
    "--iters": dict(type=int, help="override the iteration schedule"),
    "--out": dict(default="results", help="output directory"),
    "--algo": dict(choices=["pg", "adcd", "both"], default="both"),
}
# the flags without their dashes: the shared ones and those subcommands
# add themselves; each value is kept as a string, which argparse converts
# with the flag's type when the default is read
_CONFIG_KEYS = {flag[2:] for flag in _FLAGS} | {"scenario", "lambda", "grid"}
_CUSTOM = ("--n", "--m", "--k", "--ensemble")
_LAMBDA_GRID_HELP = "comma-separated lambda values (default: 25 log-spaced on [5e-4, 1])"


def _add_subcommand(sub, name: str, help: str, func, scenarios: tuple, flags: tuple):
    """A subparser with --scenario (default scenarios[0]), --config and
    the shared `flags`.  Flags are never abbreviated: `trace --trial 1`
    is an error, not `--trials 1`.  The choices are kept for
    _check_choices."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    actions = [p.add_argument("--scenario", choices=scenarios, default=scenarios[0])]
    actions += [p.add_argument(flag, **_FLAGS[flag]) for flag in flags]
    p.add_argument("--config", help="config file with 'key = value' flag defaults")
    p.set_defaults(func=func, choices={a.dest: a.choices for a in actions if a.choices})
    return p


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sparsetls",
        description="Sparse recovery from perturbed linear systems: solvers and benchmark experiments.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    custom = ("s1", "s2", "custom")
    sweep = (*_CUSTOM, "--trials", "--seed", "--iters", "--out", "--algo")

    _add_subcommand(sub, "generate", "write one instance file", cmd_generate, custom,
                    (*_CUSTOM, "--xi", "--seed", "--trial", "--out"))

    p = _add_subcommand(sub, "solve", "solve one instance, print final error and cost", cmd_solve,
                        custom, (*_CUSTOM, "--xi", "--seed", "--trial", "--iters", "--algo"))
    p.add_argument("--lambda", dest="lam", type=float, help="regularization weight (required)")

    p = _add_subcommand(sub, "trace", "per-iteration error/cost averages -> trace.csv", cmd_trace,
                        custom, (*sweep, "--xi"))
    p.add_argument("--lambda", dest="lam", type=float, default=0.02)

    p = _add_subcommand(sub, "sweep-lambda", "converged error and support misses per lambda -> lambda_sweep.csv",
                        cmd_sweep_lambda, custom, (*sweep, "--xi"))
    p.add_argument("--grid", help=_LAMBDA_GRID_HELP)

    # instances are drawn at each xi of the grid, so there is no --xi
    p = _add_subcommand(sub, "sweep-xi", "converged error per perturbation level -> xi_sweep.csv",
                        cmd_sweep_xi, custom, sweep)
    p.add_argument("--lambda", dest="lam", type=float, default=0.02)
    p.add_argument("--grid", help="comma-separated xi values (default: 13 log-spaced on [1e-4, 1e-1])")

    # bench always measures both algorithms (pg is the ratio denominator)
    # on the named scenarios, so there is no --algo and no custom scenario
    p = _add_subcommand(sub, "bench", "per-iteration time and flop comparison -> bench.csv", cmd_bench,
                        ("both", "s1", "s2"), ("--xi", "--trials", "--seed", "--iters", "--out"))
    p.add_argument("--grid", help=_LAMBDA_GRID_HELP)
    p.set_defaults(algo="both")

    if defaults:
        for action in sub.choices.values():
            action.set_defaults(**defaults)
    return top


@functools.lru_cache(maxsize=8)
def _parser(config_items: tuple) -> argparse.ArgumentParser:
    """build_parser(dict(config_items)), built on first use and then kept
    for the process, one per set of config defaults: parsing never writes
    the parser, and a call without a config gets the one built without
    defaults.  The parser binds each subcommand to its cmd_* function
    when it is built."""
    return build_parser(dict(config_items))


def _check_choices(args) -> None:
    """Raise UsageError unless each flag with choices has one of them:
    argparse does not check a default, such as a config file's value."""
    for dest, choices in args.choices.items():
        value = getattr(args, dest)
        if value is not None and value not in choices:
            raise UsageError(f"config value {value!r} for {dest!r} must be one of {list(choices)}")


def _checked(flag: str, value: float, check) -> float:
    """value, once `check` (require_lambda or require_xi) accepts it; its
    ValueError becomes a UsageError naming the flag."""
    try:
        check(value)
    except ValueError as exc:
        raise UsageError(f"bad {flag} value: {exc}") from exc
    return value


def _parse_grid(text: str | None, check) -> list[float] | None:
    """Comma-separated floats that pass the config's grid rule: non-empty,
    strictly ascending, each value passing `check`."""
    if text is None:
        return None
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
        require_grid("grid", grid, check)
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc
    return grid


def _xi(args) -> float:
    return _checked("--xi", args.xi, require_xi)


def _scenario(args, kind: str, xi: float) -> ScenarioConfig:
    try:
        if kind in ("s1", "s2"):
            return scenario_config(kind, xi=xi, seed=args.seed)
        if None in (args.n, args.m, args.k) or args.ensemble is None:
            raise UsageError("custom scenario requires --n, --m, --k and --ensemble")
        return ScenarioConfig(
            n=args.n, m=args.m, k=args.k,
            ensemble=Ensemble(args.ensemble), xi=xi, seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _algos(args) -> tuple[str, ...]:
    return ("pg", "adcd") if args.algo == "both" else (args.algo,)


def _experiment_config(args, lambda_grid=None, xi_grid=None, kind=None) -> ExperimentConfig:
    """The config of one sweep; a grid left at None takes its default, and
    `kind` (default --scenario) names the scenario.  The config draws its
    instances at each xi of xi_grid; the scenario's own xi is not read."""
    kind = kind or args.scenario
    lambda_grid = lambda_grid if lambda_grid is not None else default_lambda_grid()
    xi_grid = xi_grid if xi_grid is not None else default_xi_grid()
    try:
        return ExperimentConfig(
            scenario=_scenario(args, kind, xi_grid[0]),
            kind=kind,
            lambda_grid=lambda_grid,
            xi_grid=xi_grid,
            trials=args.trials,
            master_seed=args.seed,
            out_dir=Path(args.out),
            iters=args.iters,
            algos=_algos(args),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _single_instance(args):
    kind = args.scenario
    scen = _scenario(args, kind, _xi(args))
    rng = derive_stream(args.seed, SCENARIO_TAGS[kind], args.trial)
    return generate_instance(scen, rng), scen, kind


def cmd_generate(args) -> int:
    inst, scen, kind = _single_instance(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"instance_{kind}_seed{args.seed}_trial{args.trial}.txt"
    save_instance(inst, scen, path)
    print(path)
    return 0


def cmd_solve(args) -> int:
    if args.lam is None:
        raise UsageError("solve requires --lambda")
    lam = _checked("--lambda", args.lam, require_lambda)
    if args.iters is not None:
        _checked("--iters", args.iters, require_iterations)
    inst, scen, kind = _single_instance(args)
    iters = iteration_budget(kind, lam, args.iters)
    for algo in _algos(args):
        res = solve_instance(algo, inst, lam, iters)
        print(f"{algo} sq_error={res.sq_error[-1]:.17g} cost={res.cost[-1]:.17g} iterations={iters}")
    return 0


def cmd_trace(args) -> int:
    lam = _checked("--lambda", args.lam, require_lambda)
    cfg = _experiment_config(args, lambda_grid=[lam], xi_grid=[_xi(args)])
    print(run_trace(cfg))
    return 0


def cmd_sweep_lambda(args) -> int:
    cfg = _experiment_config(args, lambda_grid=_parse_grid(args.grid, require_lambda), xi_grid=[_xi(args)])
    print(run_lambda_sweep(cfg))
    return 0


def cmd_sweep_xi(args) -> int:
    lam = _checked("--lambda", args.lam, require_lambda)
    cfg = _experiment_config(args, lambda_grid=[lam], xi_grid=_parse_grid(args.grid, require_xi))
    print(run_xi_sweep(cfg))
    return 0


def cmd_bench(args) -> int:
    names = ["s1", "s2"] if args.scenario == "both" else [args.scenario]
    grid = _parse_grid(args.grid, require_lambda)
    xi = _xi(args)
    cfgs = [_experiment_config(args, lambda_grid=grid, xi_grid=[xi], kind=name) for name in names]
    print(run_bench(*cfgs))
    return 0


def cli_main(argv: list[str]) -> int:
    try:
        parser = _parser(tuple(sorted(_config_defaults(argv).items())))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_choices(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
