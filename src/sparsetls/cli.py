"""Command-line entry point.

Subcommands: generate, solve, trace, sweep-lambda, sweep-xi, bench.
Exit codes: 0 success, 2 invalid arguments, 1 runtime failure.

A plain-text config file (`key = value` lines, # comments) can supply any
flag via --config.  Each entry whose flag the running subcommand takes
and the command line does not set becomes `--key=value` right after the
subcommand name (_with_config), so argparse converts and checks it as it
does the typed flag; the other entries are dropped.  Range checks are the
flags' type= callables (_typed).  cli_main builds one parser per process
(_parser).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiments import (
    DEFAULT_LAMBDA,
    DEFAULT_XI,
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
from .kernel import require_count, require_lambda
from .metrics import squared_error
from .problems import (
    SCENARIO_TAGS,
    Ensemble,
    ScenarioConfig,
    generate_instance,
    require_xi,
    save_instance,
    scenario_config,
)
from .rng import derive_stream, require_u64


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    entries = {}
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
        entries["lam" if key == "lambda" else key] = value
    return entries


def _config_entries(argv: list[str]) -> dict:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    return _read_config(path) if path is not None else {}


def _typed(flag: str, check, convert=float):
    """An argparse type= callable: the converted text, once `check`
    accepts it; a ValueError from either becomes `bad FLAG value: ...`."""
    def typed(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {flag} value: {exc}") from exc
        return value
    return typed


def _grid(check):
    """--grid's type: comma-separated floats that pass the config's grid
    rule (non-empty, strictly ascending, each value passing `check`)."""
    return _typed("--grid", functools.partial(require_grid, "grid", check=check),
                  lambda text: [float(v) for v in text.split(",") if v.strip()])


# the flags more than one subcommand reads; each subcommand takes only
# those it reads, so argparse rejects the others
_FLAGS = {
    "--n": dict(type=int, help="columns (custom scenario)"),
    "--m": dict(type=int, help="rows (custom scenario)"),
    "--k": dict(type=int, help="sparsity (custom scenario)"),
    "--ensemble": dict(choices=["gaussian", "rademacher"], help="matrix ensemble (custom scenario)"),
    "--xi": dict(type=_typed("--xi", require_xi), default=DEFAULT_XI, help="perturbation-variance parameter"),
    "--trials": dict(type=_typed("--trials", functools.partial(require_count, name="trials"), int), default=100),
    "--seed": dict(type=_typed("--seed", require_u64, int), default=0, help="master seed"),
    "--trial": dict(type=_typed("--trial", require_u64, int), default=0, help="trial index of the instance"),
    "--iters": dict(type=_typed("--iters", functools.partial(require_count, name="iterations"), int),
                    help="override the iteration schedule"),
    "--out": dict(default="results", help="output directory"),
    "--algo": dict(choices=["pg", "adcd", "both"], default="both"),
}
# the flags without their dashes: the shared ones and those subcommands
# add themselves
_CONFIG_KEYS = {flag[2:] for flag in _FLAGS} | {"scenario", "lambda", "grid"}
_CUSTOM = ("--n", "--m", "--k", "--ensemble")
_LAMBDA = _typed("--lambda", require_lambda)
_LAMBDA_GRID_HELP = "comma-separated lambda values (default: 25 log-spaced on [5e-4, 1])"


def _add_subcommand(sub, name: str, help: str, func, scenarios: tuple, flags: tuple):
    """A subparser with --scenario (default scenarios[0]), --config and
    the shared `flags`.  Flags are never abbreviated: `trace --trial 1`
    is an error, not `--trials 1`."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--scenario", choices=scenarios, default=scenarios[0])
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--config", help="config file with 'key = value' flag values")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, help="regularization weight (required)")

    p = _add_subcommand(sub, "trace", "per-iteration error/cost averages -> trace.csv", cmd_trace,
                        custom, (*sweep, "--xi"))
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=DEFAULT_LAMBDA)

    p = _add_subcommand(sub, "sweep-lambda", "converged error and support misses per lambda -> lambda_sweep.csv",
                        cmd_sweep_lambda, custom, (*sweep, "--xi"))
    p.add_argument("--grid", type=_grid(require_lambda), help=_LAMBDA_GRID_HELP)

    # instances are drawn at each xi of the grid, so there is no --xi
    p = _add_subcommand(sub, "sweep-xi", "converged error per perturbation level -> xi_sweep.csv",
                        cmd_sweep_xi, custom, sweep)
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=DEFAULT_LAMBDA)
    p.add_argument("--grid", type=_grid(require_xi),
                   help="comma-separated xi values (default: 13 log-spaced on [1e-4, 1e-1])")

    # bench always measures both algorithms (pg is the ratio denominator)
    # on the named scenarios, so there is no --algo and no custom scenario
    p = _add_subcommand(sub, "bench", "per-iteration time and flop comparison -> bench.csv", cmd_bench,
                        ("both", "s1", "s2"), ("--xi", "--trials", "--seed", "--iters", "--out"))
    p.add_argument("--grid", type=_grid(require_lambda), help=_LAMBDA_GRID_HELP)
    p.set_defaults(algo="both")
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and then kept for the process:
    parsing never writes the parser.  The parser binds each subcommand to
    its cmd_* function when it is built."""
    return build_parser()


def _with_config(parser, argv: list[str]) -> list[str]:
    """argv with `--flag=value` right after the subcommand name for each
    config entry whose flag the subcommand takes and argv does not set,
    so argparse converts and checks the value as it does the typed flag;
    the other entries are dropped."""
    config = _config_entries(argv)
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if not config or at is None or argv[at] not in commands:
        return argv
    given = {tok.partition("=")[0] for tok in argv}
    entries = [f"{flag}={config[a.dest]}" for a in commands[argv[at]]._actions
               for flag in a.option_strings if a.dest in config and flag not in given]
    return [*argv[:at + 1], *entries, *argv[at + 1:]]


def _scenario(args, kind: str, xi: float) -> ScenarioConfig:
    """The scenario drawn at xi; --n, --m, --k and --ensemble (from the
    command line or the config) are the custom kind's shape, and giving
    any of them with s1 or s2 is a usage error."""
    try:
        if kind in ("s1", "s2"):
            given = [flag for flag in _CUSTOM if getattr(args, flag[2:], None) is not None]
            if given:
                raise UsageError(f"{', '.join(given)}: shape flags are for --scenario custom, not {kind}")
            return scenario_config(kind, xi=xi)
        if None in (args.n, args.m, args.k) or args.ensemble is None:
            raise UsageError("custom scenario requires --n, --m, --k and --ensemble")
        return ScenarioConfig(n=args.n, m=args.m, k=args.k, ensemble=Ensemble(args.ensemble), xi=xi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _algos(args) -> tuple[str, ...]:
    return ("pg", "adcd") if args.algo == "both" else (args.algo,)


def _experiment_config(args, lambda_grid=None, xi_grid=None, kind=None) -> ExperimentConfig:
    """The config of one sweep; a grid left at None takes its default, and
    `kind` (default --scenario) names the scenario.  Only a custom kind is
    given a shape (--n, --m, --k, --ensemble); the config draws its
    instances at each xi of xi_grid, so the shape's own xi is not read."""
    kind = kind or args.scenario
    lambda_grid = lambda_grid if lambda_grid is not None else default_lambda_grid()
    xi_grid = xi_grid if xi_grid is not None else default_xi_grid()
    scen = _scenario(args, kind, xi_grid[0])
    try:
        return ExperimentConfig(
            kind=kind,
            lambda_grid=lambda_grid,
            xi_grid=xi_grid,
            trials=args.trials,
            master_seed=args.seed,
            iters=args.iters,
            algos=_algos(args),
            custom=scen if kind == "custom" else None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _single_instance(args):
    kind = args.scenario
    scen = _scenario(args, kind, args.xi)
    rng = derive_stream(args.seed, SCENARIO_TAGS[kind], args.trial)
    return generate_instance(scen, rng), scen, kind


def cmd_generate(args) -> int:
    inst, scen, kind = _single_instance(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # named by everything that draws it: the shape (custom only), seed,
    # trial and xi
    shape = f"_n{args.n}_m{args.m}_k{args.k}_{args.ensemble}" if kind == "custom" else ""
    path = out / f"instance_{kind}{shape}_seed{args.seed}_trial{args.trial}_xi{args.xi!r}.txt"
    save_instance(inst, scen, args.seed, path)
    print(path)
    return 0


def cmd_solve(args) -> int:
    if args.lam is None:
        raise UsageError("solve requires --lambda")
    inst, scen, kind = _single_instance(args)
    iters = iteration_budget(kind, args.lam, args.iters)
    for algo in _algos(args):
        res = solve_instance(algo, inst, args.lam, iters, with_truth=False)
        err = squared_error(res.x, inst.x_true)
        print(f"{algo} sq_error={err:.17g} cost={res.cost[-1]:.17g} iterations={iters}")
    return 0


def cmd_trace(args) -> int:
    cfg = _experiment_config(args, lambda_grid=[args.lam], xi_grid=[args.xi])
    print(run_trace(cfg, Path(args.out)))
    return 0


def cmd_sweep_lambda(args) -> int:
    cfg = _experiment_config(args, lambda_grid=args.grid, xi_grid=[args.xi])
    print(run_lambda_sweep(cfg, Path(args.out)))
    return 0


def cmd_sweep_xi(args) -> int:
    cfg = _experiment_config(args, lambda_grid=[args.lam], xi_grid=args.grid)
    print(run_xi_sweep(cfg, Path(args.out)))
    return 0


def cmd_bench(args) -> int:
    names = ["s1", "s2"] if args.scenario == "both" else [args.scenario]
    cfgs = [_experiment_config(args, lambda_grid=args.grid, xi_grid=[args.xi], kind=name) for name in names]
    print(run_bench(cfgs, Path(args.out)))
    return 0


def cli_main(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
