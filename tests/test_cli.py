import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsetls import (Ensemble, ExperimentConfig, ScenarioConfig, cli, cli_main, experiments,
                       instance_digest, load_instance)
from sparsetls.prox_solver import BacktrackingError
from sparsetls.cli import _CONFIG_KEYS, _read_config, build_parser


def small(command, tmp_path):
    """The flags that keep a run of `command` short, as far as it takes them."""
    return {
        "generate": ["--out", str(tmp_path)],
        "solve": ["--iters", "2"],
    }.get(command, ["--trials", "1", "--iters", "2", "--out", str(tmp_path)])


def test_missing_subcommand_is_usage_error(capsys):
    assert cli_main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert cli_main(["solve", "--frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_solve_requires_lambda(capsys):
    assert cli_main(["solve", "--scenario", "s1"]) == 2
    assert "--lambda" in capsys.readouterr().err


def test_solve_prints_error_and_cost(capsys):
    rc = cli_main([
        "solve", "--algo", "pg", "--scenario", "s1",
        "--lambda", "0.02", "--xi", "0.01", "--seed", "0", "--iters", "50",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("pg sq_error=")
    assert "cost=" in out


def test_solve_both_algorithms(capsys):
    rc = cli_main(["solve", "--lambda", "0.05", "--iters", "30"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pg ") and lines[1].startswith("adcd ")


def test_custom_scenario_requires_dimensions(capsys):
    rc = cli_main(["solve", "--scenario", "custom", "--lambda", "0.1"])
    assert rc == 2
    assert "custom" in capsys.readouterr().err


def test_custom_scenario_runs(capsys):
    rc = cli_main([
        "solve", "--scenario", "custom", "--n", "30", "--m", "15", "--k", "3",
        "--ensemble", "rademacher", "--lambda", "0.1", "--iters", "20",
    ])
    assert rc == 0


def test_custom_scenario_borrows_s1_schedule(capsys):
    rc = cli_main([
        "solve", "--algo", "pg", "--scenario", "custom", "--n", "30", "--m", "15", "--k", "3",
        "--ensemble", "gaussian", "--lambda", "1.0",
    ])
    assert rc == 0
    assert "iterations=40" in capsys.readouterr().out  # s1's budget at lambda = 1


def test_invalid_custom_dimensions_exit_2(capsys):
    rc = cli_main([
        "solve", "--scenario", "custom", "--n", "10", "--m", "10", "--k", "3",
        "--ensemble", "gaussian", "--lambda", "0.1",
    ])
    assert rc == 2


def test_generate_writes_loadable_instance(tmp_path, capsys):
    rc = cli_main(["generate", "--scenario", "s1", "--seed", "3", "--trial", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    path = capsys.readouterr().out.strip()
    inst, header = load_instance(path)
    assert header.seed == 3
    assert inst.a.shape == (20, 40)


CUSTOM_SHAPE = ["--scenario", "custom", "--n", "30", "--m", "12", "--k", "3", "--ensemble", "gaussian"]


@pytest.mark.parametrize("first,second", [
    # the same instance but for xi, named and custom
    (["--scenario", "s2", "--seed", "5", "--trial", "2"],
     ["--scenario", "s2", "--seed", "5", "--trial", "2", "--xi", "0.05"]),
    # the same seed, trial and xi but for the custom shape
    (CUSTOM_SHAPE, [*CUSTOM_SHAPE[:-1], "rademacher"]),
    (CUSTOM_SHAPE, [*CUSTOM_SHAPE[:3], "31", *CUSTOM_SHAPE[4:]]),
])
def test_generate_names_each_drawn_instance_apart(first, second, tmp_path, capsys):
    assert cli_main(["generate", *first, "--out", str(tmp_path)]) == 0
    assert cli_main(["generate", *second, "--out", str(tmp_path)]) == 0
    paths = capsys.readouterr().out.split()
    assert len(set(paths)) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(p).name for p in paths)
    digests = {instance_digest(load_instance(p)[0]) for p in paths}
    assert len(digests) == 2


def test_generate_file_names(tmp_path, capsys):
    assert cli_main(["generate", *CUSTOM_SHAPE, "--xi", "0.05", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
    assert cli_main(["generate", "--trial", "3", "--out", str(tmp_path)]) == 0
    assert [Path(p).name for p in capsys.readouterr().out.split()] == [
        "instance_custom_n30_m12_k3_gaussian_seed7_trial0_xi0.05.txt",
        "instance_s1_seed0_trial3_xi0.01.txt"]


@pytest.mark.parametrize("command,kind,argv,named", [
    ("generate", "s1", ["--n", "30"], "--n"),
    ("solve", "s1", ["--lambda", "0.5", "--n", "30", "--m", "5", "--k", "99", "--ensemble", "gaussian"],
     "--n, --m, --k, --ensemble"),
    ("trace", "s2", ["--n", "30"], "--n"),
    ("sweep-lambda", "s1", ["--grid", "0.5", "--ensemble", "gaussian"], "--ensemble"),
    ("sweep-xi", "s2", ["--grid", "0.01", "--k", "3", "--m", "12"], "--m, --k"),
])
def test_shape_flags_with_a_named_scenario_are_usage_errors(command, kind, argv, named, tmp_path,
                                                            capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "generate_instance", no_draw)
    monkeypatch.setattr(experiments, "generate_instance", no_draw)
    assert cli_main([command, "--scenario", kind, *argv, *small(command, tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {named}: shape flags are for --scenario custom, not {kind}\n")
    assert not any(tmp_path.iterdir())


def test_shape_config_entry_with_a_named_scenario_is_usage_error(tmp_path, capsys):
    # a config entry counts as given, as the flag does
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 30\n")
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "--n: shape flags are for --scenario custom, not s1" in capsys.readouterr().err
    assert not out.exists()


def test_trace_command(tmp_path, capsys):
    rc = cli_main(["trace", "--trials", "1", "--iters", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 2 iterations x 2 algorithms


def test_sweep_lambda_with_grid(tmp_path):
    rc = cli_main([
        "sweep-lambda", "--grid", "0.05,0.2", "--trials", "1", "--iters", "10",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "lambda_sweep.csv").read_text().splitlines()
    assert len(lines) == 5


def test_sweep_xi_with_grid_including_zero(tmp_path):
    rc = cli_main([
        "sweep-xi", "--grid", "0,0.01", "--trials", "1", "--iters", "10",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "xi_sweep.csv").read_text().splitlines()
    assert len(lines) == 5


def test_bench_smoke(tmp_path, capsys):
    rc = cli_main([
        "bench", "--scenario", "s1", "--trials", "1", "--seed", "1",
        "--grid", "0.1", "--iters", "20", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "scenario,lambda,algo,mean_iter_ns,mean_iter_flops,ratio_vs_pg"
    assert len(lines) == 3


def test_bad_grid_is_usage_error(capsys):
    assert cli_main(["sweep-lambda", "--grid", "abc"]) == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.05\niters = 30\nalgo = pg\n# comment\n")
    rc = cli_main(["solve", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("pg ")
    assert "iterations=30" in out


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.05\niters = 30\n")
    rc = cli_main(["solve", "--config", str(cfg), "--iters", "12"])
    assert rc == 0
    assert "iterations=12" in capsys.readouterr().out


# cli_main keeps one parser for the life of the process (cli._parser).
# The parser binds each subcommand to its cmd_* function when it is
# built, so replacing a cmd_* function after a cli_main call does not
# reach later calls; the names a cmd_* function reads when it runs can
# still be replaced.


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.3\niters = 12\n")
    argv = ["solve", "--algo", "pg", "--scenario", "s1"]
    assert cli_main([*argv, "--config", str(cfg)]) == 0
    assert "iterations=12" in capsys.readouterr().out
    # without the config, --lambda is required again and the schedule
    # (78 iterations for s1 at 0.3) sets the budget
    assert cli_main(argv) == 2
    assert "--lambda" in capsys.readouterr().err
    assert cli_main([*argv, "--lambda", "0.3"]) == 0
    assert "iterations=78" in capsys.readouterr().out


def test_each_config_sees_its_own_defaults(tmp_path, capsys):
    paths = []
    for iters in (12, 13):
        paths.append(tmp_path / f"run{iters}.cfg")
        paths[-1].write_text(f"lambda = 0.3\niters = {iters}\n")
    for path, iters in ((paths[0], 12), (paths[1], 13), (paths[0], 12)):
        assert cli_main(["solve", "--algo", "pg", "--config", str(path)]) == 0
        assert f"iterations={iters}" in capsys.readouterr().out


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    cfgs = [tmp_path / "run12.cfg", tmp_path / "run13.cfg"]
    cfgs[0].write_text("iters = 12\n")
    cfgs[1].write_text("iters = 13\nalgo = adcd\n")
    for argv in (["--iters", "12"], ["--config", str(cfgs[0])], ["--config", str(cfgs[1])]) * 2:
        assert cli_main(["solve", "--algo", "pg", "--lambda", "0.3", *argv]) == 0
    assert cli_main(["trace", "--iters", "0"]) == 2
    assert "iterations=13" in capsys.readouterr().out
    assert len(built) == 1
    cli._parser.cache_clear()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    assert cli_main(["solve", "--config", str(cfg), "--lambda", "0.1"]) == 2


def test_missing_config_file_is_usage_error(tmp_path):
    assert cli_main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_every_long_option_is_a_config_key(tmp_path):
    # a config file may set each flag of each subcommand, and no key that
    # is no subcommand's flag
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    keys = {opt[2:] for parser in sub.choices.values() for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")} - {"config", "help"}
    assert keys == _CONFIG_KEYS
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = 1\n" for key in sorted(keys)))
    assert set(_read_config(str(cfg))) == {"lam" if key == "lambda" else key for key in keys}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sparsetls", "solve", "--lambda", "0.1", "--iters", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("pg ")


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command", ["solve", "trace", "sweep-xi"])
def test_bad_lambda_is_usage_error(command, value, tmp_path, capsys):
    rc = cli_main([command, "--algo", "adcd", f"--lambda={value}", *small(command, tmp_path)])
    assert rc == 2
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.1,nan", "inf", "0.1,0", "-0.5", "0.5,0.02"])
@pytest.mark.parametrize("command", ["sweep-lambda", "bench"])
def test_bad_lambda_grid_is_usage_error(command, grid, tmp_path, capsys):
    rc = cli_main([command, f"--grid={grid}", "--trials", "1", "--iters", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert "--grid" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bad_lambda_from_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = nan\n")
    assert cli_main(["solve", "--config", str(cfg), "--iters", "2"]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep-lambda", "--xi", "nan", "--grid", "0.5"],
    ["trace", "--xi", "inf"],
    ["solve", "--lambda", "0.1", "--xi=-inf"],
    ["generate", "--xi", "nan"],
    ["bench", "--scenario", "s1", "--xi", "nan", "--grid", "0.5"],
    ["sweep-xi", "--grid", "nan"],
    ["sweep-xi", "--grid", "0.01,inf"],
    ["sweep-xi", "--grid=-0.01"],
])
def test_bad_xi_is_usage_error(argv, tmp_path, capsys):
    # NaN and infinity pass a plain `xi < 0` test, and a bad grid value is
    # otherwise met only when its instances are generated, mid-sweep
    rc = cli_main([*argv, *small(argv[0], tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    flag = "--grid" if "sweep-xi" in argv else "--xi"
    assert f"bad {flag} value: xi must be non-negative and finite" in err
    assert not any(tmp_path.iterdir())


def test_bad_xi_from_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = nan\n")
    out = tmp_path / "out"
    rc = cli_main(["sweep-lambda", "--config", str(cfg), "--grid", "0.5", "--trials", "1",
                   "--iters", "2", "--out", str(out)])
    assert rc == 2
    assert "bad --xi value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "generate"])
def test_algo_flag_is_usage_error_where_no_algorithm_is_chosen(command, tmp_path, capsys):
    # bench always measures both algorithms and generate solves nothing, so
    # neither takes --algo (it used to be accepted and ignored)
    rc = cli_main([command, "--scenario", "s1", "--algo", "pg", *small(command, tmp_path)])
    assert rc == 2
    assert "--algo" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bench_config_may_set_algo(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo = pg\n")
    out = tmp_path / "out"
    rc = cli_main(["bench", "--config", str(cfg), "--scenario", "s1", "--trials", "1",
                   "--grid", "0.5", "--iters", "3", "--out", str(out)])
    assert rc == 0
    rows = (out / "bench.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["pg", "adcd"]


@pytest.mark.parametrize("command,flag", [
    ("generate", ["--trials", "7"]),
    ("generate", ["--iters", "5"]),
    ("solve", ["--trials", "7"]),
    ("solve", ["--out", "elsewhere"]),
    ("trace", ["--trial", "1"]),
    ("sweep-lambda", ["--trial", "1"]),
    ("sweep-xi", ["--trial", "1"]),
    ("sweep-xi", ["--xi", "0.05"]),
    ("bench", ["--trial", "1"]),
    ("bench", ["--n", "30"]),
    ("bench", ["--ensemble", "gaussian"]),
])
def test_flag_a_command_never_reads_is_usage_error(command, flag, tmp_path, capsys):
    # each of these used to be accepted and ignored
    short = {"sweep-lambda": ["--grid", "0.5"], "sweep-xi": ["--grid", "0.01"],
             "bench": ["--scenario", "s1", "--grid", "0.5"], "solve": ["--lambda", "0.5"]}
    rc = cli_main([command, *short.get(command, []), *flag, *small(command, tmp_path)])
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_config_may_set_a_key_the_command_never_reads(tmp_path, capsys):
    # a shared config file keeps working for every command, although
    # generate rejects the same keys as flags
    assert cli_main(["generate", "--trials", "7", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 7\niters = 5\nlambda = 0.5\nalgo = pg\n")
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 1


@pytest.mark.parametrize("config,argv,made", [
    # bench takes no --algo, generate no --lambda and solve no --grid
    ("algo = foo\n", ["bench", "--scenario", "s1", "--trials", "1", "--grid", "0.5", "--iters", "3"],
     "bench.csv"),
    ("lambda = nan\n", ["generate"], "instance_s1_seed0_trial0_xi0.01.txt"),
    ("grid = junk\n", ["solve", "--lambda", "0.1", "--iters", "2"], None),
])
def test_config_key_for_a_flag_the_command_lacks_is_ignored(config, argv, made, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    out_flags = [] if argv[0] == "solve" else ["--out", str(out)]
    assert cli_main([*argv, "--config", str(cfg), *out_flags]) == 0
    assert capsys.readouterr().err == ""
    if made:
        assert [p.name for p in out.iterdir()] == [made]


@pytest.mark.parametrize("key,value,argv", [
    ("lambda", "nan", ["solve", "--iters", "2"]),
    ("xi", "-1", ["solve", "--lambda", "0.1", "--iters", "2"]),
    ("iters", "0", ["solve", "--lambda", "0.1"]),
    ("grid", "0.5,0.02", ["sweep-lambda", "--trials", "1", "--iters", "2"]),
    ("trials", "abc", ["trace", "--iters", "2"]),
    ("scenario", "custom", ["bench", "--trials", "1", "--grid", "0.5", "--iters", "2"]),
    ("algo", "wibble", ["solve", "--lambda", "0.1", "--iters", "2"]),
])
def test_bad_value_is_reported_alike_from_config_and_flag(key, value, argv, tmp_path, capsys):
    # a config entry is parsed as the flag it names, so the exit code and
    # the message are the flag's
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    out_flags = [] if argv[0] == "solve" else ["--out", str(out)]
    seen = []
    for given in (["--config", str(cfg)], [f"--{key}={value}"]):
        rc = cli_main([*argv, *given, *out_flags])
        seen.append((rc, capsys.readouterr().err.splitlines()[-1]))
    assert seen[0] == seen[1]
    assert seen[0][0] == 2
    assert f"argument --{key}: " in seen[0][1]
    assert not out.exists()


def test_trace_from_a_config_file_writes_the_bytes_of_the_flags(tmp_path):
    values = {"scenario": "s2", "lambda": "0.1", "xi": "0.02", "trials": "2", "seed": "5",
              "iters": "4", "algo": "pg"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    flags = [tok for key, value in values.items() for tok in (f"--{key}", value)]
    assert cli_main(["trace", "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    assert cli_main(["trace", *flags, "--out", str(tmp_path / "flags")]) == 0
    text = (tmp_path / "cfg" / "trace.csv").read_bytes()
    assert text == (tmp_path / "flags" / "trace.csv").read_bytes()
    assert len(text.splitlines()) == 5  # header + 4 iterations of pg


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "-1"],
    ["solve", "--seed", "18446744073709551616"],
    ["solve", "--trial", "-1"],
    ["solve", "--trial=18446744073709551616"],
    ["generate", "--trial", "-1"],
    ["trace", "--seed=-1", "--trials", "1"],
])
def test_seed_and_trial_outside_64_bits_are_usage_errors(argv, tmp_path, capsys):
    # a usage error here; the stream derivation rejects them as well
    flag = next(tok for tok in argv if tok.startswith("--") and tok != "--trials").split("=")[0]
    rc = cli_main([*argv, *small(argv[0], tmp_path), *(["--lambda", "0.1"] if argv[0] == "solve" else [])])
    assert rc == 2
    assert f"bad {flag} value: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_largest_seed_and_trial_are_accepted(capsys):
    top = str(2**64 - 1)
    assert cli_main(["solve", "--lambda", "0.1", "--iters", "20", "--seed", top, "--trial", top]) == 0
    assert capsys.readouterr().out.startswith("pg sq_error=")


@pytest.mark.parametrize("command", ["trace", "sweep-lambda", "sweep-xi", "bench"])
def test_trials_below_one_is_usage_error_naming_the_flag(command, tmp_path, monkeypatch, capsys):
    # rejected by the flag's type, before any config or instance is made
    monkeypatch.setattr("sparsetls.cli.ExperimentConfig", None)
    monkeypatch.setattr("sparsetls.experiments.generate_instance", None)
    scenario = ["--scenario", "s1"] if command == "bench" else []
    assert cli_main([command, *scenario, "--trials", "0", "--iters", "2", "--out", str(tmp_path)]) == 2
    assert "bad --trials value: trials must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_lambda_and_xi_defaults_are_the_suites():
    # scripts/run_all_experiments.py's CSVs have the bytes of the commands
    # run alone only while its cell is the commands' defaults
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defaults = {(name, action.dest): action.default for name, parser in sub.choices.items()
                for action in parser._actions if action.dest in ("lam", "xi")}
    assert defaults == {
        **{(name, "lam"): experiments.DEFAULT_LAMBDA for name in ("trace", "sweep-xi")},
        ("solve", "lam"): None,
        **{(name, "xi"): experiments.DEFAULT_XI
           for name in ("generate", "solve", "trace", "sweep-lambda", "bench")},
    }


@pytest.mark.parametrize("argv", [
    ["trace", "--trials", "1", "--iters", "0"],
    ["solve", "--lambda", "0.02", "--iters", "0"],
    ["sweep-lambda", "--iters", "-3", "--grid", "0.5", "--trials", "1"],
    ["sweep-xi", "--iters", "0", "--grid", "0.01", "--trials", "1"],
    ["bench", "--scenario", "s1", "--iters", "0", "--grid", "0.5", "--trials", "1"],
])
def test_iters_below_one_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # rejected before any instance is drawn
    monkeypatch.setattr("sparsetls.cli.generate_instance", None)
    monkeypatch.setattr("sparsetls.experiments.generate_instance", None)
    out = [] if argv[0] == "solve" else ["--out", str(tmp_path)]
    assert cli_main([*argv, *out]) == 2
    assert "iterations must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_iters_below_one_from_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters = 0\n")
    assert cli_main(["solve", "--config", str(cfg), "--lambda", "0.1"]) == 2
    assert "iterations must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("config,argv", [
    # choices of another subcommand: custom is not a bench scenario, and
    # both is a bench scenario only
    ("scenario = custom\nn = 30\nm = 15\nk = 3\nensemble = gaussian\n",
     ["bench", "--trials", "1", "--grid", "0.5", "--iters", "2"]),
    ("scenario = both\n", ["trace", "--trials", "1", "--iters", "2"]),
    ("scenario = both\n", ["generate"]),
    ("algo = wibble\n", ["solve", "--lambda", "0.1", "--iters", "2"]),
    ("ensemble = uniform\n", ["generate", "--scenario", "custom", "--n", "30", "--m", "15",
                               "--k", "3"]),
])
def test_config_value_outside_the_commands_choices_is_usage_error(config, argv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    out_flags = [] if argv[0] == "solve" else ["--out", str(out)]
    assert cli_main([*argv, "--config", str(cfg), *out_flags]) == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "custom scenario requires" not in err
    assert not out.exists()


def test_explicit_flag_wins_over_a_config_value_outside_the_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = custom\n")
    out = tmp_path / "out"
    rc = cli_main(["bench", "--config", str(cfg), "--scenario", "s1", "--trials", "1",
                   "--grid", "0.5", "--iters", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "bench.csv").exists()


def test_run_all_experiments_script_runs_from_a_checkout(tmp_path):
    # the script puts the src/ next to it on sys.path, as the README runs it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


# a sweep's custom shape (none for a named scenario), and the flags beyond
# --scenario that name it (on the sweep's command line and after a failed
# cell's --iters)
FAILED_CELL_SCENARIOS = {
    "s1": (None, ""),
    "custom": (ScenarioConfig(n=30, m=12, k=3, ensemble=Ensemble.RADEMACHER, xi=0.01),
               " --n 30 --m 12 --k 3 --ensemble rademacher"),
}


@pytest.mark.parametrize("error, kind", [
    pytest.param(error, kind, id=error.__name__ + ("" if kind == "s1" else f"-{kind}"))
    for kind in FAILED_CELL_SCENARIOS for error in (BacktrackingError, ValueError)])
def test_failed_cell_names_the_solve_that_reproduces_it(error, kind, tmp_path, monkeypatch, capsys):
    # the eighth cell of the sweep (trial 1, adcd, lambda 0.1) fails; the
    # error keeps its type and leads with that cell's `solve` flags, which
    # for a custom scenario include its dimensions and ensemble
    custom, more = FAILED_CELL_SCENARIOS[kind]
    real, seen = experiments.solve_instance, []

    def recorded(calls, fail_at=None):
        def solve_instance(algo, inst, lam, iterations, *args, **kwargs):
            calls.append((algo, instance_digest(inst), lam, iterations))
            if len(calls) == fail_at:
                raise error("line search failed 61 halvings")
            return real(algo, inst, lam, iterations, *args, **kwargs)
        return solve_instance

    monkeypatch.setattr(experiments, "solve_instance", recorded(seen, fail_at=8))
    argv = ["sweep-lambda", "--scenario", kind, *more.split(), "--seed", "7", "--trials", "2",
            "--grid", "0.1,0.5", "--iters", "3", "--out", str(tmp_path)]
    assert cli_main(argv) == 1
    flags = f"--algo adcd --scenario {kind} --seed 7 --trial 1 --lambda 0.1 --xi 0.01 --iters 3{more}"
    assert capsys.readouterr().err == f"error: cell solve {flags}: line search failed 61 halvings\n"
    assert not any(tmp_path.iterdir())
    monkeypatch.setattr(experiments, "solve_instance", recorded([], fail_at=8))
    cfg = ExperimentConfig(
        kind=kind, lambda_grid=[0.1, 0.5],
        xi_grid=[0.01], trials=2, master_seed=7, iters=3, custom=custom)
    with pytest.raises(error, match=f"^cell solve {flags}: line search failed") as raised:
        list(experiments.cells(cfg, with_truth=False))
    assert type(raised.value) is error and isinstance(raised.value.__cause__, error)

    # `solve` with those flags reaches the failed cell's instance, lambda
    # and budget
    solved = []
    monkeypatch.setattr(cli, "solve_instance", recorded(solved))
    assert cli_main(["solve", *flags.split()]) == 0
    assert solved == [seen[7]]
