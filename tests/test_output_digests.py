"""scripts/output_digests.py with stub digests in place of the CLI runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)

OURS = {"lambda_sweep.csv": "1" * 64, "trace.csv": "2" * 64, "xi_sweep.csv": "3" * 64}


def run(argv, ours, theirs):
    """main with stubs: ours for this checkout, theirs for the other (whose
    root is recorded)."""
    roots = []

    def other(root):
        roots.append(root)
        return theirs

    return output_digests.main(argv, here=lambda: dict(ours), other=other), roots


def test_one_checkout_prints_its_digests(capsys):
    code, roots = run([], OURS, {})
    assert (code, roots) == (0, [])
    assert capsys.readouterr().out.splitlines() == [f"{d}  {n}" for n, d in OURS.items()]


def test_printed_lines_parse_back():
    text = "".join(f"{d}  {n}\n" for n, d in OURS.items())
    assert output_digests.parse(text) == OURS
    assert output_digests.parse("") == {}


def test_equal_checkouts_exit_0(capsys):
    code, roots = run(["../parent"], OURS, dict(OURS))
    assert (code, roots) == (0, [Path("../parent")])
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{d}  {d}  {n}" for n, d in OURS.items()]
    assert err == ""


def test_each_differing_digest_is_named(capsys):
    theirs = {**OURS, "trace.csv": "9" * 64, "xi_sweep.csv": "8" * 64}
    code, _ = run(["P"], OURS, theirs)
    assert code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == f"{'2' * 64}  {'9' * 64}  trace.csv"
    assert err.splitlines() == ["differs: trace.csv", "differs: xi_sweep.csv"]


def test_a_digest_one_side_lacks_differs(capsys):
    theirs = {**OURS, "bench.csv": "4" * 64}
    del theirs["lambda_sweep.csv"]
    code, _ = run(["P"], OURS, theirs)
    assert code == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == f"{'1' * 64}  {'-' * 64}  lambda_sweep.csv"
    assert lines[-1] == f"{'-' * 64}  {'4' * 64}  bench.csv"
    assert err.splitlines() == ["differs: lambda_sweep.csv", "differs: bench.csv"]
    assert output_digests.differing(OURS, theirs) == ["lambda_sweep.csv", "bench.csv"]
