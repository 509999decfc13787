#!/usr/bin/env python3
"""Print the sha256 of six reference outputs, to check byte identity.

A change that claims to keep every output bit runs this on the parent
commit and on the change, on the same host, and compares the lines:

    lambda_sweep.csv  from  sweep-lambda --trials 5 --seed 42
    trace.csv         from  trace --trials 3 --seed 5
    xi_sweep.csv      from  sweep-xi --trials 2 --seed 7 --grid 0.001,0.05
    bench.csv         from  bench --scenario both --trials 2 --grid 0.02,0.5,
                      columns scenario,lambda,algo,mean_iter_flops only
                      (the others are wall-clock timings), one LF-ended
                      line per row: the bytes of `cut -d, -f1,2,3,5`
    instance_s2_seed5_trial2.txt
                      from  generate --scenario s2 --seed 5 --trial 2
    instance_custom_seed7_trial0.txt
                      from  generate --scenario custom --n 30 --m 12 --k 3
                      --ensemble rademacher --xi 0.05 --seed 7

The commands run through the package's CLI, from the src/ directory next
to this script, in a temporary directory, with the BLAS thread variables
set to 1.  The digests depend on the host's numpy and BLAS, so they are
compared between two checkouts, never against a stored value.

    python3 scripts/output_digests.py [OTHER]

With OTHER, the root of a second checkout (say, the parent commit), the
commands also run there, through that checkout's own copy of this script
in a child process.  Each line then holds this checkout's digest, the
other's and the name (a digest only one side prints shows as dashes on
the other), and the exit status is 1, with a `differs:` line on stderr
naming each digest that is not the same on both sides.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsetls import cli_main  # noqa: E402

BENCH_COLUMNS = ("scenario", "lambda", "algo", "mean_iter_flops")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")


def _bench_columns(path: Path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    writer.writerows([row[col] for col in BENCH_COLUMNS] for row in rows)
    return out.getvalue().encode()


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        _run(["sweep-lambda", "--trials", "5", "--seed", "42", "--out", str(out / "sweep")])
        _run(["trace", "--trials", "3", "--seed", "5", "--out", str(out / "trace")])
        _run(["sweep-xi", "--trials", "2", "--seed", "7", "--grid", "0.001,0.05",
              "--out", str(out / "xi")])
        _run(["bench", "--scenario", "both", "--trials", "2", "--grid", "0.02,0.5",
              "--out", str(out / "bench")])
        _run(["generate", "--scenario", "s2", "--seed", "5", "--trial", "2", "--out", str(out / "gen")])
        _run(["generate", "--scenario", "custom", "--n", "30", "--m", "12", "--k", "3",
              "--ensemble", "rademacher", "--xi", "0.05", "--seed", "7", "--out", str(out / "gen")])
        contents = {
            "lambda_sweep.csv": (out / "sweep" / "lambda_sweep.csv").read_bytes(),
            "trace.csv": (out / "trace" / "trace.csv").read_bytes(),
            "xi_sweep.csv": (out / "xi" / "xi_sweep.csv").read_bytes(),
            "bench.csv[" + ",".join(BENCH_COLUMNS) + "]": _bench_columns(out / "bench" / "bench.csv"),
            **{name: (out / "gen" / name).read_bytes()
               for name in ("instance_s2_seed5_trial2.txt", "instance_custom_seed7_trial0.txt")},
        }
    return {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}


def parse(text: str) -> dict[str, str]:
    """The digests in the lines this script prints for one checkout."""
    return {name: digest for digest, name in (line.split("  ", 1) for line in text.splitlines())}


def checkout_digests(root: Path) -> dict[str, str]:
    """The digests of the checkout at root, from its own copy of this
    script run in a child process."""
    proc = subprocess.run([sys.executable, str(root / "scripts" / "output_digests.py")],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: output_digests.py exited with {proc.returncode}\n{proc.stderr}")
    return parse(proc.stdout)


def differing(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """The names whose digests differ, or that one side lacks, in order."""
    return [name for name in {**ours, **theirs} if ours.get(name) != theirs.get(name)]


def main(argv: Optional[list[str]] = None,
         here: Callable[[], dict[str, str]] = digests,
         other: Callable[[Path], dict[str, str]] = checkout_digests) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other", type=Path, nargs="?", help="root of a second checkout to compare with")
    args = ap.parse_args(argv)
    ours = here()
    if args.other is None:
        for name, digest in ours.items():
            print(f"{digest}  {name}")
        return 0
    theirs = other(args.other)
    none = "-" * 64
    for name in {**ours, **theirs}:
        print(f"{ours.get(name, none)}  {theirs.get(name, none)}  {name}")
    bad = differing(ours, theirs)
    for name in bad:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
