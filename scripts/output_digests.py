#!/usr/bin/env python3
"""Print the sha256 of four reference outputs, to check byte identity.

A change that claims to keep every output bit runs this on the parent
commit and on the change, on the same host, and compares the lines:

    lambda_sweep.csv  from  sweep-lambda --trials 5 --seed 42
    trace.csv         from  trace --trials 3 --seed 5
    xi_sweep.csv      from  sweep-xi --trials 2 --seed 7 --grid 0.001,0.05
    bench.csv         from  bench --scenario both --trials 2 --grid 0.02,0.5,
                      columns scenario,lambda,algo,mean_iter_flops only
                      (the others are wall-clock timings), one LF-ended
                      line per row: the bytes of `cut -d, -f1,2,3,5`

The commands run through the package's CLI, from the src/ directory next
to this script, in a temporary directory, with the BLAS thread variables
set to 1.  The digests depend on the host's numpy and BLAS, so they are
compared between two checkouts, never against a stored value.

    python3 scripts/output_digests.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

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
        contents = {
            "lambda_sweep.csv": (out / "sweep" / "lambda_sweep.csv").read_bytes(),
            "trace.csv": (out / "trace" / "trace.csv").read_bytes(),
            "xi_sweep.csv": (out / "xi" / "xi_sweep.csv").read_bytes(),
            "bench.csv[" + ",".join(BENCH_COLUMNS) + "]": _bench_columns(out / "bench" / "bench.csv"),
        }
    return {name: hashlib.sha256(data).hexdigest() for name, data in contents.items()}


def main() -> int:
    for name, digest in digests().items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
