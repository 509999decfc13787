import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from sparsetls import (
    Ensemble,
    ScenarioConfig,
    derive_stream,
    gaussian_matrix,
    generate_instance,
    instance_digest,
    load_instance,
    rademacher_matrix,
    save_instance,
    scenario_config,
    sparse_signal,
)
from sparsetls.rng import RngStream


def test_scenario_config_validates_dimensions():
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, m=10, k=2, ensemble=Ensemble.GAUSSIAN, xi=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, m=5, k=5, ensemble=Ensemble.GAUSSIAN, xi=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, m=5, k=2, ensemble=Ensemble.GAUSSIAN, xi=-1.0)


@pytest.mark.parametrize("xi", [float("nan"), float("inf")])
def test_scenario_config_rejects_non_finite_xi(xi):
    # both pass a plain `xi < 0` test
    with pytest.raises(ValueError, match="^xi must be non-negative and finite"):
        ScenarioConfig(n=10, m=5, k=2, ensemble=Ensemble.GAUSSIAN, xi=xi)
    with pytest.raises(ValueError, match="^xi must be non-negative and finite"):
        scenario_config("s2", xi=xi)


def test_named_scenarios():
    s1 = scenario_config("s1")
    assert (s1.n, s1.m, s1.k, s1.ensemble) == (40, 20, 5, Ensemble.GAUSSIAN)
    s2 = scenario_config("s2")
    assert (s2.n, s2.m, s2.k, s2.ensemble) == (200, 80, 20, Ensemble.RADEMACHER)
    with pytest.raises(ValueError):
        scenario_config("s3")


def test_gaussian_matrix_zero_variance_is_zero():
    assert not gaussian_matrix(4, 6, 0.0, RngStream(1)).any()


@pytest.mark.parametrize("variance", [math.nan, math.inf, -1.0])
def test_gaussian_matrix_rejects_a_variance_not_finite_and_non_negative(variance):
    rng = RngStream(1)
    with pytest.raises(ValueError, match="^variance must be non-negative and finite"):
        gaussian_matrix(2, 2, variance, rng)
    assert rng.next_u64() == RngStream(1).next_u64()  # nothing was drawn


def test_gaussian_matrix_empirical_variance():
    draws = [gaussian_matrix(20, 40, 1.0 / 20, RngStream(s)) for s in range(100)]
    v = np.var(np.concatenate([d.ravel() for d in draws]))
    assert abs(v - 0.05) < 0.005


def test_gaussian_columns_have_unit_expected_sq_norm():
    # 100 instances x 40 columns = 4000 columns
    sq = [
        (gaussian_matrix(20, 40, 1.0 / 20, RngStream(1000 + s)) ** 2).sum(axis=0)
        for s in range(100)
    ]
    assert abs(np.concatenate(sq).mean() - 1.0) < 0.05


def test_rademacher_entries_and_column_norms_exact():
    m = 20
    mat = rademacher_matrix(m, 40, RngStream(7))
    assert np.all(np.abs(mat) == 1.0 / math.sqrt(m))
    norms = np.sqrt((mat**2).sum(axis=0))
    assert np.max(np.abs(norms - 1.0)) < 1e-13


@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (20, 40), (80, 200), (12, 30)])
@pytest.mark.parametrize("seed", [0, 7, 11, 2**63 + 5])
def test_rademacher_signs_have_the_bytes_of_the_top_bit_test(m, n, seed):
    # the sign of each word viewed as an int64 is its top bit, so the
    # copysign form gives the bytes of testing that bit directly
    w = RngStream(seed).u64_block(m * n)
    mag = 1.0 / math.sqrt(m)
    want = np.where((w >> np.uint64(63)) == 0, mag, -mag).reshape(m, n)
    got = rademacher_matrix(m, n, RngStream(seed))
    assert got.shape == (m, n) and got.tobytes() == want.tobytes()


def test_rademacher_mean_near_zero():
    mat = rademacher_matrix(80, 200, RngStream(11))
    assert abs(mat.mean()) < 0.01


def test_sparse_signal_basic_invariants():
    for seed in range(20):
        x = sparse_signal(40, 5, RngStream(seed))
        assert np.count_nonzero(x) == 5
        assert abs(float(x @ x) - 1.0) < 1e-12


def test_sparse_signal_single_entry():
    x = sparse_signal(1, 1, RngStream(123))
    assert x.shape == (1,)
    assert abs(abs(x[0]) - 1.0) < 1e-12


def test_sparse_signal_rejects_bad_k():
    with pytest.raises(ValueError):
        sparse_signal(5, 0, RngStream(0))
    with pytest.raises(ValueError):
        sparse_signal(5, 6, RngStream(0))


def test_sparse_signal_support_is_uniform():
    n, k = 40, 5
    counts = np.zeros(n)
    for seed in range(10_000):
        counts[np.flatnonzero(sparse_signal(n, k, RngStream(seed)))] += 1
    # each index appears with probability k/n per draw
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_generate_instance_identities(make_instance):
    inst = make_instance("s1", xi=0.01)
    assert np.abs(inst.b_true - inst.a_true @ inst.x_true).max() < 1e-10
    assert np.array_equal(inst.a, inst.a_true - inst.a_pert)
    assert np.array_equal(inst.b, inst.b_true - inst.b_pert)
    # errors-in-variables identity on the observed pair
    assert np.abs((inst.a + inst.a_pert) @ inst.x_true - (inst.b + inst.b_pert)).max() < 1e-10


def test_generate_instance_zero_xi_unperturbed(make_instance):
    inst = make_instance("s1", xi=0.0)
    assert np.array_equal(inst.a, inst.a_true)
    assert np.array_equal(inst.b, inst.b_true)
    assert not inst.a_pert.any()


def test_generate_instance_scenario_shapes(make_instance):
    inst1 = make_instance("s1")
    assert inst1.a.shape == (20, 40) and np.count_nonzero(inst1.x_true) == 5
    inst2 = make_instance("s2")
    assert inst2.a.shape == (80, 200) and np.count_nonzero(inst2.x_true) == 20
    assert np.all(np.abs(inst2.a_true) == 1.0 / math.sqrt(80))


def test_generate_instance_deterministic():
    cfg = scenario_config("s1")
    a = generate_instance(cfg, derive_stream(5, 1, 3))
    b = generate_instance(cfg, derive_stream(5, 1, 3))
    assert instance_digest(a) == instance_digest(b)


def test_common_randomness_across_xi():
    # same stream, different xi: identical system and signal, scaled noise
    lo = generate_instance(scenario_config("s1", xi=0.01), derive_stream(0, 1, 0))
    hi = generate_instance(scenario_config("s1", xi=0.04), derive_stream(0, 1, 0))
    assert np.array_equal(lo.a_true, hi.a_true)
    assert np.array_equal(lo.x_true, hi.x_true)
    assert np.allclose(2.0 * lo.a_pert, hi.a_pert, rtol=1e-12, atol=0)


def test_perturbation_variance_matches_xi_over_m():
    xi, m = 0.04, 20
    samples = np.concatenate(
        [
            generate_instance(
                scenario_config("s1", xi=xi), derive_stream(9, 1, t)
            ).a_pert.ravel()
            for t in range(150)
        ]
    )
    assert samples.size >= 100_000
    target = xi / m
    se = target * math.sqrt(2.0 / samples.size)
    assert abs(np.var(samples) - target) < 3.0 * se


def test_save_load_round_trip(tmp_path, make_instance):
    cfg = scenario_config("s1", xi=0.01)
    inst = generate_instance(cfg, derive_stream(4, 1, 2))
    path = tmp_path / "inst.txt"
    save_instance(inst, cfg, 4, path)
    loaded, header = load_instance(path)
    assert (header.m, header.n, header.k) == (20, 40, 5)
    assert header.xi == 0.01 and header.seed == 4
    # stored arrays round-trip exactly through 17 significant digits
    for field in ("a_true", "x_true", "a_pert", "b_pert", "b"):
        assert np.array_equal(getattr(loaded, field), getattr(inst, field)), field
    # reconstructed arrays obey the identities
    assert np.array_equal(loaded.a, loaded.a_true - loaded.a_pert)
    assert np.abs(loaded.b_true - (loaded.b + loaded.b_pert)).max() == 0.0
    assert np.abs(loaded.b_true - loaded.a_true @ loaded.x_true).max() < 1e-10


def test_instance_file_layout(tmp_path):
    # the header, then the labeled blocks A_o, x_o, E_o, e_o, b in that
    # order, one text row per matrix row, each holding its field
    cfg = scenario_config("s1", xi=0.01)
    inst = generate_instance(cfg, derive_stream(4, 1, 2))
    path = tmp_path / "inst.txt"
    save_instance(inst, cfg, 4, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "PCS1 20 40 5 0.01 4"
    blocks = [("A_o", 1, inst.a_true), ("x_o", 22, [inst.x_true]), ("E_o", 24, inst.a_pert),
              ("e_o", 45, [inst.b_pert]), ("b", 47, [inst.b])]
    for label, at, rows in blocks:
        assert lines[at] == label
        text = lines[at + 1:at + 1 + len(rows)]
        assert [[float(v) for v in line.split()] for line in text] == [list(r) for r in rows], label
    assert len(lines) == 49


def test_instance_seed_outside_64_bits_is_rejected(tmp_path, s1_instance):
    cfg, path = scenario_config("s1"), tmp_path / "inst.txt"
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed {seed} is outside \[0, 2\*\*64\)"):
            save_instance(s1_instance, cfg, seed, path)
        assert not path.exists()
    save_instance(s1_instance, cfg, 2**64 - 1, path)
    assert load_instance(path)[1].seed == 2**64 - 1


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not an instance\n")
    with pytest.raises(ValueError):
        load_instance(path)


def _saved_lines(tmp_path):
    cfg = scenario_config("s1", xi=0.01)
    inst = generate_instance(cfg, derive_stream(4, 1, 2))
    path = tmp_path / "inst.txt"
    save_instance(inst, cfg, 4, path)
    return path, path.read_text().splitlines()


def _block_row(lines, label, r=0):
    return lines.index(label) + 1 + r


def test_load_rejects_short_rows(tmp_path):
    # an (m, 1) E_o block would broadcast silently into a wrong a
    path, lines = _saved_lines(tmp_path)
    start = _block_row(lines, "E_o")
    for r in range(20):
        lines[start + r] = lines[start + r].split()[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="'E_o' needs 40 values per row, got 1"):
        load_instance(path)


@pytest.mark.parametrize("label,extra", [("x_o", " 0.5"), ("e_o", " 0.5"), ("b", " 0.5")])
def test_load_rejects_wrong_vector_length(tmp_path, label, extra):
    path, lines = _saved_lines(tmp_path)
    lines[_block_row(lines, label)] += extra
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"block {label!r} needs"):
        load_instance(path)


@pytest.mark.parametrize("keep", [1, 5, 23, 44, 46, 48])
def test_load_rejects_truncated_file(tmp_path, keep):
    # ValueError, never IndexError, wherever the file ends
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines[:keep]) + "\n")
    with pytest.raises(ValueError):
        load_instance(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("label", ["A_o", "b"])
def test_load_rejects_non_finite_values(tmp_path, label, bad):
    path, lines = _saved_lines(tmp_path)
    row = _block_row(lines, label)
    values = lines[row].split()
    values[3] = bad
    lines[row] = " ".join(values)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"block {label!r} contains non-finite"):
        load_instance(path)


def test_load_rejects_trailing_data_but_not_blank_lines(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines) + "\n\n   \n")
    load_instance(path)
    path.write_text("\n".join(lines) + "\n\ngarbage\n")
    with pytest.raises(ValueError, match="unexpected data after the last block"):
        load_instance(path)


@pytest.mark.parametrize("header, match", [
    ("PCS1 20 40 5 nan 4", "xi must be non-negative and finite"),
    ("PCS1 20 40 5 inf 4", "xi must be non-negative and finite"),
    ("PCS1 20 40 5 -1 4", "xi must be non-negative and finite"),
    ("PCS1 20 40 0 0.01 4", "need 0 < k < m < n"),
    ("PCS1 20 40 999 0.01 4", "need 0 < k < m < n"),
    ("PCS1 20 40 5 0.01 -1", r"seed -1 is outside \[0, 2\*\*64\)"),
    (f"PCS1 20 40 5 0.01 {2**70}", rf"seed {2**70} is outside \[0, 2\*\*64\)"),
    # dimensions a ScenarioConfig accepts, but x_o holds 5 nonzeros
    ("PCS1 20 40 4 0.01 4", "'x_o' has 5 nonzero entries"),
])
def test_load_rejects_bad_header(tmp_path, header, match):
    path, lines = _saved_lines(tmp_path)
    assert lines[0].split()[1:4] == ["20", "40", "5"]
    lines[0] = header
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match) as err:
        load_instance(path)
    assert str(err.value).startswith(f"{path}: ")


def test_load_rejects_unparsable_value(tmp_path):
    path, lines = _saved_lines(tmp_path)
    lines[_block_row(lines, "A_o", 2)] += "x"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 5"):
        load_instance(path)


def test_import_leaves_hashlib_out():
    # only instance_digest, which tests call, hashes; it imports hashlib
    # itself, so importing the package does not
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, sparsetls; print('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
