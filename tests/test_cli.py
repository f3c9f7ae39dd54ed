import ast
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import tempfile
import typing
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdyson
from hdyson import (
    ModelParams,
    TreeGeometry,
    TruncationPolicy,
    binary_entropy,
    eigenvalues,
    occupation,
    psi_thermo,
    single_particle_entropy,
)
from hdyson import cli
from hdyson.cli import (
    ENTROPY_MODES, EVOLVE_MODES, FORMATS, SUBCOMMANDS, RunConfig, build_run_config, main,
)

from reference import two_spin_defect_occupations


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(dict(zip(header, cells)))
    return header, rows


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_spectrum_output(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(tmp_path, "spectrum", "--N", 3, "--sigma", 1, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["k", "epsilon", "degeneracy"]
    eps_k = eigenvalues(ModelParams(TreeGeometry(3), J=1.0, sigma=1.0))
    assert [row["k"] for row in rows] == [0.0, 1.0, 2.0, 3.0]
    assert sum(row["degeneracy"] for row in rows) == 8
    for row, eps in zip(rows, eps_k):
        assert row["epsilon"] == eps  # 17-digit round trip is exact
    manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
    assert manifest["config"]["N"] == 3
    assert str(out) in manifest["outputs"][0]


def test_spectrum_sigma_zero_exit_code(tmp_path):
    assert run(tmp_path, "spectrum", "--sigma", 0, "--out", tmp_path / "x.csv") == 2


def test_evolve_initial_row_and_roundtrip(tmp_path):
    out = tmp_path / "ev.csv"
    assert run(tmp_path, "evolve", "--tmax", 2, "--dt", 0.5, "--rmax", 3,
               "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["t", "r", "psi_re", "psi_im", "P"]
    first = rows[0]
    assert first["t"] == 0.0 and first["r"] == 0.0 and first["P"] == 1.0
    # round trip: parsed values equal the library recomputation exactly
    policy = TruncationPolicy(64)
    for row in rows[:12]:
        psi = psi_thermo(int(row["r"]), row["t"], 1.0, 1.0, policy)
        assert row["psi_re"] == psi.real and row["psi_im"] == psi.imag


def test_evolve_modes_agree(tmp_path):
    thermo = tmp_path / "thermo.csv"
    finite = tmp_path / "finite.csv"
    dense = tmp_path / "dense.csv"
    fast = tmp_path / "fast.csv"
    base = ["--tmax", 5, "--dt", 0.5, "--sigma", 1]
    assert run(tmp_path, "evolve", *base, "--rmax", 3, "--out", thermo) == 0
    assert run(tmp_path, "evolve", *base, "--mode", "finite", "--N", 14,
               "--out", finite) == 0
    assert run(tmp_path, "evolve", *base, "--mode", "dense", "--N", 10,
               "--out", dense) == 0
    assert run(tmp_path, "evolve", *base, "--mode", "fast", "--N", 10,
               "--out", fast) == 0

    def table(path, r_cap):
        _, rows = read_csv(path)
        return {
            (row["t"], row["r"]): row for row in rows if row["r"] <= r_cap
        }

    thermo_map, finite_map = table(thermo, 3), table(finite, 3)
    for key, row in thermo_map.items():
        assert abs(row["P"] - finite_map[key]["P"]) < 1e-3
    dense_map, fast_map = table(dense, 10), table(fast, 10)
    for key, row in dense_map.items():
        other = fast_map[key]
        delta = math.hypot(row["psi_re"] - other["psi_re"],
                           row["psi_im"] - other["psi_im"])
        assert delta < 1e-10
    # every mode's P column is the library's occupation of its psi columns
    for path in (thermo, finite, dense, fast):
        _, rows = read_csv(path)
        r = np.array([row["r"] for row in rows], dtype=int)
        psi = np.array([row["psi_re"] + 1j * row["psi_im"] for row in rows])
        assert np.array_equal([row["P"] for row in rows], occupation(r, psi))


def test_evolve_unknown_mode(tmp_path):
    assert run(tmp_path, "evolve", "--mode", "bogus", "--out", tmp_path / "x.csv") == 2


def test_collapse_curves_and_exponent(tmp_path):
    out = tmp_path / "col.csv"
    assert run(tmp_path, "collapse", "--rmin", 1, "--rmax", 6, "--tmax", 4,
               "--points", 33, "--K", 40, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["s", "F_re", "F_im", "r_source"]
    curves = {}
    for row in rows:
        curves.setdefault(int(row["r_source"]), []).append(row)
    tolerance = 4.0 * 2.0 ** -40
    for a, b in zip(curves[1], curves[6]):
        assert abs(a["s"] - b["s"]) < 1e-15
        assert math.hypot(a["F_re"] - b["F_re"], a["F_im"] - b["F_im"]) < tolerance
    zero = curves[1][0]
    assert zero["s"] == 0.0
    assert math.hypot(zero["F_re"], zero["F_im"]) <= 2.0 ** -40 + 1e-15
    manifest = json.loads((tmp_path / "col.csv.manifest.json").read_text())
    assert abs(manifest["z_estimate"] - 1.0) <= 0.02


def test_timeavg_closed_forms(tmp_path):
    out = tmp_path / "ta.csv"
    assert run(tmp_path, "timeavg", "--rmin", 0, "--rmax", 4, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["r", "T", "numerical_avg", "closed_form"]
    by_r = {int(row["r"]): row for row in rows}
    assert by_r[0]["closed_form"] == pytest.approx(1.0 / 3.0)
    assert by_r[4]["closed_form"] == pytest.approx(1.0 / 24.0)
    for row in rows:
        assert abs(row["numerical_avg"] - row["closed_form"]) <= 0.02 * row["closed_form"]
    _, tail_rows = read_csv(tmp_path / "ta_tail.csv")
    tail = {int(row["R"]): row for row in tail_rows}
    assert tail[3]["closed_form_tail"] == pytest.approx(2.0 ** -2 / 3.0)
    assert tail[0]["bound"] == 2.0
    with pytest.raises(KeyError):
        tail[5]


def test_manybody_two_site_toy(tmp_path):
    stem = tmp_path / "mb"
    assert run(tmp_path, "manybody", "--L", 2, "--h", 7, "--tmax", 3, "--dt", 0.25,
               "--out", stem) == 0
    _, rows = read_csv(tmp_path / "mb_n.csv")
    for row in rows:
        n1, n2 = two_spin_defect_occupations(row["t"], 1.0)
        expected = n1 if row["x"] == 1.0 else n2
        assert abs(row["n"] - expected) < 1e-8
    manifest = json.loads((tmp_path / "mb.manifest.json").read_text())
    assert manifest["quasi_conservation_max_deviation"] < 1e-10
    assert manifest["scheme"] == "adaptive-lanczos-expm"
    assert 0.0 <= manifest["max_norm_deviation"] < 1e-10
    assert 0.0 <= manifest["max_relative_energy_drift"] < 1e-10  # E(0) = 0: absolute
    _, p_rows = read_csv(tmp_path / "mb_P.csv")
    t0 = [row for row in p_rows if row["t"] == 0.0]
    assert t0[0]["P"] == 1.0 and all(row["P"] == 0.0 for row in t0[1:])
    s_rows = read_csv(tmp_path / "mb_S.csv")[1]
    assert all(row["S"] == 0.0 for row in s_rows if row["t"] == 0.0)


def test_manybody_manifest_lanczos_counters(tmp_path):
    # L = 2 from one flip: a 2-d Krylov space, exact steps of 0.05 (see
    # test_lanczos_stats_of_two_site_defect)
    assert run(tmp_path, "manybody", "--L", 2, "--h", 7, "--tmax", 0.1, "--dt", 0.1,
               "--out", tmp_path / "two") == 0
    manifest = json.loads((tmp_path / "two.manifest.json").read_text())
    assert manifest["lanczos"] == {
        "accepted": 2, "rejected": 0, "dt_min": 0.05, "dt_max": 0.05,
        "max_local_error": 0.0, "error_bound": 0.0, "krylov_dim_min": 2, "krylov_dim_max": 2,
    }
    for stem in ("a", "b"):
        assert run(tmp_path, "manybody", "--L", 4, "--h", 2, "--tmax", 1,
                   "--out", tmp_path / stem) == 0
    first, second = (json.loads((tmp_path / f"{stem}.manifest.json").read_text())
                     for stem in ("a", "b"))
    for manifest in (first, second):
        del manifest["outputs"], manifest["config"]["out"]
    assert first == second
    assert first["lanczos"]["accepted"] > 0


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("argv, manifest", [
    (("manybody", "--out", "mb"), "mb.manifest.json"),
    (("entropy", "--mode", "manybody", "--out", "ent.csv"), "ent.csv.manifest.json"),
])
def test_manybody_manifests_record_sector(tmp_path, length, argv, manifest):
    # the single flip is odd: the run stays in the 2^(L-1) odd sector; the
    # summed local error bounds lie between the worst one and one target
    # per accepted substep
    command, *rest = argv
    rest[-1] = tmp_path / rest[-1]
    assert run(tmp_path, command, "--L", length, "--tmax", 0.5, "--dt", 0.25, *rest) == 0
    record = json.loads((tmp_path / manifest).read_text())
    assert record["sector"] == {"parity": "odd", "dimension": 1 << (length - 1)}
    lanczos = record["lanczos"]
    assert lanczos["accepted"] > 0
    assert lanczos["max_local_error"] <= lanczos["error_bound"] <= lanczos["accepted"] * 1e-9


def test_manybody_resource_and_input_errors(tmp_path):
    assert run(tmp_path, "manybody", "--L", 32, "--out", tmp_path / "x") == 3
    assert run(tmp_path, "manybody", "--L", 6, "--out", tmp_path / "x") == 2
    assert run(tmp_path, "manybody", "--L", 4, "--h", 0,
               "--compare-single-particle", "--out", tmp_path / "x") == 2
    assert run(tmp_path, "manybody", "--L", 2, "--h", 0, "--tmax", 0.5, "--dt", 0.25,
               "--out", tmp_path / "h0") == 0


def test_manybody_comparison_field(tmp_path):
    stem = tmp_path / "cmp"
    assert run(tmp_path, "manybody", "--L", 8, "--h", 40, "--tmax", 2, "--dt", 0.5,
               "--compare-single-particle", "--out", stem) == 0
    manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
    assert 0.0 < manifest["single_particle_max_deviation"] < 0.05
    assert 0.0 <= manifest["max_norm_deviation"] < 1e-8
    assert 0.0 <= manifest["max_relative_energy_drift"] < 1e-8


def test_entropy_single_mode(tmp_path):
    out = tmp_path / "ent.csv"
    assert run(tmp_path, "entropy", "--N", 5, "--tmax", 5, "--dt", 2.5,
               "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x", "S"]
    assert all(row["S"] == 0.0 for row in rows if row["t"] == 0.0)
    late = [row["S"] for row in rows if row["t"] == 5.0]
    assert len(late) == 31
    assert late[15] > late[29]  # decay beyond the first shells
    # the S column is the library's entropy of the shell profile
    for t in (0.0, 2.5, 5.0):
        shells = np.array([psi_thermo(r, t, 1.0) for r in range(6)])
        expected = single_particle_entropy(shells, np.arange(1, 32))
        assert np.array_equal([row["S"] for row in rows if row["t"] == t], expected)


# Largest |S - binary_entropy(P_A)| of the `entropy --mode single --N 8`
# table, P_A the exact Fraction sum of the same amplitudes, rounded once:
# measured 3.6e-15 (t = 8, x = 183).  A running sum over the 255 sites
# measured 1.2e-13 (t = 3, x = 255), where the entropy amplifies rounding.
ENTROPY_EXACT_SUM_GAP = 4e-15


def test_entropy_single_table_against_exact_sums(tmp_path):
    out = tmp_path / "ent.csv"
    assert run(tmp_path, "entropy", "--mode", "single", "--N", 8, "--out", out) == 0
    _, rows = read_csv(out)
    grid = np.unique([row["t"] for row in rows])
    amplitudes = np.array([psi_thermo(r, grid, 1.0) for r in range(9)]).T
    worst = 0.0
    for t, shells in zip(grid, amplitudes):
        density = [Fraction(a.real) ** 2 + Fraction(a.imag) ** 2 for a in shells.tolist()]
        exact = []  # P_A at cuts 1..255, shell by shell
        below = Fraction(0)
        for r, value in enumerate(density):
            width = 1 if r == 0 else 1 << (r - 1)
            exact += [below + k * value for k in range(1, width + 1)]
            below += width * value
        table = [row["S"] for row in rows if row["t"] == t]
        gaps = np.abs(np.array(table) - binary_entropy(np.array([float(p) for p in exact[:255]])))
        worst = max(worst, float(np.max(gaps)))
    assert worst <= ENTROPY_EXACT_SUM_GAP


def test_entropy_manybody_mode(tmp_path):
    out = tmp_path / "entm.csv"
    assert run(tmp_path, "entropy", "--mode", "manybody", "--L", 4, "--h", 30,
               "--tmax", 1, "--dt", 0.5, "--out", out) == 0
    _, rows = read_csv(out)
    assert {row["x"] for row in rows} == {1.0, 2.0, 3.0}
    assert all(row["S"] >= 0.0 for row in rows)


def test_bench_subcommand_is_gone(tmp_path):
    # kernel timings live in perfbench/ and oracle.benchmark_fast_ops
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "bench", "--nmin", 4, "--nmax", 5, "--out", tmp_path / "b.csv")
    assert exc.value.code == 2


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(tmp_path, "evolve", "--tmax", 3, "--dt", 0.5, "--rmax", 4,
                   "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_text().replace("a.csv", "") == (
        tmp_path / "b.csv.manifest.json"
    ).read_text().replace("b.csv", "")


def test_json_format(tmp_path):
    out = tmp_path / "spec.json"
    assert run(tmp_path, "spectrum", "--N", 2, "--format", "json", "--out", out) == 0
    records = json.loads(out.read_text())
    assert records[0] == {"k": 0, "epsilon": -1.5, "degeneracy": 1}
    assert records[2]["degeneracy"] == 2
    # == also holds for 1.0: the multiplicities must be JSON integers
    assert all(type(record["degeneracy"]) is int for record in records)


def test_deepest_spectrum_writes_integer_multiplicities(tmp_path):
    # the block sizes of N = 63 reach 2^62, past the float64 integers
    for fmt in FORMATS:
        out = tmp_path / f"spec63.{fmt}"
        assert run(tmp_path, "spectrum", "--N", 63, "--format", fmt, "--out", out) == 0
        text = out.read_text()
        if fmt == "json":
            counts = [record["degeneracy"] for record in json.loads(text)]
        else:
            counts = [int(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
        assert counts == [1] + [1 << (k - 1) for k in range(1, 64)]
        assert all(type(count) is int for count in counts)


TABLE_RUNS = {
    **{f"evolve-{mode}": ["evolve", "--mode", mode, "--N", 3, "--rmax", 3, "--tmax", 1,
                          "--dt", 0.5] for mode in EVOLVE_MODES},
    "collapse": ["collapse", "--rmin", 1, "--rmax", 3, "--points", 5, "--tmax", 2],
    "timeavg": ["timeavg", "--rmax", 2, "--tmax", 1, "--dt", 0.5],
    "manybody": ["manybody", "--L", 4, "--tmax", 1, "--dt", 0.5],
    **{f"entropy-{mode}": ["entropy", "--mode", mode, "--N", 3, "--L", 4, "--tmax", 1,
                           "--dt", 0.5] for mode in ENTROPY_MODES},
}
KEY_COLUMNS = {"r", "R", "x", "r_source"}


@pytest.mark.parametrize("argv", TABLE_RUNS.values(), ids=TABLE_RUNS.keys())
def test_json_tables_hold_the_csv_values(tmp_path, argv):
    outputs = {}
    for fmt in ("csv", "json"):
        (tmp_path / fmt).mkdir()
        out = tmp_path / fmt / ("t" if argv[0] == "manybody" else "t.txt")
        assert run(tmp_path, *argv, "--format", fmt, "--out", out) == 0
        outputs[fmt] = json.loads(Path(f"{out}.manifest.json").read_text())["outputs"]
    assert len(outputs["csv"]) == len(outputs["json"])
    for csv_path, json_path in zip(outputs["csv"], outputs["json"]):
        header, rows = read_csv(Path(csv_path))
        records = json.loads(Path(json_path).read_text())
        assert rows and [list(record) for record in records] == [header] * len(rows)
        assert [list(record.values()) for record in records] == [
            [row[key] for key in header] for row in rows
        ]
        for record in records:
            for key, value in record.items():
                assert type(value) is (int if key in KEY_COLUMNS else float), (key, value)


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this study\nN=3\nsigma=2.0\n")
    config = build_run_config(
        ["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    )
    assert config.N == 3 and config.sigma == 2.0
    config = build_run_config(
        ["spectrum", "--config", str(cfg), "--N", "1", "--out", str(tmp_path / "s.csv")]
    )
    assert config.N == 1 and config.sigma == 2.0  # flags beat the file
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key=3\n")
    assert run(tmp_path, "spectrum", "--config", bad, "--out", tmp_path / "x.csv") == 2
    bad.write_text("sigma\n")
    assert run(tmp_path, "spectrum", "--config", bad, "--out", tmp_path / "x.csv") == 2


FIELDS = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}

# one value per RunConfig field except `command`, none equal to a default
CONFIG_SAMPLE = {
    "N": 3, "L": 4, "sigma": 0.5, "J": 2.0, "h": 1.5, "tmax": 2.0, "dt": 0.5,
    "K": 32, "mode": "fast", "out": "run.json", "format": "json", "rmin": 1,
    "rmax": 2, "points": 5, "compare_single_particle": True,
}


def test_config_file_accepts_every_field(tmp_path):
    assert set(CONFIG_SAMPLE) == FIELDS
    assert set().union(*(sub.settings for sub in SUBCOMMANDS.values())) == FIELDS
    for command, subcommand in SUBCOMMANDS.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("".join(f"{key}={CONFIG_SAMPLE[key]}\n"
                               for key in subcommand.settings))
        config = build_run_config([command, "--config", str(cfg)])
        for key in FIELDS:
            value = CONFIG_SAMPLE[key] if key in subcommand.settings else None
            assert getattr(config, key) == value
            assert type(getattr(config, key)) is type(value)


UNREAD = [(command, key) for command, subcommand in SUBCOMMANDS.items()
          for key in sorted(FIELDS - set(subcommand.settings))]


@pytest.mark.parametrize("command, key", UNREAD)
def test_unread_settings_are_rejected(tmp_path, capsys, command, key):
    out = tmp_path / "x.csv"
    flag = ["--" + key.replace("_", "-")]
    if key != "compare_single_particle":
        flag.append(CONFIG_SAMPLE[key])
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, *flag, "--out", out)
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={CONFIG_SAMPLE[key]}\n")
    capsys.readouterr()
    assert run(tmp_path, command, "--config", cfg, "--out", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("input error:")


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("hdyson ")]
    configs = [build_run_config(shlex.split(line)[1:]) for line in lines]
    assert {config.command for config in configs} == set(SUBCOMMANDS)


@pytest.mark.parametrize("line", ["seed=0", "unknown_key=3"])
def test_config_file_rejects_unknown_keys(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    assert run(tmp_path, "spectrum", "--config", cfg, "--out", out) == 2
    assert not out.exists()


def test_seed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "spectrum", "--seed", 7, "--out", tmp_path / "s.csv")
    assert exc.value.code == 2


# a quick run of each subcommand
SMALL_RUNS = {
    "spectrum": ["--N", 2],
    "evolve": ["--rmax", 1, "--tmax", 0],
    "collapse": ["--rmax", 2, "--points", 2, "--tmax", 1],
    "timeavg": ["--rmax", 1, "--tmax", 1],
    "manybody": ["--L", 2, "--tmax", 0],
    "entropy": ["--N", 2, "--tmax", 0],
}


def test_manifest_config_keys_are_run_config_fields(tmp_path):
    assert set(SMALL_RUNS) == set(SUBCOMMANDS)
    for command, argv in SMALL_RUNS.items():
        out = tmp_path / command
        assert run(tmp_path, command, *argv, "--out", out) == 0
        config = json.loads((tmp_path / f"{command}.manifest.json").read_text())["config"]
        assert config["command"] == command
        assert set(config) == {"command", *SUBCOMMANDS[command].settings}
        assert set(config) <= FIELDS | {"command"}


FLOAT_KEYS = [key for key, hint in typing.get_type_hints(RunConfig).items()
              if float in (typing.get_args(hint) or (hint,))]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_non_finite_values_rejected(tmp_path, capsys, source, key, value):
    # manybody reads every float setting
    argv = ["manybody", "--L", 2, "--out", tmp_path / "e"]
    if source == "flag":
        argv.append(f"--{key}={value}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", cfg]
    assert run(tmp_path, *argv) == 2
    assert not list(tmp_path.glob("e*"))
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("argv, table, index, count", [
    (["evolve", "--rmax", 1], "e.csv", "r", 2),
    (["manybody", "--L", 2], "e_n.csv", "x", 2),
    (["entropy", "--N", 2], "e.csv", "x", 3),
])
def test_zero_horizon_writes_one_time_point(tmp_path, argv, table, index, count):
    out = tmp_path / ("e" if argv[0] == "manybody" else "e.csv")
    assert run(tmp_path, *argv, "--tmax", 0, "--out", out) == 0
    _, rows = read_csv(tmp_path / table)
    assert [row["t"] for row in rows] == [0.0] * count
    assert [row[index] for row in rows] == sorted({row[index] for row in rows})


@pytest.mark.parametrize("command", ["evolve", "timeavg"])
def test_time_step_cap(tmp_path, capsys, command):
    # span / dt overflows to inf: no step count to take
    out = tmp_path / "big.csv"
    assert run(tmp_path, command, "--tmax", 1e300, "--dt", 1e-300, "--out", out) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("resource limit:")


def test_timeavg_takes_default_horizons_past_two_to_the_24_steps(tmp_path):
    # r = 11, 12 average 2.0e7 and 4.1e7 steps at the default horizons
    out = tmp_path / "ta.csv"
    assert run(tmp_path, "timeavg", "--rmax", 12, "--out", out) == 0
    _, rows = read_csv(out)
    assert [row["T"] for row in rows][-2:] == [100.0 * 2.0 ** 11, 100.0 * 2.0 ** 12]
    for row in rows:
        assert abs(row["numerical_avg"] - row["closed_form"]) <= 0.02 * row["closed_form"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--rmax", 1100, "--tmax", 0],
    ["collapse", "--rmin", 1, "--rmax", 1100, "--points", 2, "--tmax", 1],
    ["collapse", "--sigma", 2, "--rmin", 1, "--rmax", 600, "--points", 2, "--tmax", 1],
    # the exponent scan's 2^(6 r) overflows from r = 171 on
    ["collapse", "--rmin", 1, "--rmax", 171, "--points", 2, "--tmax", 1],
    ["timeavg", "--rmax", 1100, "--tmax", 1],
    ["timeavg", "--sigma", 2, "--rmin", 600, "--rmax", 600],
    ["spectrum", "--N", 64],
    ["evolve", "--mode", "finite", "--N", 70, "--tmax", 0],
], ids=["evolve", "collapse", "collapse-sigma", "collapse-scan", "timeavg",
        "timeavg-horizon", "spectrum-depth", "evolve-depth"])
def test_shell_cap(tmp_path, capsys, argv):
    out = tmp_path / "big.csv"
    assert run(tmp_path, *argv, "--out", out) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.parametrize("tmax", [0, -1])
def test_timeavg_rejects_non_positive_tmax(tmp_path, capsys, tmax):
    # `--tmax 0` was read as unset and ran the default horizons (exit 0)
    out = tmp_path / "ta.csv"
    assert run(tmp_path, "timeavg", "--rmax", 2, "--tmax", tmax, "--out", out) == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("input error: averaging horizon must be positive")


@pytest.mark.filterwarnings("error")
def test_timeavg_refuses_horizons_whose_phases_overflow(tmp_path, capsys):
    # exited 0 with nan in every row and overflow warnings
    out = tmp_path / "ta.csv"
    assert run(tmp_path, "timeavg", "--rmin", 0, "--rmax", 2, "--tmax", 1.7e308, "--dt", 1,
               "--out", out) == 3
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.parametrize("argv", [
    ["timeavg", "--sigma", 2000, "--rmax", 2, "--tmax", 10, "--out", "ta.csv"],
    ["evolve", "--sigma", 2000, "--rmax", 2, "--tmax", 1, "--out", "ev.csv"],
    ["entropy", "--sigma", 1100, "--N", 3, "--tmax", 1, "--out", "ent.csv"],
    # the same overflow from a large J: nan in every row, exit 0
    ["evolve", "--J", 1e308, "--rmax", 2, "--tmax", 1, "--out", "ev.csv"],
], ids=["timeavg", "evolve", "entropy", "evolve-J"])
def test_ladder_rate_overflow_is_an_input_error(tmp_path, capsys, argv):
    # 2^(sigma + 1) raised OverflowError from sigma = 1023: exit 1 and a traceback
    argv[-1] = tmp_path / argv[-1]
    assert run(tmp_path, *argv) == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # exited 0 with -inf and nan levels and a RuntimeWarning
    ["spectrum", "--N", 4, "--J", 1e308, "--sigma", 0.01, "--out", "sp.csv"],
    # exited 1 with a ZeroDivisionError: 1 - 2^-sigma rounds to 0
    ["spectrum", "--N", 4, "--sigma", 1e-300, "--out", "sp.csv"],
    # exited 1 with a LinAlgError from the Krylov step's eigh
    ["manybody", "--L", 4, "--tmax", 0.1, "--h", 1e200, "--out", "mb"],
    ["manybody", "--L", 4, "--tmax", 0.1, "--J", 1e300, "--out", "mb"],
    ["entropy", "--mode", "manybody", "--L", 4, "--tmax", 0.1, "--h", 1e300,
     "--out", "ent.csv"],
], ids=["spectrum-J", "spectrum-sigma", "manybody-h", "manybody-J", "entropy-h"])
def test_models_whose_energies_overflow_are_refused(tmp_path, capsys, argv):
    argv[-1] = tmp_path / argv[-1]
    assert run(tmp_path, *argv) == 3
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("resource limit:")


def test_many_body_field_below_the_energy_cap_runs(tmp_path):
    # h L = 4e153 squares to a finite double, so the model is admitted
    stem = tmp_path / "mb"
    assert run(tmp_path, "manybody", "--L", 4, "--tmax", 0.1, "--h", 1e153, "--out", stem) == 0
    _, rows = read_csv(tmp_path / "mb_n.csv")
    assert all(math.isfinite(row["n"]) for row in rows)


FLOAT_TRAP_PROBES = [
    # each exited 0 with nan rows and overflow warnings
    *(["evolve", "--mode", mode, "--N", 6, "--J", 1e300, "--tmax", 1e300, "--dt", 1e299]
      for mode in ("fast", "finite")),
    ["evolve", "--mode", "dense", "--N", 4, "--J", 1e300, "--tmax", 1e300, "--dt", 1e299],
    ["evolve", "--mode", "thermo", "--rmax", 3, "--J", 1e300, "--tmax", 1e300, "--dt", 1e299],
    ["evolve", "--mode", "thermo", "--rmax", 3, "--tmax", 1e308, "--dt", 1e307],
    # exited 2 after overflow warnings
    ["entropy", "--mode", "single", "--N", 3, "--tmax", 1e308, "--dt", 1e307],
    # exact steps grow until dt E overflows: exited 1 with a LinAlgError traceback
    ["manybody", "--L", 4, "--J", 1e100, "--tmax", 1e300, "--dt", 1e299],
    # the evolution stays in range, its single-particle comparison does not:
    # exited 0 with a NaN deviation in the manifest; the tables now come
    # after the comparison, so none is left behind
    ["manybody", "--L", 2, "--J", 1e11, "--h", 1, "--tmax", 1e298, "--dt", 1e297,
     "--compare-single-particle"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", FLOAT_TRAP_PROBES,
                         ids=["fast", "finite", "dense", "thermo-J", "thermo-t", "entropy",
                              "manybody", "manybody-compare"])
def test_runs_whose_floats_overflow_are_refused(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--out", tmp_path / "o.csv") == 3
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("resource limit: floating-point overflow")


@pytest.mark.filterwarnings("error")
def test_collapse_refuses_an_overflowing_time_scale_before_the_fit(tmp_path, capsys,
                                                                   no_compute):
    # 2^(7 r) leaves the double range at r = 147: refused before the exponent fit
    out = tmp_path / "col.csv"
    assert run(tmp_path, "collapse", "--sigma", 7, "--rmax", 150, "--out", out) == 3
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # the Lanczos gate's leading term overflowed with a warning; it is a
    # Python float, whose inf keeps the gate closed
    ["--tmax", 0.1, "--J", 1e120],
    ["--tmax", 1e300, "--dt", 1e299],
], ids=["J", "tmax"])
def test_many_body_runs_whose_step_gate_overflows_are_admitted(tmp_path, argv):
    assert run(tmp_path, "manybody", "--L", 4, *argv, "--out", tmp_path / "mb") == 0
    for table in ("mb_n.csv", "mb_P.csv", "mb_S.csv"):
        _, rows = read_csv(tmp_path / table)
        assert rows and all(math.isfinite(v) for row in rows for v in row.values())


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--N", 2], 0),
    (FLOAT_TRAP_PROBES[0], 3),
    (["spectrum", "--N", -1], 2),
])
def test_float_trap_is_scoped_to_main(tmp_path, argv, code):
    before = np.geterr()
    assert run(tmp_path, *argv, "--out", tmp_path / "o.csv") == code
    assert np.geterr() == before
    # a later library call warns as numpy does by default, and does not raise
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        psi_thermo(3, 1e300, 1.0, 1e300)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_collapse_rejects_a_flat_exponent_scan(tmp_path, capsys):
    # at J = 0 every trial exponent costs the same: z_estimate 0.100137 was stored
    out = tmp_path / "col.csv"
    assert run(tmp_path, "collapse", "--J", 0, "--rmax", 3, "--out", out) == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("J", [1e-3, 2.5, 1e10, 1e20])
def test_collapse_fit_window_is_in_units_of_one_over_J(tmp_path, J):
    # on a fixed t in (0, 6] the fit found z = 4.835852 at J = 1e10 and
    # z = 0.229110 at J = 1e20, with exit 0
    out = tmp_path / "col.csv"
    assert run(tmp_path, "collapse", "--J", J, "--rmax", 2, "--points", 2, "--tmax", 1,
               "--out", out) == 0
    manifest = json.loads((tmp_path / "col.csv.manifest.json").read_text())
    assert abs(manifest["z_estimate"] - 1.0) <= 0.02


def test_collapse_fit_grid_spans_six_over_J(tmp_path, monkeypatch):
    grids = []

    def fit(psi_fn, shells, s_grid):
        grids.append(s_grid)
        return 1.0

    monkeypatch.setattr(cli, "estimate_dynamical_exponent", fit)
    for J in (1, 4):
        assert run(tmp_path, "collapse", "--J", J, "--out", tmp_path / "col.csv") == 0
    # the J = 1 grid keeps its bits
    assert grids[0].tobytes() == np.linspace(0.0, 6.0, 61)[1:].tobytes()
    assert grids[1].tobytes() == np.linspace(0.0, 1.5, 61)[1:].tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["manybody"], ["entropy", "--mode", "manybody"]])
def test_many_body_horizons_past_the_substep_cap_are_refused(tmp_path, capsys, command):
    # at L = 8, h = 40 this never ended: 327 * 1e200 / 30 predicted substeps
    assert run(tmp_path, *command, "--tmax", 1e200, "--dt", 1e199,
               "--out", tmp_path / "mb.csv") == 3
    assert not list(tmp_path.iterdir())
    assert "Lanczos substeps" in capsys.readouterr().err


@pytest.mark.parametrize("tmax", [0, -2])
def test_collapse_rejects_non_positive_tmax(tmp_path, capsys, no_compute, tmax):
    # a zero horizon made an all-zero fit grid (z = 0.100137, exit 0), and a
    # negative one a table of negative rescaled times
    out = tmp_path / "col.csv"
    assert run(tmp_path, "collapse", "--rmax", 3, "--points", 3, "--tmax", tmax,
               "--out", out) == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("input error: tmax must be positive")


def test_timeavg_every_shell_at_a_long_horizon_is_quick(tmp_path):
    # 1024 shells x 1.6e7 trapezoid steps: summed over mode pairs, not sampled
    out = tmp_path / "ta.csv"
    argv = ["-m", "hdyson.cli", "timeavg", "--rmin", "0", "--rmax", "1023",
            "--tmax", "1.6e5", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(hdyson.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    _, rows = read_csv(out)
    assert [int(row["r"]) for row in rows] == list(range(1024))
    assert all(math.isfinite(row["numerical_avg"]) and row["numerical_avg"] >= 0.0
               for row in rows)


def test_evolve_negative_rmax(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    assert run(tmp_path, "evolve", "--rmax", -1, "--tmax", 0, "--out", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("input error:")


def test_shell_cap_is_inclusive(tmp_path):
    out = tmp_path / "edge.csv"
    assert run(tmp_path, "evolve", "--rmax", 1023, "--tmax", 0, "--out", out) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1024
    assert all(math.isfinite(row["P"]) for row in rows)


def test_depth_cap_is_inclusive(tmp_path):
    out = tmp_path / "deep.csv"
    assert run(tmp_path, "spectrum", "--N", 63, "--out", out) == 0
    _, rows = read_csv(out)
    assert len(rows) == 64
    assert rows[-1]["degeneracy"] == 2.0 ** 62


def test_collapse_points_cap(tmp_path, capsys):
    out = tmp_path / "big.csv"
    assert run(tmp_path, "collapse", "--points", 10 ** 12, "--out", out) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("resource limit:")
    assert run(tmp_path, "collapse", "--points", 0, "--out", out) == 2
    assert not out.exists()


@pytest.fixture
def no_compute(monkeypatch):
    # a cap that is missing fails here, before anything of the refused size
    # is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("a capped run reached its computation")

    for name in ("psi_thermo", "wave_profile_thermo", "wave_profile_finite",
                 "dense_evolve_series", "fast_evolve_series",
                 "evolve_spin", "estimate_dynamical_exponent", "time_average"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv", [
    # 3 x 2^40 complex amplitudes, 48 TiB
    ["evolve", "--mode", "fast", "--N", 40, "--tmax", 1, "--dt", 0.5],
    # 3 x (2^30 - 1) table rows
    ["entropy", "--mode", "single", "--N", 30, "--tmax", 1, "--dt", 0.5],
    # 10^7 + 1 times x 4096 sites (and x 13 shells)
    ["evolve", "--mode", "dense", "--N", 12, "--tmax", 1e6, "--dt", 0.1],
    # 201 times x 2^20 sites: a table of 201 x 21 rows, a block of 2^27.65
    ["evolve", "--mode", "dense", "--N", 20, "--tmax", 20, "--dt", 0.1],
], ids=["evolve-fast", "entropy-single", "evolve-dense", "evolve-dense-block"])
def test_site_block_caps(tmp_path, capsys, no_compute, argv):
    out = tmp_path / "big.csv"
    assert run(tmp_path, *argv, "--out", out) == 3
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.parametrize("argv", [
    # 10^7 + 1 times x 1024 shells
    ["evolve", "--mode", "thermo", "--tmax", 1e6, "--dt", 0.1, "--rmax", 1023],
    # 2^24 points x 8 shells, refused before the exponent fit
    ["collapse", "--points", 1 << 24, "--rmin", 1, "--rmax", 8],
    # 10^7 + 1 times x 41 shells, 4.1e8 rows
    ["evolve", "--mode", "finite", "--N", 40, "--tmax", 1e6, "--dt", 0.1],
    # 10^7 + 1 times x 16 sites (x 15 cuts for the entropies)
    ["manybody", "--L", 16, "--tmax", 1e6, "--dt", 0.1],
    ["manybody", "--L", 16, "--tmax", 1e6, "--dt", 0.1, "--compare-single-particle"],
    ["entropy", "--mode", "manybody", "--L", 16, "--tmax", 1e6, "--dt", 0.1],
    # 300001 times, below the cap alone: x 16 sites, x 15 cuts
    ["manybody", "--L", 16, "--tmax", 3e4, "--dt", 0.1],
    ["entropy", "--mode", "manybody", "--L", 16, "--tmax", 3e4, "--dt", 0.1],
], ids=["evolve-thermo", "collapse", "evolve-finite", "manybody", "manybody-compare",
        "entropy-manybody", "manybody-width", "entropy-manybody-width"])
def test_table_row_caps(tmp_path, capsys, no_compute, argv):
    out = tmp_path / "big.csv"
    assert run(tmp_path, *argv, "--out", out) == 3
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("resource limit:")


def test_table_row_cap_is_inclusive():
    # times x width = 2^22 rows pass; one time or one point more is refused
    assert cli._time_grid(1.0, 1.0, 1 << 21).tolist() == [0.0, 1.0]
    assert cli._time_grid(1.0, None, 1 << 21, points=2).tolist() == [0.0, 1.0]
    with pytest.raises(hdyson.ResourceLimitError):
        cli._time_grid(2.0, 1.0, 1 << 21)
    with pytest.raises(hdyson.ResourceLimitError):
        cli._time_grid(1.0, None, 1, points=(1 << 22) + 1)


def test_site_block_cap_is_checked_before_the_grid(monkeypatch):
    # 2 x 2^26 amplitudes pass; with one time more no grid is built
    assert cli._time_grid(1.0, 1.0, 1, sites=1 << 26).tolist() == [0.0, 1.0]

    def refuse(*args, **kwargs):
        raise AssertionError("a refused grid was built")

    monkeypatch.setattr(cli.np, "linspace", refuse)
    with pytest.raises(hdyson.ResourceLimitError):
        cli._time_grid(2.0, 1.0, 1, sites=1 << 26)
    with pytest.raises(hdyson.ResourceLimitError):
        cli._time_grid(20.0, 0.1, 21, sites=1 << 20)


def test_unknown_format_is_input_error(tmp_path, capsys):
    out = tmp_path / "s.xml"
    assert run(tmp_path, "spectrum", "--N", 2, "--format", "xml", "--out", out) == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().err.startswith("input error: format must be one of")


def test_missing_config_file_is_input_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(tmp_path, "spectrum", "--config", tmp_path / "missing.cfg",
               "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("command, out", [
    ("spectrum", "nodir/s.csv"), ("manybody", "nodir/stem"),
])
def test_output_in_missing_directory_is_input_error(tmp_path, capsys, command, out):
    assert run(tmp_path, command, "--out", tmp_path / out) == 2
    assert not (tmp_path / "nodir").exists()
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("out", ["", "."])
def test_empty_or_directory_output_is_input_error(tmp_path, capsys, monkeypatch, out):
    # neither can take a table: exit 2 before any work, not a write traceback
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "spectrum", "--out", out) == 2
    assert not list(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_public_names_resolve():
    # every exported name exists, and the package re-exports exported names only
    for info in pkgutil.iter_modules(hdyson.__path__):
        module = importlib.import_module(f"hdyson.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    tree = ast.parse(Path(hdyson.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"hdyson.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, (node.module, alias.name)


def test_every_public_name_has_a_caller_outside_tests():
    # every name in a module's __all__ is read in the library, the demos or
    # the benchmark, whose tracer names what it wraps by string; definitions,
    # imports and __all__ entries are not reads
    root = Path(hdyson.__file__).parents[2]
    used = set()
    for pattern in ("src/hdyson/*.py", "demos/*.py", "perfbench/*.py"):
        for path in root.glob(pattern):
            strings = path.parent.name == "perfbench"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    for info in pkgutil.iter_modules(hdyson.__path__):
        module = importlib.import_module(f"hdyson.{info.name}")
        unused = [name for name in getattr(module, "__all__", ()) if name not in used]
        assert not unused, (info.name, unused)


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, hdyson, hdyson.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hdyson.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_manybody_leaves_scipy_sparse_unloaded(tmp_path):
    # evolution is matrix-free and its Krylov exponential uses numpy's eigh:
    # the CLI run loads no scipy module
    code = (
        "import sys; from hdyson.cli import main; "
        f"assert main(['manybody', '--L', '2', '--out', {str(tmp_path / 'mb')!r}]) == 0; "
        "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hdyson.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "False False"


FUZZ_VALUES = ["nan", "inf", "-1", "0", "2", "1e400", "abc", ""]
# small runs of every subcommand and mode; drawn flags come later and win
FUZZ_BASES = [
    ["spectrum", "--N", "2"],
    *(["evolve", "--mode", mode, "--N", "2", "--rmax", "2", "--tmax", "1", "--dt", "0.5"]
      for mode in EVOLVE_MODES),
    ["collapse", "--rmax", "2", "--points", "2", "--tmax", "1"],
    ["timeavg", "--rmax", "2", "--tmax", "1", "--dt", "0.5"],
    ["manybody", "--L", "2", "--tmax", "1", "--dt", "0.5"],
    *(["entropy", "--mode", mode, "--N", "2", "--L", "2", "--tmax", "1", "--dt", "0.5"]
      for mode in ENTROPY_MODES),
]


@st.composite
def fuzz_argv(draw):
    base = draw(st.sampled_from(FUZZ_BASES))
    keys = ["config", *SUBCOMMANDS[base[0]].settings]
    argv = list(base)
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        argv.append("--" + key.replace("_", "-"))
        if key == "format":
            argv.append(draw(st.sampled_from(FORMATS + tuple(FUZZ_VALUES))))
        elif key != "compare_single_particle":
            argv.append(draw(st.sampled_from(FUZZ_VALUES)))
    return argv


def table_values(path: Path, fmt: str) -> list[float]:
    text = path.read_text()
    if fmt == "json":
        return [value for record in json.loads(text) for value in record.values()]
    return [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]


def check_fuzz_run(argv) -> tuple[str, list]:
    """Run main(argv) in a fresh directory and check the CLI contract.

    The exit code is documented (argparse's usage exit included), stderr
    holds no traceback, and on success every table cell is finite.  Returns
    stderr and the warnings the run raised.
    """
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            assert code in (0, 2, 3, 4), (argv, code, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()
            if code == 0:
                # the manifest, not the suffix, says how a table is written
                [manifest] = Path(tmp).glob("*.manifest.json")
                fmt = json.loads(manifest.read_text())["config"]["format"]
                for path in Path(tmp).iterdir():
                    if path != manifest:
                        values = table_values(path, fmt)
                        assert values and all(math.isfinite(v) for v in values), (argv, path)
        finally:
            os.chdir(cwd)
    return stderr.getvalue(), caught


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_exit_codes(argv):
    # any argv ends in a documented exit code, with no traceback and, on
    # success, only finite numbers in the tables
    check_fuzz_run(argv)


MAGNITUDE_KEYS = ("sigma", "J", "h", "tmax", "dt")


@st.composite
def magnitude(draw):
    """A float flag: one time in five 0, +-inf or nan, else +-10^d with d
    uniform on [-310, 308], positive three times in four (most flags must
    be), so that runs whose numbers overflow are often drawn."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["0", "inf", "-inf", "nan"]))
    sign = -1.0 if draw(st.integers(0, 3)) == 0 else 1.0
    return repr(sign * 10.0 ** draw(st.floats(-310.0, 308.0)))


@st.composite
def magnitude_argv(draw):
    base = draw(st.sampled_from(FUZZ_BASES))
    keys = [key for key in MAGNITUDE_KEYS if key in SUBCOMMANDS[base[0]].settings]
    argv = list(base)
    for key in draw(st.lists(st.sampled_from(keys), unique=True)):
        argv.append(f"--{key}={draw(magnitude())}")
    return argv


@settings(max_examples=300, deadline=None)
@given(magnitude_argv())
def test_cli_magnitude_fuzz_exit_codes(argv):
    # any magnitude of the float flags keeps the contract, and no run
    # warns: an overflow is exit 3.  The table-row cap is lowered so that
    # no drawn grid runs long, as a many-body run pays one Lanczos
    # interval per output time.
    with mock.patch.object(cli, "MAX_TABLE_ROWS", 1 << 10):
        stderr, caught = check_fuzz_run(argv)
    assert "RuntimeWarning" not in stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
