"""Command-line harness: config validation, output files, determinism, and
exit codes, all run in-process through main()."""

import csv
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from crackbem import cli
from crackbem.cli import _write_csv, load_config, main

DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def write_config(tmp_path, name="cfg.json", **overrides):
    config = {
        "material": {"lambda": 1.0, "mu": 1.0},
        "geometry": {"kind": "disk", "radius": 1.0},
        "load": {"kind": "constant-stress", "sigma": [[1.0, 0.0], [0.0, 0.0]]},
        "crack": {"center": [0.3, 0.0], "angle_degrees": -45.0, "lengths": [0.2, 0.1]},
        "discretization": {"n_boundary": 64},
        "output": {"precision": 17},
    }
    for section, content in overrides.items():
        if content is None:
            config.pop(section, None)
        elif section in config:
            config[section] = {**config[section], **content}
        else:
            config[section] = content
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_solve_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "trace_u0.csv", "trace_ueps_0.2.csv", "trace_ueps_0.1.csv",
        "crack_opening_0.2.csv", "crack_opening_0.1.csv", "diagnostics.json",
    }
    rows = read_csv(out / "trace_u0.csv")
    assert rows[0] == ["node_param", "x", "y", "u1", "u2"]
    assert len(rows) == 1 + 64
    opening = read_csv(out / "crack_opening_0.1.csv")
    assert opening[0] == ["x1", "phi1", "phi2"]
    assert len(opening) == 1 + 32
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag["per_length"]) == {"0.2", "0.1"}
    assert diag["warnings"] == []
    assert diag["n_boundary"] == 64


@pytest.mark.parametrize("lengths", [[0.1, 0.1000001, 0.05], [0.1, 0.1]])
def test_solve_refuses_lengths_sharing_a_tag(tmp_path, capsys, lengths):
    cfg = write_config(tmp_path, crack={"lengths": lengths})
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "crack.lengths share the output tag '0.1'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_deterministic_across_threads(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--threads", "4"]) == 0
    for p in sorted(out1.iterdir()):
        assert filecmp.cmp(p, out2 / p.name, shallow=False), p.name


def test_convergence_outputs(tmp_path):
    cfg = write_config(tmp_path, crack={"lengths": [0.2, 0.15, 0.1]})
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "convergence.csv")
    assert rows[0] == [
        "eps", "sup_w", "sup_mismatch", "energy_diff", "energy_formula", "energy_mismatch",
    ]
    assert len(rows) == 4
    slopes = json.loads((out / "slopes.json").read_text())
    assert set(slopes) == {"sup_w", "sup_mismatch", "energy_mismatch"}
    assert slopes["sup_w"]["note"] == "ok"
    assert 1.7 < slopes["sup_w"]["slope"] < 2.3
    assert slopes["sup_mismatch"]["slope"] > 3.0


def test_convergence_needs_three_lengths(tmp_path, capsys):
    cfg = write_config(tmp_path, crack={"lengths": [0.2, 0.1]})
    assert main(["convergence", "--config", str(cfg)]) == 2
    assert "at least 3 crack lengths" in capsys.readouterr().err


def test_td_map_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, td_map={"n_grid": 3, "n_angles": 4, "margin": 0.45})
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
    assert "skipped grid point" in capsys.readouterr().err
    rows = read_csv(out / "td_map.csv")
    assert rows[0] == ["x", "y", "angle_deg", "K1", "K2", "td", "min_angle_deg"]
    assert len(rows) == 1 + 4  # only the center survives the margin
    data = np.array(rows[1:], dtype=float)
    assert np.all(data[:, 5] <= 1e-15)
    assert np.all(data[:, 6] == 90.0)



@pytest.mark.parametrize("sigma, best", [
    ([[0.0, 1.0], [1.0, 0.0]], 0.0),  # pure shear: td is the same at every angle
    ([[1.0, 0.0], [0.0, 0.0]], 90.0),  # uniaxial: the crack across the load
])
def test_td_map_best_angle_is_first_within_rounding(tmp_path, sigma, best):
    cfg = write_config(
        tmp_path,
        load={"sigma": sigma},
        discretization={"n_boundary": 128},
        td_map={"n_grid": 7, "n_angles": 12, "margin": 0.3},
    )
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
    data = np.array(read_csv(out / "td_map.csv")[1:], dtype=float)
    assert len(data) == 13 * 12
    assert np.all(data[:, 6] == best)


def test_csv_rows_match_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((200, 7)) * 10.0 ** rng.uniform(-300, 300, (200, 7))
    values[0] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308]
    values[1] = [1.0, -1.0, 0.1, 1e16, 123456789.0, 1.5e-310, 2.0 ** 60]
    header = list("abcdefg")
    for precision in (17, 6, 1):
        path = tmp_path / f"p{precision}.csv"
        _write_csv(path, header, values.tolist(), precision)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), f".{precision}g") for v in row) + "\n" for row in values
        )
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("precision", [17, 6])
def test_td_map_rows_match_per_value_format(tmp_path, precision):
    # uniaxial load: the best angle of every kept point is one of the two
    # next to 90 degrees, so the fields td-map formats once per point or once
    # per command repeat across rows, and none of the angles is an integer
    cfg = write_config(
        tmp_path,
        output={"precision": precision},
        td_map={"n_grid": 5, "n_angles": 7, "margin": 0.2},
    )
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
    written = (out / "td_map.csv").read_bytes()
    header, *lines = written.decode("utf-8").splitlines()
    assert len(lines) == 9 * 7
    assert len({line.split(",")[6] for line in lines}) < 9  # points share best angles
    rebuilt = header + "\n" + "".join(
        ",".join(format(float(v), f".{precision}g") for v in line.split(",")) + "\n"
        for line in lines
    )
    assert rebuilt.encode("utf-8") == written


def test_energy_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "en"
    assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "energy.csv")
    assert rows[0] == ["eps", "K1", "K2", "energy_diff", "energy_formula", "energy_mismatch"]
    data = np.array(rows[1:], dtype=float)
    assert data.shape == (2, 6)
    assert np.allclose(data[:, 1:3], 0.5, atol=1e-8)  # 45-degree tilt: K1 = K2
    assert np.all(data[:, 3] < 0)


def test_commands_agree_on_shared_columns(tmp_path):
    cfg = write_config(tmp_path, crack={"lengths": [0.2, 0.15, 0.1]})
    for command in ("solve", "convergence", "energy"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    conv = read_csv(tmp_path / "convergence" / "convergence.csv")
    energy = read_csv(tmp_path / "energy" / "energy.csv")

    def columns(rows, names):
        index = [rows[0].index(name) for name in names]
        return [[row[i] for i in index] for row in rows[1:]]

    shared = ["eps", "energy_diff", "energy_formula", "energy_mismatch"]
    assert columns(conv, shared) == columns(energy, shared)
    diag = json.loads((tmp_path / "solve" / "diagnostics.json").read_text())
    sup_perturbation = [
        diag["per_length"][f"{length:g}"]["sup_perturbation"] for length in (0.2, 0.15, 0.1)
    ]
    assert sup_perturbation == [float(v) for [v] in columns(conv, ["sup_w"])]


@pytest.mark.parametrize(
    "command, section, key, raw",
    [
        ("solve", "discretization", "n_boundary", "Infinity"),
        ("solve", "discretization", "tol", "NaN"),
        ("td-map", "td_map", "margin", "NaN"),
        ("solve", "crack", "center", "[NaN, 0]"),
        ("solve", "material", "mu", "1e400"),
    ],
)
def test_non_finite_config_numbers_rejected(tmp_path, capsys, command, section, key, raw):
    cfg = write_config(tmp_path, **{section: {key: "@"}})
    cfg.write_text(cfg.read_text(encoding="utf-8").replace('"@"', raw), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"key '{key}' in section '{section}' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("solve", "discretization", "tol", "nan"),
        ("solve", "material", "lambda", "1.0"),
        ("solve", "discretization", "n_boundary", True),
        ("td-map", "td_map", "n_angles", 0),
        ("solve", "discretization", "max_iterations", 0),
        ("solve", "discretization", "tol", -1),
    ],
)
def test_config_values_checked_against_schema(tmp_path, capsys, command, section, key, value):
    cfg = write_config(tmp_path, **{section: {key: value}})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"key '{key}' in section '{section}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, limit",
    [
        ("discretization", "n_boundary", 8192),
        ("discretization", "n_cheb_modes", 1024),
        ("td_map", "n_grid", 4096),
        ("td_map", "n_angles", 4096),
    ],
)
def test_counts_bounded_above(tmp_path, capsys, monkeypatch, section, key, limit):
    # the limit itself passes the schema (load_config only); one more is
    # refused before any solver is built, and the test never builds one
    at_limit = write_config(tmp_path, **{section: {key: limit}})
    assert load_config(str(at_limit))[section][key] == limit
    monkeypatch.setattr(cli, "_Workspace", lambda config: pytest.fail("a solver was built"))
    over = write_config(tmp_path, name="over.json", **{section: {key: limit + 1}})
    command = "td-map" if section == "td_map" else "solve"
    assert main([command, "--config", str(over), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}' in section '{section}' must be at most {limit}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "td_map", [{"n_grid": 1}, {"margin": 5.0}], ids=["one-point", "wide-margin"]
)
def test_td_map_keeping_no_point_refused(tmp_path, capsys, td_map):
    # one grid point sits at the corner, outside the disk; a margin of 5 keeps none
    demo = DEMO_CONFIGS[0].parent / "disk_uniaxial.json"
    config = json.loads(demo.read_text(encoding="utf-8"))
    config["td_map"].update(td_map)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: td_map keeps no grid point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda path: path.stem)
def test_demo_configs_load(path):
    config = load_config(str(path))
    assert config["discretization"]["n_cheb_modes"] == 32
    assert config["output"]["directory"] == "out"
    assert config["td_map"]["n_grid"] in (8, 15)


def test_exterior_crack_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, crack={"center": [2.0, 0.0], "lengths": [0.2, 0.15, 0.1]})
    assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "point (2, 0) is outside the boundary" in capsys.readouterr().err


def test_td_map_margin_floored(tmp_path):
    # a zero margin would keep the grid points that sit on boundary nodes
    cfg = write_config(tmp_path, td_map={"n_grid": 3, "n_angles": 4, "margin": 0.0})
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_csv(out / "td_map.csv")) == 1 + 4  # only the center is kept


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, material={"zeta": 3.0})
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown key 'zeta'" in capsys.readouterr().err
    cfg = write_config(tmp_path, name="cfg2.json", typo_section={"a": 1})
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown config section" in capsys.readouterr().err
    # the crack transfer quadrature uses the n_cheb_modes nodes: no key of its own
    cfg = write_config(tmp_path, name="cfg3.json", discretization={"quad_points": 32})
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown key 'quad_points' in section 'discretization'" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_loads_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, load={"sigma": [[1.0, 0.5], [0.0, 0.0]]})
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "symmetric" in capsys.readouterr().err
    cfg = write_config(tmp_path, name="cfg2.json", geometry={"kind": "torus"})
    assert main(["solve", "--config", str(cfg)]) == 2


def test_non_contracting_solve_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, discretization={"max_iterations": 1})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert "did not contract" in capsys.readouterr().err


def test_oversized_crack_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, crack={"lengths": [0.9]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not smaller than the distance" in capsys.readouterr().err


def test_fourier_traction_projection_warning(tmp_path, capsys):
    # constant traction is not equilibrated; the loader removes the rigid
    # part, warns, and carries on
    cfg = write_config(
        tmp_path,
        load={"kind": "fourier-traction", "cos": [[1.0, 0.0]], "sigma": None},
        crack={"lengths": [0.2]},
    )
    out = tmp_path / "warned"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert "rigid components removed" in capsys.readouterr().err
    diag = json.loads((out / "diagnostics.json").read_text())
    assert len(diag["warnings"]) == 1


def test_output_directory_from_config(tmp_path):
    target = tmp_path / "from_config"
    cfg = write_config(
        tmp_path,
        output={"directory": str(target), "precision": 8},
        crack={"lengths": [0.2]},
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (target / "trace_u0.csv").exists()
    value = read_csv(target / "trace_u0.csv")[2][3]
    assert len(value.replace("-", "").replace(".", "").replace("e", "")) <= 10


def test_ellipse_geometry_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        geometry={"kind": "ellipse", "a": 1.2, "b": 0.9},
        crack={"center": [0.0, 0.0], "lengths": [0.15]},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "ell")]) == 0
