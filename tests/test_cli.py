"""Command-line harness: config validation, output files, determinism, and
exit codes, all run in-process through main()."""

import csv
import filecmp
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crackbem import cli
from crackbem.cli import _csv, load_config, main
from crackbem.errors import SolveFailed
from crackbem.mesh import BoundaryMesh

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
        expected = ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), f".{precision}g") for v in row) + "\n" for row in values
        )
        assert _csv(header, values.tolist(), precision) == expected


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
        ("output", "precision", 17),
        ("discretization", "max_iterations", 1000),
    ],
)
def test_counts_bounded_above(tmp_path, capsys, monkeypatch, section, key, limit):
    # the limit itself passes the schema (load_config only); one more is
    # refused before any solver is built, and the test never builds one
    command = "td-map" if section == "td_map" else "solve"
    at_limit = write_config(tmp_path, **{section: {key: limit}})
    assert load_config(str(at_limit), command)[section][key] == limit
    monkeypatch.setattr(cli, "BoundarySolver", lambda *args: pytest.fail("a solver was built"))
    over = write_config(tmp_path, name="over.json", **{section: {key: limit + 1}})
    assert main([command, "--config", str(over), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}' in section '{section}' must be at most {limit}" in err
    assert not (tmp_path / "x").exists()


def test_out_of_memory_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # input the schema accepts but the machine cannot hold exits 3 with a
    # message, not a traceback; no memory is allocated to show it
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "BoundarySolver", out_of_memory)
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory with n_boundary 64; lower n_boundary\n"
    assert not (tmp_path / "x").exists()


def test_out_of_memory_while_writing_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # a file's text is made as it is written, so running out of memory there
    # exits 3 with the same message, not a traceback
    def chunks():
        yield "eps\n"
        raise MemoryError

    def streaming(*args):
        return {"energy.csv": chunks()}

    monkeypatch.setitem(cli._COMMANDS, "energy", (cli._crack_sweep, streaming))
    cfg = write_config(tmp_path)
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory with n_boundary 64; lower n_boundary\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("failure", [MemoryError, OSError("disk full")], ids=["memory", "os"])
def test_failed_write_leaves_an_existing_output_unchanged(tmp_path, capsys, monkeypatch, failure):
    # every file is written under a temporary name and renamed only once all
    # are written, so a failure in the second file keeps the old first one and
    # leaves no temporary behind
    def chunks():
        yield "eps\n"
        raise failure

    def streaming(*args):
        return {"energy.csv": ["new\n"], "slopes.json": chunks()}

    monkeypatch.setitem(cli._COMMANDS, "energy", (cli._crack_sweep, streaming))
    cfg = write_config(tmp_path)
    out = tmp_path / "x"
    out.mkdir()
    (out / "energy.csv").write_text("old\n", encoding="utf-8")
    code = 3 if failure is MemoryError else 2
    assert main(["energy", "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == ["energy.csv"]
    assert (out / "energy.csv").read_text(encoding="utf-8") == "old\n"


def test_td_map_scan_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    # every number of the map is computed before the output directory is
    # made; only the text is made as the file is written
    def failing(*args):
        raise SolveFailed("scan failed")

    monkeypatch.setattr(cli, "orientation_scan", failing)
    cfg = write_config(tmp_path, td_map={"n_grid": 3, "n_angles": 4, "margin": 0.45})
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith("error: scan failed\n")
    assert not out.exists()


def test_td_map_holds_less_than_its_csv(tmp_path):
    # the map's text is written one grid point's block at a time, so the
    # command's traced peak (solver, scan and all) stays below the file's size
    cfg = write_config(
        tmp_path,
        discretization={"n_boundary": 128},
        td_map={"n_grid": 40, "n_angles": 36, "margin": 0.3},
    )
    out = tmp_path / "td"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = (out / "td_map.csv").stat().st_size
    assert size > 2_000_000
    assert peak < size


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
    config = load_config(str(path), "solve")
    assert config["discretization"]["n_cheb_modes"] == 32
    assert config["output"]["directory"] == "out"
    assert config["td_map"]["n_grid"] in (8, 15)


@pytest.mark.parametrize("command", ["solve", "convergence", "energy"])
@pytest.mark.parametrize(
    "name, calls", [("disk_uniaxial.json", 5), ("star_fourier_load.json", 4)]
)
def test_one_clearance_test_per_crack(tmp_path, monkeypatch, command, name, calls):
    # the CLI tests each crack once, before the solver exists, and the sweep
    # admits them as tested; only the Neumann row tests the center again
    tests = []
    require = BoundaryMesh.require_clearance

    def counting(mesh, points, length=0.0):
        tests.append(length)
        return require(mesh, points, length)

    monkeypatch.setattr(BoundaryMesh, "require_clearance", counting)
    path = DEMO_CONFIGS[0].parent / name
    lengths = json.loads(path.read_text(encoding="utf-8"))["crack"]["lengths"]
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(tests) == calls == len(lengths) + 1
    assert tests == [*lengths, 0.0]


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('"material": {"lambda": 1.0, "mu": 1.0, "mu": -5.0}',
         "duplicate key 'mu' in section 'material'"),
        ('"material": {"lambda": 1.0, "mu": 1.0}, "geometry": {"kind": "disk"}',
         "duplicate section 'geometry'"),
        ('"material": {"lambda": 1.0, "mu": {"a": 1, "a": 2}}',
         "duplicate key 'a' in section 'material.mu'"),
        ('"material": {"lambda": 1.0, "mu": [{"a": 1, "a": 2}]}',
         "duplicate key 'a' in section 'material.mu'"),
    ],
    ids=["key", "section", "nested-object", "object-in-list"],
)
def test_duplicate_keys_refused(tmp_path, capsys, text, message):
    # json.loads keeps the last of two equal keys; the config refuses them
    cfg = write_config(tmp_path, material=None)
    given = cfg.read_text(encoding="utf-8").replace("{", "{" + text + ", ", 1)
    cfg.write_text(given, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depth", [900, 5000])
def test_deeply_nested_config_refused(tmp_path, capsys, depth):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"material": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "error: " in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "overrides, section, key",
    [
        ({"geometry": {"kind": "ellipse", "a": 1.2, "radius": None}}, "geometry", "b"),
        ({"geometry": {"kind": "fourier", "radius": None}}, "geometry", "r0"),
        ({"load": {"sigma": None}}, "load", "sigma"),
        ({"load": {"sigma": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}, "load", "sigma"),
        ({"crack": {"center": [0.3, 0.0, 0.0]}}, "crack", "center"),
        ({"geometry": {"kind": "torus"}}, "geometry", "kind"),
        ({"load": {"kind": None}}, "load", "kind"),
        ({"crack": {"angle_degrees": None}}, "crack", "angle_degrees"),
        ({"crack": {"lengths": []}}, "crack", "lengths"),
        ({"crack": None}, "crack", None),
    ],
    ids=[
        "ellipse-without-b", "fourier-without-r0", "no-sigma", "sigma-3x2", "center-3",
        "kind-torus", "load-without-kind", "no-angle", "no-lengths", "no-crack-section",
    ],
)
def test_incomplete_sections_refused(tmp_path, capsys, overrides, section, key):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if key is None:
        assert f"missing config section '{section}'" in err
    else:  # the key named in either of the two message forms
        assert f"key '{key}' in section '{section}'" in err or f"{section}.{key} " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        (
            "solve", {"geometry": {"kind": "disk", "a": 1.2, "b": 0.9}},
            "key 'a' in section 'geometry' does not apply to kind 'disk'",
        ),
        (
            "solve", {"load": {"cos": [[5.0, 0.0]]}},
            "key 'cos' in section 'load' does not apply to kind 'constant-stress'",
        ),
        # td-map reads no crack, but a crack section that is given is checked whole
        (
            "td-map", {"crack": {"center": None}, "td_map": {"n_grid": 3, "n_angles": 4}},
            "missing key 'center' in section 'crack'",
        ),
    ],
    ids=["disk-with-a", "stress-with-cos", "td-map-partial-crack"],
)
def test_foreign_keys_and_partial_sections_refused(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("solve", {"crack": None}, "missing config section 'crack'"),
        ("energy", {"crack": {"lengths": []}}, "crack.lengths must be a nonempty list"),
        ("convergence", {}, "convergence requires at least 3 crack lengths"),
        ("solve", {"crack": {"lengths": [0.1, 0.1]}}, "share the output tag '0.1'"),
        ("td-map", {"load": {"sigma": [[1.0, 0.5], [0.0, 0.0]]}}, "load.sigma must be symmetric"),
        ("energy", {"crack": {"center": [5.0, 0.0]}}, "point (5, 0) is outside the boundary"),
        ("solve", {"crack": {"lengths": [0.2, 0.9]}}, "not smaller than the distance"),
        ("td-map", {"td_map": {"margin": 5.0}}, "td_map keeps no grid point"),
    ],
    ids=[
        "no-crack", "no-lengths", "two-lengths", "shared-tag", "non-symmetric-sigma",
        "exterior-crack", "oversized-crack", "empty-td-map",
    ],
)
def test_refusals_come_before_the_solver(
    tmp_path, capsys, monkeypatch, command, overrides, message
):
    # every exit-2 refusal is made on the config or the mesh: no boundary
    # solver, the one n^2 build, is ever constructed for it
    monkeypatch.setattr(cli, "BoundarySolver", lambda *args: pytest.fail("a solver was built"))
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_refused(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr(cli, "BoundarySolver", lambda *args: pytest.fail("a solver was built"))
    cfg = write_config(tmp_path)
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exit_:
        main(["solve", "--config", str(cfg), "--out", str(out), "--threads", threads])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "crackbem solve: error: argument --threads: must be at least 1" in err
    assert not out.exists()


def test_invalid_loads_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, load={"sigma": [[1.0, 0.5], [0.0, 0.0]]})
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "symmetric" in capsys.readouterr().err


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
        geometry={"kind": "ellipse", "a": 1.2, "b": 0.9, "radius": None},
        crack={"center": [0.0, 0.0], "lengths": [0.15]},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "ell")]) == 0
