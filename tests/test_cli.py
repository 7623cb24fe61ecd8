"""Command-line harness: config validation, output files, determinism, and
exit codes, all run in-process through main()."""

import csv
import filecmp
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackbem import BoundarySolver, LameParams, build_mesh, cli, neumann_perturbation
from crackbem.asymptotics import orientation_scan
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


def test_si_scaled_disk_converges_as_the_unit_disk(tmp_path):
    # lambda = mu = 8e10 divides every displacement by 8e10; the Picard stop
    # and the noise floors are relative, so the sweeps, the slopes and the
    # points they use stay those of the shipped unit-scale disk
    demo = DEMO_CONFIGS[0].parent / "disk_uniaxial.json"
    config = json.loads(demo.read_text(encoding="utf-8"))
    config["material"] = {"lambda": 8e10, "mu": 8e10}
    scaled = tmp_path / "si.json"
    scaled.write_text(json.dumps(config), encoding="utf-8")
    runs = {}
    for name, path in (("unit", demo), ("si", scaled)):
        for command in ("convergence", "solve"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
        diagnostics = json.loads((tmp_path / name / "diagnostics.json").read_text())
        slopes = json.loads((tmp_path / name / "slopes.json").read_text())
        iterations = [d["iterations"] for d in diagnostics["per_length"].values()]
        runs[name] = slopes, iterations
    (unit, unit_iterations), (si, si_iterations) = runs["unit"], runs["si"]
    assert si_iterations == unit_iterations
    assert min(unit_iterations) > 1
    for key, fit in unit.items():
        assert si[key]["n_points_used"] == fit["n_points_used"] == 4
        assert si[key]["note"] == fit["note"] == "ok"
        assert abs(si[key]["slope"] - fit["slope"]) <= 1e-6


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


def slot_text(slots) -> list:
    """The texts of cli._format_g's slots: each row without its zero bytes."""
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in slots]


# every binary64 value: subnormals, +-0, +-inf and nan included
float64s = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)


@settings(max_examples=300, deadline=None, database=None)
@given(values=st.lists(float64s, min_size=1, max_size=40), precision=st.integers(1, 17))
def test_format_g_matches_percent_format(values, precision):
    # one call formats values of many exponents at once, as td-map's chunks do
    expected = ["%.*g" % (precision, v) for v in values]
    assert slot_text(cli._format_g(np.array(values), precision)) == expected


def test_format_g_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-30, 26)])  # around 10^(p-22) and 10^p
    ties = np.array([0.5, 1.5, 2.5, 9.5, 0.125, 0.375, 1e15 + 0.5, 2.0**52 + 0.5, 2.0**53 - 0.5])
    ties = np.r_[ties, np.arange(1, 200) * 0.5, (np.arange(1, 200) + 0.5) * 2.0**-10]
    values = np.r_[
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 + 1,  # 2^53 + 1 rounds to 2^53
        # above 10^p the digits come from integer division: ties, fractions
        # and both sides of 2^63, where the exact range ends
        (np.arange(1, 200) + 0.5) * 1e6, np.arange(1, 200) * 2.5e15 + 0.5,
        2.0**63, np.nextafter(2.0**63, 0.0), np.nextafter(2.0**63, np.inf),
        5e-324, np.finfo(float).max, np.finfo(float).tiny, 0.0, np.inf, np.nan,
    ]
    values = np.r_[values, -values]
    for precision in range(1, 18):
        expected = ["%.*g" % (precision, v) for v in values.tolist()]
        assert slot_text(cli._format_g(values, precision)) == expected


TD_MAP_CASES = [
    pytest.param(None, 17, 1.0, id="17"),
    pytest.param(None, 6, 1.0, id="6"),
    # |K| and |td| of 1e6 to 1e14: digits by integer division
    pytest.param(None, 6, 1e8, id="6-sigma1e8"),
    # every value below 1e-5, formatted by Python's '%' one point at a time
    pytest.param(None, 17, 1e-30, id="17-sigma1e-30"),
    *(
        pytest.param(path, precision, None, id=f"{path.stem}-{precision}")
        for path in DEMO_CONFIGS for precision in (1, 6, 17)
    ),
]


@pytest.mark.parametrize("demo, precision, scale", TD_MAP_CASES)
def test_td_map_rows_match_per_value_format(tmp_path, monkeypatch, demo, precision, scale):
    # every row is x, y, angle, K1, K2, td and best angle, each the
    # '%.{precision}g' of the value the scan gave: the map's text is made in
    # byte slots, so the file is rebuilt here one Python conversion a value
    if demo is None:
        # uniaxial load on a small grid whose angles are not integers
        cfg = write_config(
            tmp_path,
            output={"precision": precision},
            td_map={"n_grid": 5, "n_angles": 7, "margin": 0.2},
            load={"sigma": [[scale, 0.0], [0.0, 0.0]]},
        )
    else:
        config = json.loads(demo.read_text(encoding="utf-8"))
        config.setdefault("td_map", {}).update(n_grid=40, n_angles=36)
        config.setdefault("output", {})["precision"] = precision
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
    scans = []

    def scan(background, points, thetas):
        scans.append((points, thetas.size, orientation_scan(background, points, thetas)))
        return scans[-1][2]

    monkeypatch.setattr(cli, "orientation_scan", scan)
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
    [(points, n_angles, (sif, td, best))] = scans
    angles = np.arange(n_angles) * (180.0 / n_angles)
    fmt = ",".join([f"%.{precision}g"] * 7) + "\n"
    expected = "x,y,angle_deg,K1,K2,td,min_angle_deg\n" + "".join(
        fmt % (x, y, angles[j], sif.k1[i, j], sif.k2[i, j], td[i, j], angles[best[i]])
        for i, (x, y) in enumerate(points.tolist()) for j in range(n_angles)
    )
    written = (out / "td_map.csv").read_bytes()
    assert written == expected.encode("ascii")
    if demo is None:
        # 9 kept points at 7 angles, and the best angle of each is one of the
        # two next to 90 degrees, so the fields td-map formats once per point
        # or once per command repeat across rows
        assert written.count(b"\n") == 1 + 9 * 7
        assert len(set(best.tolist())) < 9


@pytest.mark.parametrize("margin", [0.0, 0.2], ids=["floor", "margin"])
@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_td_map_grid_points_are_kept_or_logged_once(tmp_path, capsys, path, margin):
    # walking the grid row by row (y, then x), every point is the next
    # block of td_map.csv or the next "skipped grid point" line, never both
    config = json.loads(path.read_text(encoding="utf-8"))
    config["td_map"] = {"n_grid": 11, "n_angles": 3, "margin": margin}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "td"
    assert main(["td-map", "--config", str(cfg), "--out", str(out)]) == 0
    skipped = [
        line.removeprefix("log: skipped grid point (").split("): ")[0]
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("log: ")  # not the star load's projection warning
    ]
    rows = np.array(read_csv(out / "td_map.csv")[1:], dtype=float)
    blocks = rows.reshape(-1, 3, 7)
    assert np.all(blocks[:, :, :2] == blocks[:, :1, :2])
    checked = load_config(str(cfg), "td-map")
    mesh = cli.build_mesh(cli._shape(checked), checked["discretization"]["n_boundary"])
    extent = float(np.max(np.abs(mesh.points)))
    coords = np.linspace(-extent, extent, 11).tolist()
    kept, logged = iter(blocks[:, 0, :2].tolist()), iter(skipped)
    next_kept, next_logged = next(kept, None), next(logged, None)
    for y in coords:
        for x in coords:
            if next_kept == [x, y]:
                next_kept = next(kept, None)
            else:
                assert next_logged == f"{x:g}, {y:g}"
                next_logged = next(logged, None)
    assert next_kept is None and next_logged is None
    assert 0 < len(blocks) < len(coords) ** 2


def test_solve_files_match_per_value_format(tmp_path):
    # the trace writer formats its node columns once per mesh and the
    # opening through _csv; every value must read as its own format call
    for precision in (17, 6, 1):
        cfg = write_config(tmp_path, output={"precision": precision})
        out = tmp_path / f"p{precision}"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert len(names) == 5
        for name in names:
            written = (out / name).read_bytes()
            header, *lines = written.decode("utf-8").splitlines()
            assert len(header.split(",")) == len(lines[0].split(",")) in (3, 5)
            rebuilt = header + "\n" + "".join(
                ",".join(format(float(v), f".{precision}g") for v in line.split(",")) + "\n"
                for line in lines
            )
            assert rebuilt.encode("utf-8") == written, name


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


@pytest.mark.parametrize(
    "section, kind, key, first, mode",
    [
        # a mode-62 load at 64 nodes would solve as mode -2 with exit 0
        ("load", {"kind": "fourier-traction", "sigma": None}, "cos", 0, 62),
        ("load", {"kind": "fourier-traction", "sigma": None}, "sin", 1, 32),
        # a star whose only mode is 33 would be refused as not equilibrated
        ("geometry", {"kind": "fourier", "radius": None, "r0": 1.0}, "cos", 1, 33),
        ("geometry", {"kind": "fourier", "radius": None, "r0": 1.0}, "sin", 1, 32),
    ],
    ids=["load-cos", "load-sin", "geometry-cos", "geometry-sin"],
)
def test_fourier_modes_the_mesh_cannot_represent_refused(
    tmp_path, capsys, monkeypatch, section, kind, key, first, mode
):
    # mode n_boundary/2 and above alias to lower modes on the nodes, so they
    # are refused with the key, before any solver is built
    def only(m):  # the coefficient list whose one nonzero entry is mode m
        zero, one = ([0.0, 0.0], [1.0, 0.0]) if section == "load" else (0.0, 0.01)
        return [zero] * (m - first) + [one]

    monkeypatch.setattr(cli, "BoundarySolver", lambda *args: pytest.fail("a solver was built"))
    cfg = write_config(tmp_path, **{section: {**kind, key: only(mode)}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        f"error: key '{key}' in section '{section}' gives mode {mode}, which n_boundary 64 "
        f"cannot represent: modes must be below n_boundary/2\n"
    )
    # mode 31 is the highest that 64 nodes represent
    cfg = write_config(tmp_path, **{section: {**kind, key: only(31)}})
    assert load_config(str(cfg), "solve")[section][key] == only(31)


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


def test_td_map_out_of_memory_names_its_size_keys(tmp_path, capsys, monkeypatch):
    # td-map's values grow with the kept points times n_angles, so its
    # message also names n_grid and n_angles
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "orientation_scan", out_of_memory)
    cfg = write_config(tmp_path, td_map={"n_grid": 3, "n_angles": 4, "margin": 0.45})
    assert main(["td-map", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == (
        "error: out of memory with n_boundary 64, n_grid 3, n_angles 4; "
        "lower n_boundary or n_grid or n_angles"
    )
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
    # the map's text is written a chunk of grid points at a time, so the
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
    "name, calls", [("disk_uniaxial.json", 4), ("star_fourier_load.json", 3)]
)
def test_one_clearance_test_per_crack(tmp_path, monkeypatch, command, name, calls):
    # the CLI tests each crack once, before the solver exists, and the sweep
    # admits them as tested, so nothing tests one again
    tests = []
    require = BoundaryMesh.require_clearance

    def counting(mesh, points, length=0.0):
        tests.append(length)
        return require(mesh, points, length)

    monkeypatch.setattr(BoundaryMesh, "require_clearance", counting)
    path = DEMO_CONFIGS[0].parent / name
    lengths = json.loads(path.read_text(encoding="utf-8"))["crack"]["lengths"]
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(tests) == calls == len(lengths)
    assert tests == lengths


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
        ("convergence", {"crack": {"lengths": [0.1, 0.05, 0.1]}}, "repeat the length 0.1"),
        (
            "convergence", {"crack": {"lengths": [0.1, 0.05, 0.1000001]}},
            "repeat the length 0.1: convergence needs them distinct",
        ),
        ("td-map", {"load": {"sigma": [[1.0, 0.5], [0.0, 0.0]]}}, "load.sigma must be symmetric"),
        ("energy", {"crack": {"center": [5.0, 0.0]}}, "point (5, 0) is outside the boundary"),
        ("solve", {"crack": {"lengths": [0.2, 0.9]}}, "not smaller than the distance"),
        ("td-map", {"td_map": {"margin": 5.0}}, "td_map keeps no grid point"),
    ],
    ids=[
        "no-crack", "no-lengths", "two-lengths", "shared-tag", "repeated-length",
        "repeated-tag", "non-symmetric-sigma",
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


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_sigma_symmetry_is_relative(tmp_path, capsys, scale):
    # sigma's asymmetry is judged against its own size, in any units
    skew = write_config(tmp_path, "skew.json", load={"sigma": [[scale, scale], [0.0, 0.0]]})
    assert main(["energy", "--config", str(skew), "--out", str(tmp_path / "skew")]) == 2
    assert "symmetric" in capsys.readouterr().err
    sigma = [[scale, scale], [scale * (1.0 + 1e-13), 0.0]]
    near = write_config(tmp_path, "near.json", load={"sigma": sigma})
    assert main(["energy", "--config", str(near), "--out", str(tmp_path / "near")]) == 0


@pytest.mark.parametrize(
    "cos, warned",
    [([[s, 0.0], [0.0, 0.0], [s, 0.0]], True) for s in (1e-20, 1.0, 1e20)]
    + [([[0.0, 0.0]], False)],
    ids=["1e-20", "1", "1e20", "zero"],
)
def test_projection_warning_is_relative(tmp_path, capsys, cos, warned):
    # a rigid mode-0 term beside a mode-2 load is removed with a warning in
    # any units; a zero load has nothing to remove
    cfg = write_config(
        tmp_path,
        load={"kind": "fourier-traction", "cos": cos, "sigma": None},
        crack={"lengths": [0.2]},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert ("rigid components removed" in capsys.readouterr().err) == warned


def test_non_contracting_solve_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, discretization={"max_iterations": 1})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert "did not contract" in capsys.readouterr().err


def test_oversized_crack_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, crack={"lengths": [0.9]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not smaller than the distance" in capsys.readouterr().err


def test_fourier_traction_projection_warning(tmp_path, capsys):
    # a constant traction is all rigid motion: removing its rigid part
    # leaves only rounding, so it is refused, not solved with a warning
    cfg = write_config(
        tmp_path,
        load={"kind": "fourier-traction", "cos": [[1.0, 0.0]], "sigma": None},
        crack={"lengths": [0.2]},
    )
    out = tmp_path / "warned"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fourier traction load is a rigid motion" in err
    assert "rigid components removed" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cos, sin",
    [([[s, 0.0]], []) for s in (1e-20, 1.0, 1e20)]
    + [([[0.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0]]), ([[1.0, 0.0], [0.0, 0.0], [1e-10, 0.0]], [])],
    ids=["1e-20", "1", "1e20", "rotation", "nearly-rigid"],
)
def test_rigid_only_fourier_load_refused_before_the_solver(tmp_path, capsys, monkeypatch, cos, sin):
    # a constant traction, or the unit disk's rotation (-sin t, cos t), in
    # any units: its projected remainder is rounding whose moments are of
    # its own size, so solve_background's equilibrium rule refuses it with
    # exit 2 before any solver; so it does a mode-2 load 1e-10 of a rigid
    # one, whose rest keeps the projection's rounding, moments 1e-6 of it
    monkeypatch.setattr(cli, "BoundarySolver", lambda *args: pytest.fail("a solver was built"))
    cfg = write_config(
        tmp_path, load={"kind": "fourier-traction", "cos": cos, "sin": sin, "sigma": None}
    )
    out = tmp_path / "x"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "fourier traction load is a rigid motion" in capsys.readouterr().err
    assert not out.exists()


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


def _numbers_finite(value) -> bool:
    """Whether every number in parsed JSON is finite; null and text pass."""
    if isinstance(value, dict):
        return all(_numbers_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_numbers_finite(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


def _measurable_lengths(path) -> int:
    """How many cracks of a convergence config have a leading term
    (neumann_perturbation) above ten times the sup_w noise floor
    10 tol sup|u0| of cmd_convergence: zero when the crack-line traction
    vanishes, as it does for a zero load."""
    config = load_config(path, "convergence")
    mesh = build_mesh(cli._shape(config), config["discretization"]["n_boundary"])
    g, _ = cli._load_field(config, mesh)
    mat = LameParams(config["material"]["lambda"], config["material"]["mu"])
    background = BoundarySolver(mesh, mat).solve_background(g)
    floor = 10.0 * config["discretization"]["tol"] * background.trace.sup_norm()
    cracks = cli._crack_sweep(config, mesh)["cracks"]
    return sum(np.max(np.abs(neumann_perturbation(background, c))) > 10.0 * floor for c in cracks)


@st.composite
def whole_configs(draw):
    """A config over _SCHEMA's sections, kinds and bounds, drawn so that
    many configs solve.  Lengths, the crack center and the td-map margin
    are in units of the curve's size (10^-3 to 10^3), the moduli in units
    of 10^k (|k| <= 12) and the load in units of 10^k (|k| <= 20).
    Hypothesis also draws the ends of each range, so mu reaches 0 and
    subnormal values.  One draw in ten of each of these makes a refusal: a
    negative curve size, a crack center up to 1.5 sizes out, one or two
    lengths, a repeated length, a non-symmetric sigma and an odd
    n_boundary; lam + mu <= 0 and cracks too near the wall come unbidden.
    Counts are capped at what runs in milliseconds: n_boundary 16-64, at
    most 64 Chebyshev modes and a 10 x 10 x 12 td-map."""
    def number(low, high):
        return draw(st.floats(low, high))

    def rarely() -> bool:
        return draw(st.integers(0, 9)) == 0

    def vectors(scale):
        count = draw(st.integers(0, 3))
        return [[number(-2.0, 2.0) * scale, number(-2.0, 2.0) * scale] for _ in range(count)]

    size = 10.0 ** number(-3.0, 3.0)
    sign = -1.0 if rarely() else 1.0
    kind = draw(st.sampled_from(["disk", "ellipse", "fourier"]))
    if kind == "disk":
        geometry = {"kind": kind, "radius": sign * number(0.5, 1.0) * size}
    elif kind == "ellipse":
        a, b = sign * number(0.5, 1.0) * size, number(0.5, 1.0) * size
        geometry = {"kind": kind, "a": a, "b": b}
    else:
        coefficients = st.lists(st.floats(-0.15, 0.15), max_size=2)
        geometry = {
            "kind": kind, "r0": sign * number(0.5, 1.0) * size,
            "cos": [c * size for c in draw(coefficients)],
            "sin": [c * size for c in draw(coefficients)],
        }
    scale = 10.0 ** draw(st.integers(-20, 20))
    if draw(st.booleans()):
        s11, s12, s22 = (number(-2.0, 2.0) * scale for _ in range(3))
        s21 = number(-2.0, 2.0) * scale if rarely() else s12
        load = {"kind": "constant-stress", "sigma": [[s11, s12], [s21, s22]]}
    else:
        load = {"kind": "fourier-traction", "cos": vectors(scale), "sin": vectors(scale)}
    mu = number(0.0, 5.0) * 10.0 ** draw(st.integers(-12, 12))
    reach = 1.5 if rarely() else 0.2
    # distinct powers of two apart, so that no two share an output tag
    count = 1 if rarely() else 3
    powers = draw(st.lists(st.integers(1, 10), min_size=count, max_size=5, unique=True))
    longest = number(0.005, 0.2) * size
    lengths = [longest * 0.5 ** k for k in powers]
    if rarely():
        lengths.append(lengths[0])
    n_boundary = draw(st.integers(16, 64))
    n_boundary += 0 if rarely() else n_boundary % 2
    return {
        "material": {"lambda": number(-1.2, 4.0) * mu, "mu": mu},
        "geometry": geometry,
        "load": load,
        "crack": {
            "center": [number(-reach, reach) * size, number(-reach, reach) * size],
            "angle_degrees": number(-360.0, 360.0),
            "lengths": lengths,
        },
        "discretization": {
            "n_boundary": n_boundary, "n_cheb_modes": draw(st.integers(1, 64)),
            "tol": 10.0 ** number(-15.0, 1.0), "max_iterations": draw(st.integers(1, 1000)),
        },
        "output": {"precision": draw(st.integers(1, 17))},
        "td_map": {
            "n_grid": draw(st.integers(1, 10)), "n_angles": draw(st.integers(1, 12)),
            "margin": number(0.0, 0.3) * size,
        },
    }


@settings(max_examples=40, deadline=None, database=None)
@given(config=whole_configs())
def test_whole_configs_exit_cleanly(config):
    # every command exits 0, 2 or 3 with no exception, writes only finite
    # numbers, and writes nothing unless it exits 0; a convergence run to a
    # tight tol measures a sup_w slope unless the crack-line traction
    # vanishes below its noise floor
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("solve", "convergence", "td-map", "energy"):
            out = Path(tmp) / command
            code = main([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3)
            if code != 0:
                assert not out.exists()
                continue
            for file in out.iterdir():
                if file.suffix == ".csv":
                    values = [float(v) for row in read_csv(file)[1:] for v in row]
                    assert np.all(np.isfinite(values)), file.name
                else:
                    assert _numbers_finite(json.loads(file.read_text())), file.name
            if command == "convergence" and config["discretization"]["tol"] <= 1e-9:
                slopes = json.loads((out / "slopes.json").read_text())
                if slopes["sup_w"]["slope"] is None:
                    assert _measurable_lengths(path) < 2
