"""Configuration-driven command line for batch crack studies.

Four subcommands share one JSON config format:

  solve        forward solves: background trace, cracked traces, openings
  convergence  sweep over crack lengths, compare against the leading-order
               formula, fit log-log decay rates
  td-map       topological-derivative field map over a grid of centers and
               crack angles
  energy       energy differences against the closed-form asymptotic

Config sections: material {lambda, mu}; geometry {kind: disk|ellipse|fourier,
...}; load {kind: constant-stress|fourier-traction, ...}; crack {center,
angle_degrees, lengths}; discretization {n_boundary, n_cheb_modes, tol,
quad_points, max_iterations}; output {directory, precision}; td_map {n_grid,
n_angles, margin}.  Unknown keys anywhere are rejected: a typo in a sweep
config should fail loudly, not run the wrong experiment.  Angles enter in
degrees and are converted at this boundary.

All CSV output uses '.' decimals and a fixed column order, floats printed
with %.17g so reruns are byte-identical.  Exit codes: 0 success, 2 config or
geometry violations, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    energy_asymptotic,
    fit_log_slope,
    neumann_perturbation,
    potential_energy_difference,
    stress_intensity,
    stress_intensity_from_stress,
    topological_derivative,
)
from .chebyshev import gauss_chebyshev_u
from .cracks import CrackSegment, solve_cracked
from .errors import (
    ConfigError,
    CrackBemError,
    CrackTooCloseToBoundary,
    SolveFailed,
)
from .forward import BoundarySolver
from .kernels import LameParams
from .mesh import (
    BoundaryField,
    Disk,
    Ellipse,
    FourierStar,
    build_mesh,
    project_off_rigid_motions,
)

_SECTIONS = {
    "material": {"lambda", "mu"},
    "geometry": {"kind", "radius", "a", "b", "r0", "cos", "sin"},
    "load": {"kind", "sigma", "cos", "sin"},
    "crack": {"center", "angle_degrees", "lengths"},
    "discretization": {"n_boundary", "n_cheb_modes", "tol", "quad_points", "max_iterations"},
    "output": {"directory", "precision"},
    "td_map": {"n_grid", "n_angles", "margin"},
}

_DISCRETIZATION_DEFAULTS = {
    "n_boundary": 256,
    "n_cheb_modes": 32,
    "tol": 1e-11,
    "quad_points": 32,
    "max_iterations": 50,
}


def _check_keys(name: str, section: dict, allowed: set) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in section '{name}'")


def _finite(value) -> bool:
    """False if any number inside a parsed JSON value is infinite or NaN."""
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(config) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section '{sorted(unknown)[0]}'")
    for name, section in config.items():
        _check_keys(name, section, _SECTIONS[name])
        # JSON NaN, Infinity and overflowing literals such as 1e400 all parse
        for key, value in section.items():
            if not _finite(value):
                raise ConfigError(f"key '{key}' in section '{name}' must be finite")
    for required in ("material", "geometry", "load"):
        if required not in config:
            raise ConfigError(f"missing config section '{required}'")
    return config


def _float(section: dict, name: str, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key '{key}' in section '{name}'")
        return default
    try:
        return float(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{key}' in section '{name}' must be a number") from exc


def _int(section: dict, name: str, key: str, default=None) -> int:
    value = _float(section, name, key, default)
    if value != int(value):
        raise ConfigError(f"key '{key}' in section '{name}' must be an integer")
    return int(value)


def _material(config: dict) -> LameParams:
    section = config["material"]
    lam = _float(section, "material", "lambda")
    mu = _float(section, "material", "mu")
    try:
        return LameParams(lam=lam, mu=mu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _shape(config: dict):
    section = config["geometry"]
    kind = section.get("kind")
    if kind == "disk":
        return Disk(radius=_float(section, "geometry", "radius", 1.0))
    if kind == "ellipse":
        return Ellipse(a=_float(section, "geometry", "a"), b=_float(section, "geometry", "b"))
    if kind == "fourier":
        return FourierStar(
            r0=_float(section, "geometry", "r0"),
            cos_coeffs=tuple(section.get("cos", ())),
            sin_coeffs=tuple(section.get("sin", ())),
        )
    raise ConfigError("geometry.kind must be one of disk, ellipse, fourier")


def _vector_list(section: dict, name: str, key: str) -> np.ndarray:
    raw = section.get(key, [])
    arr = np.asarray(raw, dtype=float)
    if arr.size == 0:
        return np.zeros((0, 2))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"key '{key}' in section '{name}' must be a list of 2-vectors")
    return arr


def _load_field(config: dict, mesh) -> tuple[BoundaryField, list]:
    section = config["load"]
    kind = section.get("kind")
    warnings = []
    if kind == "constant-stress":
        sigma = np.asarray(section.get("sigma"), dtype=float)
        if sigma.shape != (2, 2):
            raise ConfigError("load.sigma must be a 2x2 matrix")
        if abs(sigma[0, 1] - sigma[1, 0]) > 1e-12 * max(1.0, np.abs(sigma).max()):
            raise ConfigError("load.sigma must be symmetric")
        values = mesh.normals @ sigma.T
        return BoundaryField(mesh, values), warnings
    if kind == "fourier-traction":
        cos_v = _vector_list(section, "load", "cos")
        sin_v = _vector_list(section, "load", "sin")
        t = mesh.params
        values = np.zeros((mesh.n, 2))
        for m, coeff in enumerate(cos_v):
            values += np.cos(m * t)[:, None] * coeff
        for m, coeff in enumerate(sin_v, start=1):
            values += np.sin(m * t)[:, None] * coeff
        field = BoundaryField(mesh, values)
        projected = project_off_rigid_motions(field)
        change = float(np.max(np.abs(projected.values - values)))
        if change > 1e-12 * max(1.0, field.sup_norm()):
            warnings.append(
                f"fourier traction was not equilibrated; rigid components "
                f"removed (max adjustment {change:.3g})"
            )
        return projected, warnings
    raise ConfigError("load.kind must be constant-stress or fourier-traction")


def _crack_section(config: dict) -> tuple[np.ndarray, float, list]:
    if "crack" not in config:
        raise ConfigError("missing config section 'crack'")
    section = config["crack"]
    center = np.asarray(section.get("center"), dtype=float)
    if center.shape != (2,):
        raise ConfigError("crack.center must be a 2-vector")
    angle = _float(section, "crack", "angle_degrees")
    lengths = [float(v) for v in section.get("lengths", [])]
    if not lengths or any(v <= 0 for v in lengths):
        raise ConfigError("crack.lengths must be a nonempty list of positive numbers")
    return center, angle, lengths


def _discretization(config: dict) -> dict:
    section = config.get("discretization", {})
    out = dict(_DISCRETIZATION_DEFAULTS)
    out["n_boundary"] = _int(section, "discretization", "n_boundary", out["n_boundary"])
    out["n_cheb_modes"] = _int(section, "discretization", "n_cheb_modes", out["n_cheb_modes"])
    out["tol"] = _float(section, "discretization", "tol", out["tol"])
    out["quad_points"] = _int(section, "discretization", "quad_points", out["quad_points"])
    out["max_iterations"] = _int(
        section, "discretization", "max_iterations", out["max_iterations"]
    )
    return out


def _output_settings(config: dict, out_flag) -> tuple[Path, int]:
    section = config.get("output", {})
    directory = section.get("directory", "out")
    precision = _int(section, "output", "precision", 17)
    if out_flag is not None:
        directory = out_flag
    return Path(directory), precision


def _format_value(value, precision: int) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), f".{precision}g")


def _write_csv(path: Path, header: list, rows: list, precision: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_format_value(v, precision) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _angle_direction(angle_degrees: float) -> np.ndarray:
    theta = np.deg2rad(angle_degrees)
    return np.array([np.cos(theta), np.sin(theta)])


class _Workspace:
    """Mesh, solver, and background shared by every solve of one command."""

    def __init__(self, config: dict):
        self.material = _material(config)
        disc = _discretization(config)
        self.disc = disc
        self.mesh = build_mesh(_shape(config), disc["n_boundary"])
        self.solver = BoundarySolver(self.mesh, self.material)
        self.g, self.warnings = _load_field(config, self.mesh)
        self.background = self.solver.solve_background(self.g)

    def sweep(self, center: np.ndarray, angle: float, lengths: list) -> list:
        """Solve one crack per length at a fixed center and angle.

        Returns one record per length: the cracked solution plus every column
        a command writes.  The stress intensity depends only on the center
        and direction, so one evaluation serves every length.
        """
        dist = self.mesh.distance_to(center)
        bad = [v for v in lengths if v >= dist]
        if bad:
            raise CrackTooCloseToBoundary(
                f"crack length {max(bad):g} is not smaller than the distance "
                f"{dist:.3g} from the center to the boundary"
            )
        direction = _angle_direction(angle)
        cracks = [CrackSegment(tuple(center), tuple(direction), length) for length in lengths]
        sif = stress_intensity(self.background, cracks[0])
        records = []
        for crack in cracks:
            solution = solve_cracked(
                self.background,
                crack,
                n_modes=self.disc["n_cheb_modes"],
                quad_points=self.disc["quad_points"],
                tol=self.disc["tol"],
                max_iterations=self.disc["max_iterations"],
            )
            formula = neumann_perturbation(self.background, crack)
            diff = potential_energy_difference(
                self.g, solution.trace_values(), self.background.trace
            )
            formula_energy = energy_asymptotic(crack, sif, self.material)
            records.append({
                "solution": solution,
                "eps": crack.length,
                "K1": sif.k1,
                "K2": sif.k2,
                "sup_w": solution.w.sup_norm(),
                "sup_mismatch": float(np.max(np.abs(solution.w.values - formula))),
                "energy_diff": diff,
                "energy_formula": formula_energy,
                "energy_mismatch": abs(diff - formula_energy),
            })
        return records


def _write_records(path: Path, records: list, columns: list, precision: int) -> None:
    _write_csv(path, columns, [[r[c] for c in columns] for r in records], precision)


def _print_warnings(warnings: list) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _write_trace(path: Path, field: BoundaryField, precision: int) -> None:
    mesh, values = field.mesh, field.values
    rows = [
        (mesh.params[i], mesh.points[i, 0], mesh.points[i, 1], values[i, 0], values[i, 1])
        for i in range(mesh.n)
    ]
    _write_csv(path, ["node_param", "x", "y", "u1", "u2"], rows, precision)


def cmd_solve(config: dict, out_dir: Path, precision: int) -> int:
    ws = _Workspace(config)
    center, angle, lengths = _crack_section(config)
    records = ws.sweep(center, angle, lengths)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace(out_dir / "trace_u0.csv", ws.background.trace, precision)
    diagnostics = {
        "n_boundary": ws.mesh.n,
        "tolerance": ws.disc["tol"],
        "lengths": lengths,
        "per_length": {},
        "warnings": ws.warnings,
    }
    eta, _ = gauss_chebyshev_u(ws.disc["n_cheb_modes"])
    for record in records:
        tag = f"{record['eps']:g}"
        solution = record["solution"]
        _write_trace(out_dir / f"trace_ueps_{tag}.csv", solution.trace_values(), precision)
        s = 0.5 * record["eps"] * eta
        opening = solution.opening(s)
        _write_csv(
            out_dir / f"crack_opening_{tag}.csv",
            ["x1", "phi1", "phi2"],
            [(s[q], opening[q, 0], opening[q, 1]) for q in range(len(s))],
            precision,
        )
        diagnostics["per_length"][tag] = {
            "iterations": solution.diagnostics["iterations"],
            "last_update": solution.diagnostics["last_update"],
            "sup_perturbation": record["sup_w"],
        }
    _write_json(out_dir / "diagnostics.json", diagnostics)
    _print_warnings(ws.warnings)
    return 0


def cmd_convergence(config: dict, out_dir: Path, precision: int) -> int:
    ws = _Workspace(config)
    center, angle, lengths = _crack_section(config)
    if len(lengths) < 3:
        raise ConfigError("convergence requires at least 3 crack lengths")
    records = ws.sweep(center, angle, lengths)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_records(
        out_dir / "convergence.csv",
        records,
        ["eps", "sup_w", "sup_mismatch", "energy_diff", "energy_formula", "energy_mismatch"],
        precision,
    )
    eps = np.array([r["eps"] for r in records])
    floor = 10.0 * ws.disc["tol"]
    slopes = {}
    for key in ("sup_w", "sup_mismatch", "energy_mismatch"):
        fit = fit_log_slope(eps, np.array([r[key] for r in records]), noise_floor=floor)
        slopes[key] = {"slope": fit.slope, "n_points_used": fit.n_points, "note": fit.note}
    _write_json(out_dir / "slopes.json", slopes)
    _print_warnings(ws.warnings)
    return 0


def cmd_td_map(config: dict, out_dir: Path, precision: int) -> int:
    ws = _Workspace(config)
    section = config.get("td_map", {})
    n_grid = _int(section, "td_map", "n_grid", 8)
    n_angles = _int(section, "td_map", "n_angles", 16)
    margin = _float(section, "td_map", "margin", ws.solver.minimum_interior_distance)

    extent = float(np.max(np.abs(ws.mesh.points)))
    coords = np.linspace(-extent, extent, n_grid)
    kept, skipped = [], []
    for y in coords:
        for x in coords:
            point = np.array([x, y])
            inside = ws.mesh.distance_to(point) >= margin and _contains(ws.mesh, point)
            (kept if inside else skipped).append(point)
    for point in skipped:
        print(
            f"log: skipped grid point ({point[0]:g}, {point[1]:g}): "
            f"closer than margin {margin:g} to the boundary",
            file=sys.stderr,
        )

    angles = np.arange(n_angles) * (180.0 / n_angles)

    def point_rows(point: np.ndarray) -> list:
        stress = ws.background.stress(point)[0]
        entries = []
        for angle in angles:
            sif = stress_intensity_from_stress(stress, _angle_direction(angle))
            td = topological_derivative(sif, ws.material)
            entries.append((angle, sif.k1, sif.k2, td))
        best = min(entries, key=lambda e: e[3])
        return [
            (point[0], point[1], angle, k1, k2, td, best[0])
            for (angle, k1, k2, td) in entries
        ]

    rows = [row for point in kept for row in point_rows(point)]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "td_map.csv",
        ["x", "y", "angle_deg", "K1", "K2", "td", "min_angle_deg"],
        rows,
        precision,
    )
    _print_warnings(ws.warnings)
    return 0


def cmd_energy(config: dict, out_dir: Path, precision: int) -> int:
    ws = _Workspace(config)
    center, angle, lengths = _crack_section(config)
    records = ws.sweep(center, angle, lengths)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_records(
        out_dir / "energy.csv",
        records,
        ["eps", "K1", "K2", "energy_diff", "energy_formula", "energy_mismatch"],
        precision,
    )
    _print_warnings(ws.warnings)
    return 0


def _contains(mesh, point: np.ndarray) -> bool:
    # winding of the boundary polygon around the point; boundary is CCW
    d = mesh.points - point
    angles = np.arctan2(d[:, 1], d[:, 0])
    turns = np.diff(np.concatenate([angles, angles[:1]]))
    turns = (turns + np.pi) % (2 * np.pi) - np.pi
    return abs(turns.sum()) > np.pi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crackbem",
        description="Boundary-integral studies of small interior cracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "convergence", "td-map", "energy"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1, help="accepted; runs are serial")

    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "td-map": cmd_td_map,
        "energy": cmd_energy,
    }
    try:
        config = load_config(args.config)
        out_dir, precision = _output_settings(config, args.out)
        return handlers[args.command](config, out_dir, precision)
    except SolveFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CrackBemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
