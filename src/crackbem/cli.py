"""Configuration-driven command line for batch crack studies.

Four subcommands share one JSON config format:

  solve        forward solves: background trace, cracked traces, openings
  convergence  sweep over crack lengths, compare against the leading-order
               formula, fit log-log decay rates
  td-map       topological-derivative field map over a grid of centers and
               crack angles
  energy       energy differences against the closed-form asymptotic

Config sections and keys, with their types, defaults and bounds, are
the _SCHEMA table; load_config checks every value against it and fills in
the defaults, and nothing else parses config values.  Unknown keys anywhere
are rejected: a typo in a sweep config should fail loudly, not run the wrong
experiment.  Angles enter in degrees and are converted at this boundary.
Cracks must pass BoundarySolver.require_clearance; td-map skips grid points
nearer the wall than its margin, floored at the solver's minimum interior
distance, and refuses a grid that keeps no point.

All CSV output uses '.' decimals and a fixed column order, floats printed
with %.17g so reruns are byte-identical.  Exit codes: 0 success, 2 config or
geometry violations, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    fit_log_slope,
    length_sweep,
    stress_intensity_from_stress,
    topological_derivative,
)
from .chebyshev import gauss_chebyshev_u
from .errors import (
    ConfigError,
    CrackBemError,
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

_VECTORS = "vectors"

# section -> key -> (type, default, lower bound, upper bound).  Types: float
# (a number), int (an integer count), str (text), list (a list of numbers)
# and _VECTORS (a list of 2-vectors).  Numbers, and the numbers of a list,
# must exceed the lower bound and may not exceed the upper bound.  The upper
# bounds keep a run within minutes and memory: a solver retains two
# (2 n_boundary + 3)^2 matrices, 4.3 GB at 8192.  A key whose default is None
# has none: it stays absent and its reader reports it missing.  A section
# whose keys all have defaults is filled in when absent.
_SCHEMA = {
    "material": {"lambda": (float, None, None, None), "mu": (float, None, None, None)},
    "geometry": {
        "kind": (str, None, None, None), "radius": (float, 1.0, None, None),
        "r0": (float, None, None, None), "a": (float, None, None, None),
        "b": (float, None, None, None), "cos": (list, (), None, None),
        "sin": (list, (), None, None),
    },
    "load": {
        "kind": (str, None, None, None), "sigma": (_VECTORS, None, None, None),
        "cos": (_VECTORS, (), None, None), "sin": (_VECTORS, (), None, None),
    },
    "crack": {
        "center": (list, None, None, None), "angle_degrees": (float, None, None, None),
        "lengths": (list, (), 0.0, None),
    },
    "discretization": {
        "n_boundary": (int, 256, 0, 8192), "n_cheb_modes": (int, 32, 0, 1024),
        "tol": (float, 1e-11, 0.0, None), "max_iterations": (int, 50, 0, None),
    },
    "output": {"directory": (str, "out", None, None), "precision": (int, 17, 0, None)},
    # the margin is floored at the solver's minimum interior distance
    "td_map": {
        "n_grid": (int, 8, 0, 4096), "n_angles": (int, 16, 0, 4096),
        "margin": (float, 0.0, None, None),
    },
}


def _numbers(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, float) for v in value)


# type -> (name, test).  JSON numbers arrive as floats (load_config parses
# integers as floats too), so booleans, strings and objects are not numbers.
_TYPES = {
    float: ("a number", lambda v: isinstance(v, float)),
    int: ("an integer", lambda v: isinstance(v, float)),
    str: ("text", lambda v: isinstance(v, str)),
    list: ("a list of numbers", _numbers),
    _VECTORS: (
        "a list of 2-vectors",
        lambda v: isinstance(v, list) and all(_numbers(x) and len(x) == 2 for x in v),
    ),
}


def _checked(name: str, key: str, value, kind, low, high):
    """The value converted to its schema type, or ConfigError naming the key."""
    where = f"key '{key}' in section '{name}'"
    type_name, has_type = _TYPES[kind]
    if not has_type(value):
        raise ConfigError(f"{where} must be {type_name}")
    if kind is str:
        return value
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{where} must be finite")
    if kind is int and not value.is_integer():
        raise ConfigError(f"{where} must be an integer")
    if low is not None and not np.all(np.greater(value, low)):
        raise ConfigError(f"{where} must be greater than {low:g}")
    if high is not None and not np.all(np.less_equal(value, high)):
        raise ConfigError(f"{where} must be at most {high:g}")
    return int(value) if kind is int else value


def load_config(path: str) -> dict:
    """Read and validate a JSON config against _SCHEMA, filling in defaults.

    JSON null counts as an absent key.  Raises ConfigError naming the
    section or key for unknown names, wrong types, non-finite numbers,
    non-integral counts and values not above their lower bound.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        # integers parse as floats too, so 1e400 and a 400-digit integer
        # both become infinity and fail the finiteness check
        raw = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config section '{sorted(unknown)[0]}'")
    config = {}
    for name, schema in _SCHEMA.items():
        section = raw.get(name)
        if section is None and any(d is None for _, d, _, _ in schema.values()):
            continue
        section = {} if section is None else section
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        unknown = set(section) - set(schema)
        if unknown:
            raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in section '{name}'")
        config[name] = {}
        for key, (kind, default, low, high) in schema.items():
            value = section.get(key)
            if value is not None:
                config[name][key] = _checked(name, key, value, kind, low, high)
            elif default is not None:
                config[name][key] = default
    for required in ("material", "geometry", "load"):
        if required not in config:
            raise ConfigError(f"missing config section '{required}'")
    return config


def _required(section: dict, name: str, key: str):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section '{name}'")
    return section[key]


def _material(config: dict) -> LameParams:
    section = config["material"]
    return LameParams(
        lam=_required(section, "material", "lambda"), mu=_required(section, "material", "mu")
    )


def _shape(config: dict):
    section = config["geometry"]
    kind = section.get("kind")
    if kind == "disk":
        return Disk(radius=section["radius"])
    if kind == "ellipse":
        return Ellipse(
            a=_required(section, "geometry", "a"), b=_required(section, "geometry", "b")
        )
    if kind == "fourier":
        return FourierStar(
            r0=_required(section, "geometry", "r0"),
            cos_coeffs=tuple(section["cos"]),
            sin_coeffs=tuple(section["sin"]),
        )
    raise ConfigError("geometry.kind must be one of disk, ellipse, fourier")


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
        t = mesh.params
        values = np.zeros((mesh.n, 2))
        for m, coeff in enumerate(section["cos"]):
            values += np.cos(m * t)[:, None] * coeff
        for m, coeff in enumerate(section["sin"], start=1):
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


def _crack_section(config: dict) -> tuple[np.ndarray, np.ndarray, list]:
    """Center, unit direction and lengths of the configured crack sweep."""
    if "crack" not in config:
        raise ConfigError("missing config section 'crack'")
    section = config["crack"]
    center = np.asarray(section.get("center"), dtype=float)
    if center.shape != (2,):
        raise ConfigError("crack.center must be a 2-vector")
    direction = _angle_direction(_required(section, "crack", "angle_degrees"))
    lengths = section["lengths"]
    if not lengths:
        raise ConfigError("crack.lengths must be a nonempty list of positive numbers")
    return center, direction, lengths


def _write_text(path: Path, text: str) -> None:
    """The one writer of output files: UTF-8, '\\n' line ends, one write."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_csv(path: Path, header: list, rows: list, precision: int) -> None:
    fmt = ",".join([f"%.{precision}g"] * len(header)) + "\n"
    _write_text(path, ",".join(header) + "\n" + "".join(fmt % tuple(row) for row in rows))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _angle_direction(angle_degrees: float) -> np.ndarray:
    theta = np.deg2rad(angle_degrees)
    return np.array([np.cos(theta), np.sin(theta)])


class _Workspace:
    """Mesh, solver, background and solve_cracked options shared by every
    solve of one command."""

    def __init__(self, config: dict):
        self.material = _material(config)
        self.disc = config["discretization"]
        self.mesh = build_mesh(_shape(config), self.disc["n_boundary"])
        self.solver = BoundarySolver(self.mesh, self.material)
        g, self.warnings = _load_field(config, self.mesh)
        self.background = self.solver.solve_background(g)
        self.solve_options = {
            "n_modes": self.disc["n_cheb_modes"],
            "tol": self.disc["tol"],
            "max_iterations": self.disc["max_iterations"],
        }


def _write_records(path: Path, records: list, columns: list, precision: int) -> None:
    _write_csv(path, columns, [[r[c] for c in columns] for r in records], precision)


def _write_trace(path: Path, field: BoundaryField, precision: int) -> None:
    mesh, values = field.mesh, field.values
    rows = [
        (mesh.params[i], mesh.points[i, 0], mesh.points[i, 1], values[i, 0], values[i, 1])
        for i in range(mesh.n)
    ]
    _write_csv(path, ["node_param", "x", "y", "u1", "u2"], rows, precision)


def cmd_solve(ws: _Workspace, config: dict, out_dir: Path, precision: int) -> None:
    center, direction, lengths = _crack_section(config)
    # output files are named by tag, so two lengths with one tag would overwrite
    tags = [f"{eps:g}" for eps in lengths]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"crack.lengths share the output tag '{tag}'")
    records = length_sweep(ws.background, center, direction, lengths, **ws.solve_options)

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
    for tag, record in zip(tags, records):
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


def cmd_convergence(ws: _Workspace, config: dict, out_dir: Path, precision: int) -> None:
    center, direction, lengths = _crack_section(config)
    if len(lengths) < 3:
        raise ConfigError("convergence requires at least 3 crack lengths")
    records = length_sweep(ws.background, center, direction, lengths, **ws.solve_options)

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


def cmd_td_map(ws: _Workspace, config: dict, out_dir: Path, precision: int) -> None:
    section = config["td_map"]
    margin = max(section["margin"], ws.solver.minimum_interior_distance)

    extent = float(np.max(np.abs(ws.mesh.points)))
    coords = np.linspace(-extent, extent, section["n_grid"])
    angles = np.arange(section["n_angles"]) * (180.0 / section["n_angles"])
    directions = _angle_direction(angles).T  # (n_angles, 2)
    # each row is "x,y," + angle + ",K1,K2,td," + best angle: the values that
    # repeat over a point's angles, or over the points, are formatted once
    g = f"%.{precision}g"
    angle_fields = [g % a + f",{g},{g},{g}," for a in angles.tolist()]
    blocks = []
    for y in coords:  # one row per call: the whole grid at once costs memory
        row = np.stack([coords, np.full_like(coords, y)], axis=-1)
        keep = ws.mesh.distance_to(row) >= margin
        sys.stderr.write("".join(
            f"log: skipped grid point ({px:g}, {py:g}): "
            f"closer than margin {margin:g} to the boundary\n"
            for px, py in row[~keep].tolist()
        ))
        points = row[keep]
        stress = ws.background.stress(points)[:, None]  # against every angle
        sif = stress_intensity_from_stress(stress, directions)  # (k, n_angles)
        td = topological_derivative(sif, ws.material)
        # the first angle within rounding of the minimum: where td is flat over
        # the angles, a bare argmin would pick whichever rounding came out lowest
        tol = 1e-12 * np.max(np.abs(td), axis=1, keepdims=True)
        best = angles[np.argmax(td <= np.min(td, axis=1, keepdims=True) + tol, axis=1)]
        values = np.stack([sif.k1, sif.k2, td], axis=-1)  # (k, n_angles, 3)
        values = values.reshape(len(points), 3 * len(angles)).tolist()
        for (px, py), b, v in zip(points.tolist(), best.tolist(), values):
            prefix, suffix = g % px + "," + g % py + ",", g % b + "\n"
            blocks.append(prefix + (suffix + prefix).join(angle_fields) % tuple(v) + suffix)

    if not blocks:
        raise ConfigError(
            f"td_map keeps no grid point: every point of the {len(coords)}x{len(coords)} "
            f"grid is outside the boundary or closer than margin {margin:g} to it"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(
        out_dir / "td_map.csv", "x,y,angle_deg,K1,K2,td,min_angle_deg\n" + "".join(blocks)
    )


def cmd_energy(ws: _Workspace, config: dict, out_dir: Path, precision: int) -> None:
    center, direction, lengths = _crack_section(config)
    records = length_sweep(ws.background, center, direction, lengths, **ws.solve_options)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_records(
        out_dir / "energy.csv",
        records,
        ["eps", "K1", "K2", "energy_diff", "energy_formula", "energy_mismatch"],
        precision,
    )


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
        output = config["output"]
        out_dir = Path(output["directory"] if args.out is None else args.out)
        ws = _Workspace(config)
        handlers[args.command](ws, config, out_dir, output["precision"])
        for warning in ws.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return 0
    except SolveFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CrackBemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
