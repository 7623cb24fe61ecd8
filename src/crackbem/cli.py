"""Configuration-driven command line for batch crack studies.

Four subcommands share one JSON config format:

  solve        forward solves: background trace, cracked traces, openings
  convergence  sweep over crack lengths, compare against the leading-order
               formula, fit log-log decay rates
  td-map       topological-derivative field map over a grid of centers and
               crack angles
  energy       energy differences against the closed-form asymptotic

Config sections and keys, with their types, shapes, defaults, bounds and
the keys each kind takes, are the _SCHEMA table; load_config checks every
value against it and the command, and the readers only build objects.
Unknown or repeated keys anywhere, and keys foreign to the given kind, are
rejected: a typo in a sweep config should fail loudly, not run the wrong
experiment.  Angles enter in degrees and are converted at this boundary.
On the mesh, before the solver exists, cracks must pass
BoundaryMesh.require_clearance; td-map skips grid points nearer the wall
than its margin, floored at the mesh's minimum interior distance, and
refuses a grid that keeps no point.

All CSV output uses '.' decimals and a fixed column order, floats printed
with %.17g so reruns are byte-identical.  Every number is computed before the
output directory is made; td-map formats its map one grid point at a time as
it writes, so it never holds the whole CSV.  Output is all or nothing: every
file is written under a temporary name and renamed once all are written.
Exit codes: 0 success, 2 config or geometry violations, all found before a
solver is built, 3 solver failure, including a failed background residual
check and running out of memory (also while a file is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .asymptotics import fit_log_slope, length_sweep, orientation_scan, sweep_cracks
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

# the default of a key that has none: a config must give it
_REQUIRED = object()

# section -> key -> (type, default, lower bound, upper bound).  Types: float
# (a number), int (an integer count), str (text), a shape of nested lists of
# numbers ((None,) a list of numbers, (None, 2) a list of 2-vectors, (2,) a
# 2-vector, (2, 2) a 2x2 matrix; None is any length) and, for "kind", the
# table of kinds and the keys each takes: the kind comes first in its
# section, and a given key its kind does not take is refused.  Numbers, and
# the numbers of a list, must exceed the lower bound and may not exceed the
# upper bound.  The upper bounds keep a run within minutes and memory: a
# solver retains one (2 n_boundary + 3)^2 matrix, 2.15 GB at 8192, a crack
# whose updates stall above a tiny tol stops after 1000 sweeps, and 17
# digits already round-trip a double.  A section with a _REQUIRED key stays
# absent when not given; one whose keys all have defaults is filled in.
_SCHEMA = {
    "material": {"lambda": (float, _REQUIRED, None, None), "mu": (float, _REQUIRED, None, None)},
    "geometry": {
        "kind": (
            {"disk": ("radius",), "ellipse": ("a", "b"), "fourier": ("r0", "cos", "sin")},
            _REQUIRED, None, None,
        ),
        "radius": (float, 1.0, None, None), "r0": (float, _REQUIRED, None, None),
        "a": (float, _REQUIRED, None, None), "b": (float, _REQUIRED, None, None),
        "cos": ((None,), (), None, None), "sin": ((None,), (), None, None),
    },
    "load": {
        "kind": (
            {"constant-stress": ("sigma",), "fourier-traction": ("cos", "sin")},
            _REQUIRED, None, None,
        ),
        "sigma": ((2, 2), _REQUIRED, None, None),
        "cos": ((None, 2), (), None, None), "sin": ((None, 2), (), None, None),
    },
    "crack": {
        "center": ((2,), _REQUIRED, None, None), "angle_degrees": (float, _REQUIRED, None, None),
        "lengths": ((None,), (), 0.0, None),
    },
    "discretization": {
        "n_boundary": (int, 256, 0, 8192), "n_cheb_modes": (int, 32, 0, 1024),
        "tol": (float, 1e-11, 0.0, None), "max_iterations": (int, 50, 0, 1000),
    },
    "output": {"directory": (str, "out", None, None), "precision": (int, 17, 0, 17)},
    # the margin is floored at the mesh's minimum interior distance
    "td_map": {
        "n_grid": (int, 8, 0, 4096), "n_angles": (int, 16, 0, 4096),
        "margin": (float, 0.0, None, None),
    },
}

# type -> name.  JSON numbers arrive as floats (load_config parses integers
# as floats too), so booleans, strings and objects are not numbers.
_TYPES = {
    float: "a number", int: "an integer", str: "text",
    (None,): "a list of numbers", (None, 2): "a list of 2-vectors",
    (2,): "a 2-vector", (2, 2): "a 2x2 matrix",
}


def _has_type(value, type_) -> bool:
    if type_ is str:
        return isinstance(value, str)
    if type_ in (float, int, ()):
        return isinstance(value, float)
    return (
        isinstance(value, list) and type_[0] in (None, len(value))
        and all(_has_type(v, type_[1:]) for v in value)
    )


def _checked(name: str, key: str, value, type_, low, high):
    """The value converted to its schema type, or ConfigError naming the key."""
    where = f"key '{key}' in section '{name}'"
    if isinstance(type_, dict):  # a kind: one of its table's names
        if not isinstance(value, str) or value not in type_:
            raise ConfigError(f"{where} must be one of {', '.join(type_)}")
        return value
    if not _has_type(value, type_):
        raise ConfigError(f"{where} must be {_TYPES[type_]}")
    if type_ is str:
        return value
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{where} must be finite")
    if type_ is int and not value.is_integer():
        raise ConfigError(f"{where} must be an integer")
    if low is not None and not np.all(np.greater(value, low)):
        raise ConfigError(f"{where} must be greater than {low:g}")
    if high is not None and not np.all(np.less_equal(value, high)):
        raise ConfigError(f"{where} must be at most {high:g}")
    return int(value) if type_ is int else value


def _objects(value, section=None):
    """JSON parsed with each object as a tuple of (key, value) pairs, with
    every object made a dict; a key given twice raises ConfigError naming it
    and its section, the dotted path of the keys above it."""
    if isinstance(value, list):
        return [_objects(item, section) for item in value]
    if not isinstance(value, tuple):
        return value
    out = {}
    for key, item in value:
        if key in out:
            where = f"key '{key}' in section '{section}'" if section else f"section '{key}'"
            raise ConfigError(f"duplicate {where}")
        out[key] = _objects(item, key if section is None else f"{section}.{key}")
    return out


def load_config(path: str, command: str) -> dict:
    """Read and validate a JSON config for a command against _SCHEMA, filling
    in defaults.

    JSON null counts as an absent key.  Raises ConfigError naming the
    section or key for unknown or repeated names, missing sections and
    keys, kinds outside their table, keys foreign to the kind, wrong types
    and shapes, non-finite numbers, non-integral counts and values outside
    their bounds, a non-symmetric sigma, and for the commands but td-map a
    missing crack section or lengths, fewer than three for convergence and,
    for solve, two lengths sharing an output tag.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        # integers parse as floats too, so 1e400 and a 400-digit integer
        # both become infinity and fail the finiteness check
        raw = _objects(json.loads(text, parse_int=float, object_pairs_hook=tuple))
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config section '{sorted(unknown)[0]}'")
    config = {}
    for name, schema in _SCHEMA.items():
        section = raw.get(name)
        if section is None and any(d is _REQUIRED for _, d, _, _ in schema.values()):
            continue
        section = {} if section is None else section
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        unknown = set(section) - set(schema)
        if unknown:
            raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in section '{name}'")
        given = {key: value for key, value in section.items() if value is not None}
        config[name] = values = {}
        keys = set(schema)  # until a kind names its own
        for key, (type_, default, low, high) in schema.items():
            if key not in keys:
                continue
            if key in given:
                values[key] = _checked(name, key, given[key], type_, low, high)
            elif default is _REQUIRED:
                raise ConfigError(f"missing key '{key}' in section '{name}'")
            else:
                values[key] = default
            if isinstance(type_, dict):
                keys = {key, *type_[values[key]]}
                foreign = sorted(set(given) - keys)
                if foreign:
                    raise ConfigError(
                        f"key '{foreign[0]}' in section '{name}' does not apply to "
                        f"{key} '{values[key]}'"
                    )
    for required in ("material", "geometry", "load"):
        if required not in config:
            raise ConfigError(f"missing config section '{required}'")
    if config["load"]["kind"] == "constant-stress":
        sigma = np.asarray(config["load"]["sigma"])
        if abs(sigma[0, 1] - sigma[1, 0]) > 1e-12 * max(1.0, np.abs(sigma).max()):
            raise ConfigError("load.sigma must be symmetric")
    if command == "td-map":
        return config
    if "crack" not in config:
        raise ConfigError("missing config section 'crack'")
    lengths = config["crack"]["lengths"]
    if not lengths:
        raise ConfigError("crack.lengths must be a nonempty list of positive numbers")
    if command == "convergence" and len(lengths) < 3:
        raise ConfigError("convergence requires at least 3 crack lengths")
    if command == "solve":
        # output files are named by tag, so two lengths with one tag would overwrite
        tags = [f"{eps:g}" for eps in lengths]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError(f"crack.lengths share the output tag '{tag}'")
    return config


def _shape(config: dict):
    section = config["geometry"]
    if section["kind"] == "disk":
        return Disk(radius=section["radius"])
    if section["kind"] == "ellipse":
        return Ellipse(a=section["a"], b=section["b"])
    return FourierStar(
        r0=section["r0"], cos_coeffs=tuple(section["cos"]), sin_coeffs=tuple(section["sin"])
    )


def _load_field(config: dict, mesh) -> tuple[BoundaryField, list]:
    section = config["load"]
    if section["kind"] == "constant-stress":
        return BoundaryField(mesh, mesh.normals @ np.asarray(section["sigma"]).T), []
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
        return projected, [
            f"fourier traction was not equilibrated; rigid components "
            f"removed (max adjustment {change:.3g})"
        ]
    return projected, []


def _crack_sweep(config: dict, mesh) -> dict:
    """The length_sweep arguments of the configured crack sweep: its cracks,
    refused here unless every one clears the mesh (sweep_cracks), and the
    solve options."""
    section, disc = config["crack"], config["discretization"]
    theta = np.deg2rad(section["angle_degrees"])
    cracks = sweep_cracks(
        mesh, np.asarray(section["center"], dtype=float),
        np.array([np.cos(theta), np.sin(theta)]), section["lengths"],
    )
    return {
        "cracks": cracks, "n_modes": disc["n_cheb_modes"], "tol": disc["tol"],
        "max_iterations": disc["max_iterations"],
    }


def _td_grid(config: dict, mesh) -> np.ndarray:
    """The td-map grid points kept, one (k, 2) array in grid-row order: those
    inside the curve and no nearer its nodes than the margin, floored at the
    mesh's minimum interior distance.  Skipped points are logged; a grid that
    keeps no point is refused."""
    section = config["td_map"]
    margin = max(section["margin"], mesh.minimum_interior_distance)
    extent = float(np.max(np.abs(mesh.points)))
    coords = np.linspace(-extent, extent, section["n_grid"])
    kept = []
    for y in coords:  # one row per call: the whole grid at once costs memory
        row = np.stack([coords, np.full_like(coords, y)], axis=-1)
        keep = mesh.distance_to(row) >= margin
        kept.append(row[keep])
        sys.stderr.write("".join(
            f"log: skipped grid point ({px:g}, {py:g}): "
            f"closer than margin {margin:g} to the boundary\n"
            for px, py in row[~keep].tolist()
        ))
    points = np.concatenate(kept)
    if not len(points):
        raise ConfigError(
            f"td_map keeps no grid point: every point of the {len(coords)}x{len(coords)} "
            f"grid is outside the boundary or closer than margin {margin:g} to it"
        )
    return points


def _csv(header: list, rows: list, precision: int) -> str:
    fmt = ",".join([f"%.{precision}g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(fmt % tuple(row) for row in rows)


def _records_csv(records: list, columns: list, precision: int) -> str:
    return _csv(columns, [[r[c] for c in columns] for r in records], precision)


def _trace_writer(mesh, precision: int):
    """The CSV text (node_param, x, y, u1, u2) of boundary fields on mesh; the
    node columns are formatted once, here, for every file written with it."""
    fmt = f"%.{precision}g"
    nodes = np.column_stack([mesh.params, mesh.points]).tolist()
    prefixes = [f"{fmt},{fmt},{fmt}," % tuple(node) for node in nodes]
    values = f"{fmt},{fmt}\n"

    def trace_csv(field: BoundaryField) -> str:
        rows = zip(prefixes, field.values.tolist())
        return "node_param,x,y,u1,u2\n" + "".join(p + values % tuple(v) for p, v in rows)

    return trace_csv


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_solve(background, config: dict, sweep: dict, warnings: list) -> dict:
    records = length_sweep(background, **sweep)
    precision, disc = config["output"]["precision"], config["discretization"]
    trace_csv = _trace_writer(background.mesh, precision)
    files = {"trace_u0.csv": [trace_csv(background.trace)]}
    diagnostics = {
        "n_boundary": background.mesh.n,
        "tolerance": disc["tol"],
        "lengths": config["crack"]["lengths"],
        "per_length": {},
        "warnings": warnings,
    }
    eta, _ = gauss_chebyshev_u(disc["n_cheb_modes"])
    for record in records:
        tag, solution = f"{record['eps']:g}", record["solution"]
        files[f"trace_ueps_{tag}.csv"] = [trace_csv(solution.trace_values())]
        s = 0.5 * record["eps"] * eta
        rows = np.column_stack([s, solution.opening(s)]).tolist()
        files[f"crack_opening_{tag}.csv"] = [_csv(["x1", "phi1", "phi2"], rows, precision)]
        diagnostics["per_length"][tag] = {
            "iterations": solution.diagnostics["iterations"],
            "last_update": solution.diagnostics["last_update"],
            "sup_perturbation": record["sup_w"],
        }
    files["diagnostics.json"] = [_json(diagnostics)]
    return files


def cmd_convergence(background, config: dict, sweep: dict, warnings: list) -> dict:
    records = length_sweep(background, **sweep)
    eps = np.array([r["eps"] for r in records])
    floor = 10.0 * config["discretization"]["tol"]
    slopes = {}
    for key in ("sup_w", "sup_mismatch", "energy_mismatch"):
        fit = fit_log_slope(eps, np.array([r[key] for r in records]), noise_floor=floor)
        slopes[key] = {"slope": fit.slope, "n_points_used": fit.n_points, "note": fit.note}
    columns = ["eps", "sup_w", "sup_mismatch", "energy_diff", "energy_formula", "energy_mismatch"]
    return {
        "convergence.csv": [_records_csv(records, columns, config["output"]["precision"])],
        "slopes.json": [_json(slopes)],
    }


def cmd_td_map(background, config: dict, points: np.ndarray, warnings: list) -> dict:
    n_angles = config["td_map"]["n_angles"]
    angles = np.arange(n_angles) * (180.0 / n_angles)
    # each row is "x,y," + angle + ",K1,K2,td," + best angle: the values that
    # repeat over a point's angles, or over the points, are formatted once
    g = f"%.{config['output']['precision']}g"
    angle_fields = [g % a + f",{g},{g},{g}," for a in angles.tolist()]
    sif, td, best = orientation_scan(background, points, np.deg2rad(angles))
    values = np.stack([sif.k1, sif.k2, td], axis=-1)  # (p, n_angles, 3)
    values = values.reshape(len(td), 3 * len(angles))

    def blocks():
        # the numbers are all computed above; only their text is made here,
        # one point's block at a time, as main writes it, so each point's
        # values become Python floats only for its own block
        yield "x,y,angle_deg,K1,K2,td,min_angle_deg\n"
        for (px, py), b, v in zip(points.tolist(), angles[best].tolist(), values):
            prefix, suffix = g % px + "," + g % py + ",", g % b + "\n"
            yield prefix + (suffix + prefix).join(angle_fields) % tuple(v.tolist()) + suffix

    return {"td_map.csv": blocks()}


def cmd_energy(background, config: dict, sweep: dict, warnings: list) -> dict:
    records = length_sweep(background, **sweep)
    columns = ["eps", "K1", "K2", "energy_diff", "energy_formula", "energy_mismatch"]
    return {"energy.csv": [_records_csv(records, columns, config["output"]["precision"])]}


# command -> (check, handler).  check(config, mesh) makes the refusals that
# need the mesh; handler(background, config, checked, warnings) takes what it
# returned and gives the command's output files as {name: chunks}: the text
# of a file as an iterable of strings, which main writes in order.  A small
# file is one string in a list; td-map's blocks are made as they are written.
_COMMANDS = {
    "solve": (_crack_sweep, cmd_solve),
    "convergence": (_crack_sweep, cmd_convergence),
    "td-map": (_td_grid, cmd_td_map),
    "energy": (_crack_sweep, cmd_energy),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crackbem",
        description="Boundary-integral studies of small interior cracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1, help="at least 1; runs are serial")

    args = parser.parse_args(argv)
    if args.threads < 1:
        sub.choices[args.command].error("argument --threads: must be at least 1")
    check, handler = _COMMANDS[args.command]
    try:
        config = load_config(args.config, args.command)
        out = Path(config["output"]["directory"] if args.out is None else args.out)
        n = config["discretization"]["n_boundary"]
        try:
            # every refusal is made before the solver, the one n^2 build, exists
            mesh = build_mesh(_shape(config), n)
            checked = check(config, mesh)
            g, warnings = _load_field(config, mesh)
            mat = LameParams(lam=config["material"]["lambda"], mu=config["material"]["mu"])
            background = BoundarySolver(mesh, mat).solve_background(g)
            files = handler(background, config, checked, warnings)
            made = [path for path in (out, *out.parents) if not path.exists()]
            out.mkdir(parents=True, exist_ok=True)
            # each file is written chunk by chunk (UTF-8, '\n' ends) under a temporary
            # name and renamed once all are; a failure removes them and new directories
            parts = {name: out / f".{name}.partial" for name in files}
            try:
                for name, chunks in files.items():
                    with open(parts[name], "w", encoding="utf-8", newline="\n") as f:
                        f.writelines(chunks)
                for name, part in parts.items():
                    part.replace(out / name)
            except BaseException:
                for part in parts.values():
                    part.unlink(missing_ok=True)
                for path in made:
                    path.rmdir()
                raise
        except MemoryError:
            # input the schema accepts but that this machine cannot hold
            raise SolveFailed(f"out of memory with n_boundary {n}; lower n_boundary") from None
        for warning in warnings:
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
