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
BoundaryMesh.require_clearance; td-map classifies its grid with one
BoundaryMesh.distance_on_grid call, which tests each grid row against only
the boundary polygon's edges that straddle it, skips grid points nearer the
wall than its margin, floored at the mesh's minimum interior distance, and
refuses a grid that keeps no point.

All CSV output uses '.' decimals and a fixed column order, floats printed
with %.17g so reruns are byte-identical.  Every number is computed before the
output directory is made; td-map makes its map's text a chunk of grid points
at a time as it writes, so it never holds the whole CSV.  It formats each
grid coordinate and angle once; K1, K2 and td go through _format_g, which
lays out the exact '%.{p}g' text of a whole chunk in zero-padded byte slots
with numpy, making no Python object per value of magnitude 10^(p-22) to
2^63.  A chunk whose values mostly lie outside that range is formatted by
Python's '%', one call per grid point.  Output is all or nothing:
every file is written under a temporary name and renamed once all are
written.
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
# whose updates stall above a tiny tol (relative to sup|u0|, as
# cracks.solve_cracked stops) stops after 1000 sweeps, and 17 digits already
# round-trip a double.  A section with a _REQUIRED key stays absent when not
# given; one whose keys all have defaults is filled in.
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

# (section, key, mode of the list's first entry) of the Fourier coefficient lists
_FOURIER_MODES = (
    ("geometry", "cos", 1), ("geometry", "sin", 1), ("load", "cos", 0), ("load", "sin", 1),
)

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
    their bounds, a Fourier geometry or load mode at or above n_boundary/2,
    a non-symmetric sigma, and for the commands but td-map a
    missing crack section or lengths, fewer than three for convergence and,
    for solve and convergence, two lengths sharing a '%g' tag.
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
    # on n nodes a mode m >= n/2 aliases to a lower one (mode m reads as
    # m - n), so it is refused
    n = config["discretization"]["n_boundary"]
    for name, key, first in _FOURIER_MODES:
        mode = first + len(config[name].get(key, ())) - 1
        if 2 * mode >= n:
            raise ConfigError(
                f"key '{key}' in section '{name}' gives mode {mode}, which n_boundary {n} "
                f"cannot represent: modes must be below n_boundary/2"
            )
    if config["load"]["kind"] == "constant-stress":
        sigma = np.asarray(config["load"]["sigma"])
        # relative to sigma's own size, which may be any: a zero sigma is legal
        if abs(sigma[0, 1] - sigma[1, 0]) > 1e-12 * np.abs(sigma).max():
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
    if command in ("solve", "convergence"):
        # solve names its output files by tag, so two lengths with one tag
        # would overwrite; two equal lengths can leave convergence's slope
        # fit undetermined
        tags = [f"{eps:g}" for eps in lengths]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError(
                    f"crack.lengths share the output tag '{tag}'" if command == "solve"
                    else f"crack.lengths repeat the length {tag}: convergence needs them distinct"
                )
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
    # a rigid load leaves zero or rounding, whose moments are of its own
    # size, and a load all but about 1e-8 rigid leaves the projection's
    # rounding: both are refused here, before the solver, by the rule of
    # solve_background; a zero load passes
    size, rest = field.sup_norm(), projected.sup_norm()
    if size > 0.0 and not (rest > 1e-12 * size and projected.is_equilibrated()):
        raise ConfigError(
            f"fourier traction load is a rigid motion to rounding: without its rigid "
            f"components, max |traction| is {rest:.3g} of {size:.3g}, too little to equilibrate"
        )
    if change > 1e-12 * size:  # relative: a zero load stays silent
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


def _td_grid(config: dict, mesh) -> tuple:
    """The td-map grid: its coordinates (m,), the same along x and y, and
    the mask (m, m) of the points kept, indexed [y, x]: those inside the
    curve and no nearer its nodes than the margin, floored at the mesh's
    minimum interior distance.  Skipped points are logged in grid-row order;
    a grid that keeps no point is refused."""
    section = config["td_map"]
    margin = max(section["margin"], mesh.minimum_interior_distance)
    extent = float(np.max(np.abs(mesh.points)))
    coords = np.linspace(-extent, extent, section["n_grid"])
    # one call classifies every row, testing only the edges that straddle it
    keep = mesh.distance_on_grid(coords, coords) >= margin
    # each coordinate and the margin are formatted once for the whole log,
    # which is written a row at a time: a 4096 x 4096 grid's whole log would
    # take gigabytes
    text = [f"{c:g}" for c in coords.tolist()]
    suffix = f"): closer than margin {margin:g} to the boundary\n"
    for y, row in zip(text, keep):
        sys.stderr.write("".join(
            f"log: skipped grid point ({x}, {y}{suffix}"
            for x, kept in zip(text, row.tolist()) if not kept
        ))
    if not keep.any():
        raise ConfigError(
            f"td_map keeps no grid point: every point of the {len(coords)}x{len(coords)} "
            f"grid is outside the boundary or closer than margin {margin:g} to it"
        )
    return coords, keep


# Exact '%.{p}g' digits in numpy, for td-map's map.  With X = floor(log10|x|)
# and s = p - 1 - X, the digits are D = round-half-even(|x| 10^s).  For
# 10^(p-22) <= |x| < 10^p, 0 <= s <= 22 and 10^s is an exact double, so a
# Dekker product gives |x| 10^s exactly as hi + lo, and its floor and half-way
# test need exact comparisons only.  For 10^p <= |x| < 2^63, s < 0 and |x|
# has an exact int64 floor, so integer division by 10^-s gives D.  Python's
# '%' formats zero, non-finite values and the magnitudes outside both ranges.
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10^0 .. 10^22, each exact
_INT10 = 10 ** np.arange(19, dtype=np.int64)
# the ASCII of 0000 .. 9999, each 4 bytes read as one uint32, and the masks
# that keep the first k of 20 bytes (5 uint32), k = 0 .. 20
_QUADS = np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1) + ord("0")
_QUADS = np.ascontiguousarray(_QUADS).view(np.uint32).ravel()
_KEEP = np.where(np.arange(20) < np.arange(21)[:, None], 255, 0).astype(np.uint8)
_KEEP = _KEEP.view(np.uint32)
_VELTKAMP = 2.0**27 + 1.0


def _split(v):
    """v as hi + lo, each with at most 26 significant bits."""
    c = _VELTKAMP * v
    hi = c - (c - v)
    return hi, v - hi


def _scaled_floor(a, s):
    """(F, up) for -18 <= s <= 22 and a < 2^63: F = floor(a 10^s) as int64,
    exactly, and whether a 10^s rounds half even to F + 1 rather than F,
    exact once a 10^s >= 1."""
    divided = s < 0
    if divided.any():
        floor, up = np.empty(len(a), np.int64), np.empty(len(a), bool)
        floor[divided], up[divided] = _divided_floor(a[divided], -s[divided])
        floor[~divided], up[~divided] = _scaled_floor(a[~divided], s[~divided])
        return floor, up
    b = _POW10[s]
    hi = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl  # a b = hi + lo exactly
    f = np.floor(hi)
    frac = hi - f
    # a fractional hi outweighs |lo| <= ulp(hi)/2, so lo moves the floor of an
    # integral hi only; both sides of each comparison are exact
    g = np.where(frac == 0.0, np.floor(lo), 0.0)
    floor = f.astype(np.int64) + g.astype(np.int64)
    half = (g + 0.5) - frac  # the lo at which a 10^s sits halfway up from floor
    return floor, (lo > half) | ((lo == half) & (floor & 1 == 1))


def _divided_floor(a, k):
    """_scaled_floor for s = -k, 1 <= k <= 18: a = n + f with n its int64
    floor, so a / 10^k = q + (r + f) / 10^k for q, r = divmod(n, 10^k), and
    it is halfway to q + 1 when r = 10^k / 2 and f = 0."""
    whole = np.floor(a)
    q, r = np.divmod(whole.astype(np.int64), _INT10[k])
    half = _INT10[k] // 2
    return q, (r > half) | ((r == half) & ((whole != a) | (q & 1 == 1)))


def _exact_range(x, precision: int):
    """Where _format_g's digits come from numpy, not Python's '%':
    10^(p-22) <= |x| < 2^63, so no zero, infinity or nan."""
    a = np.abs(x)
    return (a >= 10.0 ** (precision - 22)) & (a < 2.0**63)


def _format_g(x, precision: int):
    """'%.{precision}g' % v of each value of x, byte for byte, as the rows of
    a (x.size, precision + 7) uint8 array: each text starts at its row's
    first byte, or later, with zero bytes filling every gap.  Dropping a
    row's zero bytes gives its text."""
    p = precision
    x = np.ravel(x)
    slots = np.zeros((len(x), p + 7), np.uint8)
    inside = _exact_range(x, p)
    exact, rest = np.flatnonzero(inside), np.flatnonzero(~inside)
    if len(rest):
        # one '%' for all of them, each left-justified in its slot by spaces
        text = (f"%-{p + 7}.{p}g" * len(rest) % tuple(x[rest].tolist())).encode("ascii")
        text = np.frombuffer(text, np.uint8).reshape(len(rest), p + 7)
        slots[rest] = np.where(text == ord(" "), 0, text)
    a = np.abs(x[exact])
    exponent = np.floor(np.log10(a)).astype(np.int64)
    # log10 may be off by one next to a power of ten: the exact floor shows it
    np.clip(exponent, p - 23, 18, out=exponent)
    floor, up = _scaled_floor(a, p - 1 - exponent)
    off = (floor >= _INT10[p]).astype(np.int64) - (floor < _INT10[p - 1])
    if off.any():
        exponent += off
        floor, up = _scaled_floor(a, p - 1 - exponent)
    digits = floor + up
    carry = digits == _INT10[p]  # rounded up to 10^p
    digits[carry] = _INT10[p - 1]
    exponent += carry
    # sorted by exponent, each exponent's values are one slice of rows whose
    # digits, point and exponent text sit in the same columns
    order = np.argsort(exponent.astype(np.int8), kind="stable")  # a radix sort
    exponent, digits, rows = exponent[order], digits[order], exact[order]
    quads = np.empty((len(rows), 5), np.uint32)  # 20 digits, D's the last p
    for q in range(4, -1, -1):
        digits, quad = np.divmod(digits, 10000)
        quads[:, q] = _QUADS.take(quad)
    text = quads.view(np.uint8)[:, 20 - p:]
    # the digits kept: up to the last nonzero one, but all before the point;
    # a point with no digit after it goes too
    fixed = (exponent >= -4) & (exponent < p)
    first_fraction = np.where(fixed, np.maximum(exponent + 1, 0), 1)
    end = np.maximum(p - np.argmax(text[:, ::-1] != ord("0"), axis=1), first_fraction)
    quads &= _KEEP.take(20 - p + end, axis=0)
    point = np.where(end > first_fraction, ord("."), 0).astype(np.uint8)
    out = np.zeros((len(rows), p + 7), np.uint8)
    out[:, 0] = np.where(x[rows] < 0, ord("-"), 0)
    starts = np.flatnonzero(np.diff(exponent, prepend=-99))  # below any exponent
    for i, j, k in zip(starts.tolist(), [*starts[1:].tolist(), len(rows)], exponent[starts].tolist()):
        if k < -4 or k >= p:  # d.ddde+XX
            out[i:j, 1] = text[i:j, 0]
            out[i:j, 2] = point[i:j]
            out[i:j, 3:p + 2] = text[i:j, 1:]
            out[i:j, p + 2:p + 6] = np.frombuffer(b"e%+03d" % k, np.uint8)
        elif k >= 0:  # ddd.ddd
            out[i:j, 1:k + 2] = text[i:j, :k + 1]
            out[i:j, k + 2] = point[i:j]
            out[i:j, k + 3:p + 2] = text[i:j, k + 1:]
        else:  # 0.000ddd
            out[i:j, 1:2 - k] = np.frombuffer(b"0." + b"0" * (-k - 1), np.uint8)
            out[i:j, 2 - k:2 - k + p] = text[i:j]
    slots[rows] = out
    return slots


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
    # ten times the Picard stop tol * sup|u0|; an energy -1/2 Int w.g moves by
    # at most that times 1/2 Int |g|, so each floor scales with its column
    floor = 10.0 * config["discretization"]["tol"] * background.trace.sup_norm()
    g = background.g
    half_load = 0.5 * float(g.mesh.weights @ np.hypot(*g.values.T))
    slopes = {}
    for key, scale in (("sup_w", 1.0), ("sup_mismatch", 1.0), ("energy_mismatch", half_load)):
        fit = fit_log_slope(eps, np.array([r[key] for r in records]), noise_floor=floor * scale)
        slopes[key] = {"slope": fit.slope, "n_points_used": fit.n_points, "note": fit.note}
    columns = ["eps", "sup_w", "sup_mismatch", "energy_diff", "energy_formula", "energy_mismatch"]
    return {
        "convergence.csv": [_records_csv(records, columns, config["output"]["precision"])],
        "slopes.json": [_json(slopes)],
    }


# td-map makes the text of this many map rows (kept points x angles), or of
# one point if it has more, at a time
_MAP_ROWS = 1024


def _text_slots(texts: list, end: str):
    """Each text followed by end, as the rows of a zero-padded uint8 array."""
    data = np.array([(text + end).encode("ascii") for text in texts])
    return data.view(np.uint8).reshape(len(texts), -1)


def cmd_td_map(background, config: dict, grid: tuple, warnings: list) -> dict:
    coords, keep = grid
    ys, xs = np.nonzero(keep)  # the kept points in grid-row order
    n_angles = config["td_map"]["n_angles"]
    angles = np.arange(n_angles) * (180.0 / n_angles)
    precision = config["output"]["precision"]
    points = np.column_stack([coords[xs], coords[ys]])
    sif, td, best = orientation_scan(background, points, np.deg2rad(angles))
    values = np.stack([sif.k1, sif.k2, td], axis=-1)  # (p, n_angles, 3)
    # each row is "x,y,angle," + "K1,K2,td," + best angle: the grid
    # coordinates and the angles are formatted once, here
    g = f"%.{precision}g"
    coord_text = [g % c for c in coords.tolist()]
    angle_text = [g % a for a in angles.tolist()]
    coord = _text_slots(coord_text, ",")
    angle, best_angle = _text_slots(angle_text, ","), _text_slots(angle_text, "\n")
    angle_fields = [a + f",{g},{g},{g}," for a in angle_text]
    width = precision + 7  # of a _format_g slot
    lead = 2 * coord.shape[1] + angle.shape[1]
    tail = lead + 3 * (width + 1)

    def slot_rows(part):
        # the chunk's rows as one uint8 array of zero-padded byte slots
        n = len(td[part])
        rows = np.zeros((n, n_angles, tail + best_angle.shape[1]), np.uint8)
        rows[..., :coord.shape[1]] = coord[xs[part], None]
        rows[..., coord.shape[1]:2 * coord.shape[1]] = coord[ys[part], None]
        rows[..., 2 * coord.shape[1]:lead] = angle
        cells = rows[..., lead:tail].reshape(n, n_angles, 3, width + 1)  # a view
        cells[..., :width] = _format_g(values[part], precision).reshape(n, n_angles, 3, width)
        cells[..., width] = ord(",")
        rows[..., tail:] = best_angle[best[part], None]
        return rows[rows != 0].tobytes().decode("ascii")

    def percent_rows(part):
        # one '%' per point, each value a Python float
        text = []
        for x, y, b, v in zip(xs[part].tolist(), ys[part].tolist(), best[part].tolist(), values[part]):
            prefix = coord_text[x] + "," + coord_text[y] + ","
            suffix = angle_text[b] + "\n"
            text.append(prefix + (suffix + prefix).join(angle_fields) % tuple(v.ravel().tolist()) + suffix)
        return "".join(text)

    def blocks():
        # the numbers are all computed above; only their text is made here,
        # a chunk of whole points at a time, as main writes it.  A chunk
        # whose values mostly lie outside _format_g's exact range (as in
        # units where |K| >= 2^63, or |td| < 1e-5 at precision 17) would
        # pay for Python's '%' and the byte slots both, so it takes '%' alone
        yield "x,y,angle_deg,K1,K2,td,min_angle_deg\n"
        step = max(1, _MAP_ROWS // n_angles)
        for start in range(0, len(td), step):
            part = slice(start, start + step)
            exact = np.count_nonzero(_exact_range(values[part], precision))
            yield slot_rows(part) if 2 * exact >= values[part].size else percent_rows(part)

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
            # input the schema accepts but that this machine cannot hold; td-map's
            # values also grow with n_grid^2 x n_angles
            sizes = {"n_boundary": n}
            if args.command == "td-map":
                sizes.update((key, config["td_map"][key]) for key in ("n_grid", "n_angles"))
            given = ", ".join(f"{key} {value}" for key, value in sizes.items())
            raise SolveFailed(f"out of memory with {given}; lower {' or '.join(sizes)}") from None
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
