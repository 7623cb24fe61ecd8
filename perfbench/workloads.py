"""The four benchmark workloads: seeded inputs, set-up, the timed op and its checks.

Every program call goes through an attribute of the `crackbem` package or of
`crackbem.cli`, looked up at call time, so the tracer's wrappers see it.
Inputs come only from the seed: `setup` draws a pool of op inputs and op i
uses pool[i % len(pool)].  `check` and `run_checks` run outside the timed
region and outside the tracer.
"""

from __future__ import annotations

import contextlib
import filecmp
import importlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

SWEEP_LENGTHS = (0.2, 0.1, 0.05, 0.025)


def random_stress(rng) -> np.ndarray:
    """Symmetric stress with eigenvalues of magnitude in [0.5, 1.5], random signs."""
    theta = rng.uniform(0.0, np.pi)
    eig = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    sigma = rot @ np.diag(eig) @ rot.T
    return 0.5 * (sigma + sigma.T)


def closed_form_sif(sigma, theta):
    """K1, K2 of a constant stress for crack tangents at angles theta (radians)."""
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    n = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    t = n @ np.asarray(sigma).T
    return np.sum(t * n, axis=-1), np.sum(t * e, axis=-1)


def read_csv(path: Path, header: list) -> np.ndarray:
    """Numeric body of a CSV whose first line must equal `header`."""
    with open(path, encoding="utf-8") as f:
        first = f.readline().strip()
    if first != ",".join(header):
        raise ValueError(f"{path.name}: header {first!r}, expected {','.join(header)!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """Base class; subclasses set `name` and implement setup/op/check."""

    name = ""

    def __init__(self, cb, seed: int, root: Path, out_dir: Path):
        self.cb = cb
        self.cli = importlib.import_module("crackbem.cli")
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.pool = []
        self.bytes_written = 0
        self.grid_kept = 0
        self.grid_total = 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None when the op's outputs are correct, else a message."""
        raise NotImplementedError

    def run_checks(self) -> tuple[dict, list]:
        """Once-per-run untimed checks: (recorded fields, failure messages)."""
        return {}, []

    def run_cli(self, argv: list) -> tuple[int, str]:
        """cli.main in-process with its stdout and stderr captured."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv)
        return code, sink.getvalue()

    def layer_counts(self) -> dict:
        kept = self.grid_kept / self.grid_total if self.grid_total else 0.0
        return {
            "cli.bytes_written": (self.bytes_written, "B"),
            "cli.td_map.kept_share": (kept, "share"),
        }

    def fresh_dir(self, name: str) -> Path:
        path = self.out_dir / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def count_bytes(self, path: Path) -> None:
        self.bytes_written += sum(p.stat().st_size for p in path.iterdir())


class CrackSweep(Workload):
    """Library path of the quick start: many cracks on one disk background."""

    name = "crack-sweep"
    pool_size = 2048

    def setup(self):
        cb = self.cb
        rng = np.random.default_rng(self.seed)
        self.mat = cb.LameParams(1.0, 1.0)
        mesh = cb.build_mesh(cb.Disk(radius=1.0), 256)
        self.solver = cb.BoundarySolver(mesh, self.mat)
        self.g = cb.BoundaryField(mesh, mesh.normals @ random_stress(rng).T)
        self.background = self.solver.solve_background(self.g)
        self.pool = []
        for i in range(self.pool_size):
            length = SWEEP_LENGTHS[i % len(SWEEP_LENGTHS)]
            d_min = max(2.0 * length, 0.15)
            rho = (1.0 - d_min) * np.sqrt(rng.uniform())
            phi, angle = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi)
            crack = cb.CrackSegment(
                center=(rho * np.cos(phi), rho * np.sin(phi)),
                direction=(np.cos(angle), np.sin(angle)),
                length=length,
            )
            self.pool.append((crack, 1.0 - rho))

    def op(self, i):
        cb = self.cb
        crack, _ = self.pool[i % len(self.pool)]
        u0 = self.background
        solution = cb.solve_cracked(u0, crack)
        lead = cb.neumann_perturbation(u0, crack)
        sif = cb.stress_intensity(u0, crack)
        diff = cb.potential_energy_difference(self.g, solution.trace_values(), u0.trace)
        formula = cb.energy_asymptotic(crack, sif, self.mat)
        return solution.w.values, lead, diff, formula

    def check(self, i, result):
        w, lead, diff, formula = result
        crack, d = self.pool[i % len(self.pool)]
        bound = (crack.length / d) ** 2
        rel_w = float(np.max(np.abs(w - lead)) / np.max(np.abs(lead)))
        rel_energy = abs(diff - formula) / abs(formula)
        if not (rel_w <= bound and rel_energy <= bound):
            return (
                f"crack {i}: remainders {rel_w:.3g} (trace), {rel_energy:.3g} (energy) "
                f"exceed (L/d)^2 = {bound:.3g}"
            )
        return None

    def run_checks(self):
        """Slopes of the fixed tilted sweep, gated by criteria 5, 6 and 9."""
        cb = self.cb
        mesh = self.solver.mesh
        g = cb.BoundaryField(mesh, mesh.normals @ np.diag([1.0, 0.0]).T)
        u0 = self.solver.solve_background(g)
        rows = []
        for eps in SWEEP_LENGTHS:
            crack = cb.CrackSegment(
                center=(0.3, 0.0), direction=(np.sqrt(0.5), -np.sqrt(0.5)), length=eps
            )
            solution = cb.solve_cracked(u0, crack)
            lead = cb.neumann_perturbation(u0, crack)
            diff = cb.potential_energy_difference(g, solution.trace_values(), u0.trace)
            formula = cb.energy_asymptotic(crack, cb.stress_intensity(u0, crack), self.mat)
            rows.append(
                (solution.w.sup_norm(), float(np.max(np.abs(solution.w.values - lead))),
                 abs(diff - formula))
            )
        sup_w, mismatch, energy = np.array(rows).T
        eps = np.array(SWEEP_LENGTHS)
        slopes = {
            "slope_sup_w": cb.fit_log_slope(eps, sup_w).slope,
            "slope_sup_mismatch": cb.fit_log_slope(eps, mismatch).slope,
            "slope_energy_mismatch": cb.fit_log_slope(eps, energy, noise_floor=1e-13).slope,
        }
        gates = {
            "slope_sup_w": lambda s: 1.9 <= s <= 2.1,
            "slope_sup_mismatch": lambda s: s >= 3.7,
            "slope_energy_mismatch": lambda s: s >= 3.7,
        }
        failures = [
            f"accuracy: {key} = {slopes[key]} outside its criterion bound"
            for key, ok in gates.items()
            if slopes[key] is None or not ok(slopes[key])
        ]
        return {"accuracy": slopes}, failures


class TdMap(Workload):
    """CLI td-map on the disk demo config with a seeded constant stress per op."""

    name = "td-map"
    pool_size = 32
    n_grid, n_angles = 40, 36

    def setup(self):
        base = json.loads(
            (self.root / "demos/configs/disk_uniaxial.json").read_text(encoding="utf-8")
        )
        base["td_map"].update(n_grid=self.n_grid, n_angles=self.n_angles)
        self.margin = base["td_map"]["margin"]
        self.mat = self.cb.LameParams(base["material"]["lambda"], base["material"]["mu"])
        rng = np.random.default_rng(self.seed)
        config_dir = self.fresh_dir("configs")
        config_dir.mkdir(parents=True)
        self.pool = []
        for i in range(self.pool_size):
            sigma = random_stress(rng)
            base["load"]["sigma"] = sigma.tolist()
            path = config_dir / f"td_{i}.json"
            path.write_text(json.dumps(base), encoding="utf-8")
            self.pool.append((path, sigma))

    def op(self, i):
        path, _ = self.pool[i % len(self.pool)]
        out = self.fresh_dir("td")
        code, _ = self.run_cli(["td-map", "--config", str(path), "--out", str(out)])
        return code, out

    def check(self, i, result):
        code, out = result
        if code != 0:
            return f"td-map exit code {code}"
        _, sigma = self.pool[i % len(self.pool)]
        rows = read_csv(out / "td_map.csv", ["x", "y", "angle_deg", "K1", "K2", "td", "min_angle_deg"])
        self.count_bytes(out)
        blocks = rows.reshape(-1, self.n_angles, 7)
        self.grid_kept += blocks.shape[0]
        self.grid_total += self.n_grid**2
        step = 180.0 / self.n_angles
        k1, k2 = closed_form_sif(sigma, np.deg2rad(rows[:, 2]))
        td = -(k1**2 + k2**2) / (4.0 * self.mat.E)
        scale = float(np.max(np.abs(sigma)))
        worst = max(
            float(np.max(np.abs(rows[:, 3] - k1))),
            float(np.max(np.abs(rows[:, 4] - k2))),
            float(np.max(np.abs(rows[:, 5] - td))) * self.mat.E / scale,
        )
        td_blocks = td.reshape(-1, self.n_angles)
        best = np.rint(blocks[:, 0, 6] / step).astype(int)
        best_gap = float(np.max(td_blocks[np.arange(len(best)), best] - td_blocks.min(axis=1)))
        layout = (
            np.all(blocks[:, :, :2] == blocks[:, :1, :2])
            and np.all(blocks[:, :, 2] == np.arange(self.n_angles) * step)
            and np.all(blocks[:, :, 6] == blocks[:, :1, 6])
            and np.all(np.hypot(blocks[:, 0, 0], blocks[:, 0, 1]) <= 1.0 - self.margin + 1e-3)
        )
        if blocks.shape[0] == 0 or not layout:
            return "td_map.csv layout differs from one block of angles per kept grid point"
        if worst > 1e-10 * scale or best_gap > 1e-10 * scale**2 / self.mat.E:
            return f"td-map off the closed form by {worst:.3g}; best-angle gap {best_gap:.3g}"
        return None


class ShapeScan(Workload):
    """Crack-free solves at n_boundary=1024 on seeded shapes and materials."""

    name = "shape-scan"
    pool_size = 32
    n_boundary = 1024

    def setup(self):
        cb = self.cb
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for i in range(self.pool_size):
            if i % 2 == 0:
                a, b = rng.uniform(0.9, 1.4), rng.uniform(0.6, 1.0)
                shape, r_min = cb.Ellipse(a=a, b=b), min(a, b)
            else:
                # modes 2..5 only: no shift of the centroid, radius >= 0.76
                cos_c = (0.0, *rng.uniform(-0.03, 0.03, 4))
                sin_c = (0.0, *rng.uniform(-0.03, 0.03, 4))
                shape, r_min = cb.FourierStar(r0=1.0, cos_coeffs=cos_c, sin_coeffs=sin_c), 0.76
            mat = cb.LameParams(rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0))
            rho = 0.3 * r_min * np.sqrt(rng.uniform())
            phi, angle = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi)
            crack = cb.CrackSegment(
                center=(rho * np.cos(phi), rho * np.sin(phi)),
                direction=(np.cos(angle), np.sin(angle)),
                length=0.05,
            )
            self.pool.append((shape, mat, random_stress(rng), crack))

    def op(self, i):
        cb = self.cb
        shape, mat, sigma, crack = self.pool[i % len(self.pool)]
        mesh = cb.build_mesh(shape, self.n_boundary)
        solver = cb.BoundarySolver(mesh, mat)
        u0 = solver.solve_background(cb.BoundaryField(mesh, mesh.normals @ sigma.T))
        lead = cb.neumann_perturbation(u0, crack)
        sif = cb.stress_intensity(u0, crack)
        return mesh, u0.trace, lead, sif

    def check(self, i, result):
        cb = self.cb
        mesh, trace, lead, sif = result
        _, mat, sigma, crack = self.pool[i % len(self.pool)]
        # plane strain: sigma = lam tr(eps) I + 2 mu eps
        strain = (sigma - mat.lam * np.trace(sigma) / (2.0 * (mat.lam + mat.mu)) * np.eye(2)) / (
            2.0 * mat.mu
        )
        exact = cb.project_off_rigid_motions(cb.BoundaryField(mesh, mesh.points @ strain.T))
        err = float(np.max(np.abs(cb.project_off_rigid_motions(trace).values - exact.values)))
        angle = np.arctan2(crack.direction[1], crack.direction[0])
        k1, k2 = closed_form_sif(sigma, angle)
        sif_err = max(abs(sif.k1 - k1), abs(sif.k2 - k2))
        if err > 1e-8 or sif_err > 1e-8 or not np.all(np.isfinite(lead)):
            return f"shape {i}: trace error {err:.3g}, SIF error {sif_err:.3g}"
        return None


class CliCommands(Workload):
    """solve / convergence / energy through cli.main on the three demo configs."""

    name = "cli-commands"
    pool_size = 180
    commands = ("solve", "convergence", "energy")
    configs = ("disk_uniaxial", "ellipse_shear", "star_fourier_load")

    def setup(self):
        cb = self.cb
        rng = np.random.default_rng(self.seed)
        bases = []
        for name in self.configs:
            config = json.loads(
                (self.root / f"demos/configs/{name}.json").read_text(encoding="utf-8")
            )
            mesh = cb.build_mesh(self._shape(config["geometry"]), config["discretization"]["n_boundary"])
            mat = cb.LameParams(config["material"]["lambda"], config["material"]["mu"])
            u0 = cb.BoundarySolver(mesh, mat).solve_background(self._load(config["load"], mesh))
            bases.append((config, mesh, u0))
        config_dir = self.fresh_dir("configs")
        config_dir.mkdir(parents=True)
        self.pool = []
        for i in range(self.pool_size):
            config, mesh, u0 = bases[(i // len(self.commands)) % len(bases)]
            lengths = config["crack"]["lengths"]
            r_safe = float(np.min(np.hypot(*mesh.points.T))) - 2.0 * max(lengths)
            rho = r_safe * np.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * np.pi)
            center = np.array([rho * np.cos(phi), rho * np.sin(phi)])
            stress = u0.stress(center)[0]
            norm2 = float(np.max(np.linalg.eigvalsh(stress) ** 2))
            while True:  # keep the crack-line traction away from zero
                angle = rng.uniform(0.0, np.pi)
                t = stress @ np.array([-np.sin(angle), np.cos(angle)])
                if t @ t >= 0.25 * norm2:
                    break
            config = json.loads(json.dumps(config))
            config["crack"].update(center=center.tolist(), angle_degrees=float(np.degrees(angle)))
            path = config_dir / f"cli_{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            command = self.commands[i % len(self.commands)]
            self.pool.append((command, path, config, mesh.distance_to(center)))

    def _shape(self, geometry):
        cb = self.cb
        if geometry["kind"] == "disk":
            return cb.Disk(radius=geometry["radius"])
        if geometry["kind"] == "ellipse":
            return cb.Ellipse(a=geometry["a"], b=geometry["b"])
        return cb.FourierStar(geometry["r0"], tuple(geometry["cos"]), tuple(geometry["sin"]))

    def _load(self, load, mesh):
        """Boundary traction of a demo load, as the config format defines it."""
        cb = self.cb
        if load["kind"] == "constant-stress":
            return cb.BoundaryField(mesh, mesh.normals @ np.asarray(load["sigma"]).T)
        values = np.zeros((mesh.n, 2))
        for m, coeff in enumerate(load.get("cos", [])):
            values += np.cos(m * mesh.params)[:, None] * np.asarray(coeff)
        for m, coeff in enumerate(load.get("sin", []), start=1):
            values += np.sin(m * mesh.params)[:, None] * np.asarray(coeff)
        return cb.project_off_rigid_motions(cb.BoundaryField(mesh, values))

    def op(self, i):
        command, path, _, _ = self.pool[i % len(self.pool)]
        out = self.fresh_dir("cli")
        code, _ = self.run_cli([command, "--config", str(path), "--out", str(out)])
        return code, out

    def check(self, i, result):
        code, out = result
        command, _, config, d = self.pool[i % len(self.pool)]
        if code != 0:
            return f"{command} exit code {code}"
        self.count_bytes(out)
        lengths = np.array(config["crack"]["lengths"])
        bound = (lengths / d) ** 2
        if command == "solve":
            return self._check_solve(out, config, lengths, bound)
        if command == "convergence":
            rows = read_csv(
                out / "convergence.csv",
                ["eps", "sup_w", "sup_mismatch", "energy_diff", "energy_formula", "energy_mismatch"],
            )
            slopes = json.loads((out / "slopes.json").read_text(encoding="utf-8"))
            if set(slopes) != {"sup_w", "sup_mismatch", "energy_mismatch"}:
                return "slopes.json keys differ"
            # |w - lead| / |lead| <= mismatch / (sup_w - mismatch)
            rel_w = rows[:, 2] / (rows[:, 1] - rows[:, 2])
        else:
            rows = read_csv(
                out / "energy.csv",
                ["eps", "K1", "K2", "energy_diff", "energy_formula", "energy_mismatch"],
            )
            rel_w = np.zeros(len(rows))
        rel_energy = rows[:, 5] / np.abs(rows[:, 4])
        if not np.array_equal(rows[:, 0], lengths):
            return f"{command}: rows do not follow crack.lengths"
        if not (np.all(rel_w <= bound) and np.all(rel_energy <= bound)):
            return f"{command}: remainders exceed (L/d)^2 at d = {d:.3g}"
        return None

    def _check_solve(self, out, config, lengths, bound):
        disc = config["discretization"]
        n = disc["n_boundary"]
        columns = ["node_param", "x", "y", "u1", "u2"]
        u0 = read_csv(out / "trace_u0.csv", columns)
        diagnostics = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        sup_w = []
        for length in lengths:
            tag = f"{length:g}"
            trace = read_csv(out / f"trace_ueps_{tag}.csv", columns)
            opening = read_csv(out / f"crack_opening_{tag}.csv", ["x1", "phi1", "phi2"])
            if trace.shape != (n, 5) or u0.shape != (n, 5) or len(opening) != disc.get("n_cheb_modes", 32):
                return f"solve: unexpected row counts for L={tag}"
            sup_w.append(float(np.max(np.abs(trace[:, 3:] - u0[:, 3:]))))
            iterations = diagnostics["per_length"][tag]["iterations"]
            if not 1 <= iterations <= disc.get("max_iterations", 50):
                return f"solve: {iterations} Picard sweeps at L={tag}"
        # order 2: sup|w| / L^2 agrees between lengths up to the O((L/d)^2) remainders
        scaled = np.array(sup_w) / lengths**2
        spread = np.abs(scaled / scaled[-1] - 1.0)
        if not np.all(spread <= bound + bound[-1]):
            return "solve: cracked traces do not scale as L^2"
        return None

    def run_checks(self):
        """--threads 1 and --threads 2 must write byte-identical files."""
        failures = []
        for command, path, _, _ in self.pool[: len(self.commands)]:
            outs = []
            for threads in ("1", "2"):
                out = self.fresh_dir(f"threads{threads}")
                code, _ = self.run_cli([command, "--config", str(path), "--out", str(out), "--threads", threads])
                if code != 0:
                    failures.append(f"threads check: {command} --threads {threads} exit code {code}")
                outs.append(out)
            if not failures:
                names = sorted(p.name for p in outs[0].iterdir())
                same = names == sorted(p.name for p in outs[1].iterdir()) and all(
                    filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False) for name in names
                )
                if not same:
                    failures.append(f"threads check: {command} outputs differ between 1 and 2 threads")
        return {"threads_identical": not failures}, failures


WORKLOADS = {w.name: w for w in (CrackSweep, TdMap, ShapeScan, CliCommands)}
