"""Synthetic PDE trajectory generation and dataset files.

Two desk-scale solvers stand in for the usual benchmark data:

* a FitzHugh-Nagumo diffusion-reaction system (2 channels, explicit Euler,
  periodic boundaries), and
* 2D incompressible Navier-Stokes in vorticity form (1 channel,
  pseudo-spectral with 2/3 dealiasing, Crank-Nicolson viscosity, explicit
  advection, fixed sinusoidal forcing).

Both integrate in float64 and store frames as float32, which is also the
on-disk precision.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DATA_MAGIC = b"POBD"
DATA_VERSION = 1

NAVIER_STOKES = "navier_stokes"
DIFFUSION_REACTION = "diffusion_reaction"
_KIND_CODES = {NAVIER_STOKES: 1, DIFFUSION_REACTION: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

DIVERGENCE_LIMIT = 1e3

# FitzHugh-Nagumo diffusivities and offset
DR_D_U = 1e-3
DR_D_V = 5e-3
DR_OFFSET_K = 5e-3


class SolverDiverged(RuntimeError):
    def __init__(self, kind: str, step: int):
        self.step = step
        super().__init__(f"{kind} solver diverged at step {step}")


class DataFormatError(IOError):
    pass


@dataclass
class GridGeometry:
    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ValueError(f"grid extents must be >= 1, got {self.h}x{self.w}")

    def coords(self) -> np.ndarray:
        """(H, W, 2) normalized positions in [0,1)^2, uniform spacing."""
        ys = np.arange(self.h, dtype=np.float64) / self.h
        xs = np.arange(self.w, dtype=np.float64) / self.w
        yy, xx = np.meshgrid(ys, xs, indexing="ij")
        return np.stack([xx, yy], axis=-1)


@dataclass
class Trajectory:
    frames: np.ndarray          # (T_all, H, W, C) float32
    dt: float
    pde_kind: str
    seed: int

    @property
    def t_all(self) -> int:
        return self.frames.shape[0]


def _band_limited_noise(h: int, w: int, seed: int, k_cut: int = 8,
                        amplitude: float = 1.0, channels: int = 1) -> np.ndarray:
    """Low-pass filtered white noise, zero mean, peak-normalized."""
    rng = np.random.default_rng(seed)
    ky = np.fft.fftfreq(h, d=1.0 / h)
    kx = np.fft.fftfreq(w, d=1.0 / w)
    keep = (np.abs(ky)[:, None] <= k_cut) & (np.abs(kx)[None, :] <= k_cut)
    out = np.empty((h, w, channels), dtype=np.float64)
    for c in range(channels):
        white = rng.standard_normal((h, w))
        low = np.fft.ifft2(np.fft.fft2(white) * keep).real
        low -= low.mean()
        peak = np.abs(low).max()
        out[..., c] = amplitude * low / (peak if peak > 0 else 1.0)
    return out


def _check_dt(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")


def _check_finite(u: np.ndarray, kind: str, step: int) -> None:
    if not np.all(np.isfinite(u)) or np.abs(u).max() > DIVERGENCE_LIMIT:
        raise SolverDiverged(kind, step)


def _laplacian_periodic(u: np.ndarray, h_sq: float) -> np.ndarray:
    return (np.roll(u, 1, 0) + np.roll(u, -1, 0) +
            np.roll(u, 1, 1) + np.roll(u, -1, 1) - 4.0 * u) / h_sq


def solve_diffusion_reaction(grid: GridGeometry, seed: int, t_steps: int,
                             dt: float, reaction: bool = True,
                             initial: np.ndarray | None = None,
                             dtype=np.float32) -> Trajectory:
    """FitzHugh-Nagumo dynamics on a periodic grid.

        du/dt = DR_D_U lap(u) + u - u^3 - DR_OFFSET_K - v
        dv/dt = DR_D_V lap(v) + u - v

    Explicit Euler with internal substepping to satisfy the diffusion
    stability bound dt <= h^2 / (4 max(DR_D_U, DR_D_V)).
    """
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    _check_dt(dt)
    hx = 1.0 / grid.w
    h_sq = hx * hx
    dt_stable = h_sq / (4.0 * max(DR_D_U, DR_D_V))
    substeps = max(1, int(np.ceil(dt / dt_stable)))
    sub_dt = dt / substeps

    if initial is None:
        uv = _band_limited_noise(grid.h, grid.w, seed, k_cut=6,
                                 amplitude=0.5, channels=2)
    else:
        uv = np.array(initial, dtype=np.float64, copy=True)
    u, v = uv[..., 0], uv[..., 1]

    frames = np.empty((t_steps, grid.h, grid.w, 2), dtype=dtype)
    frames[0, ..., 0] = u
    frames[0, ..., 1] = v
    for t in range(1, t_steps):
        for _ in range(substeps):
            lap_u = _laplacian_periodic(u, h_sq)
            lap_v = _laplacian_periodic(v, h_sq)
            if reaction:
                du = DR_D_U * lap_u + u - u ** 3 - DR_OFFSET_K - v
                dv = DR_D_V * lap_v + u - v
            else:
                du = DR_D_U * lap_u
                dv = DR_D_V * lap_v
            u = u + sub_dt * du
            v = v + sub_dt * dv
        _check_finite(u, DIFFUSION_REACTION, t)
        _check_finite(v, DIFFUSION_REACTION, t)
        frames[t, ..., 0] = u
        frames[t, ..., 1] = v
    return Trajectory(frames, dt, DIFFUSION_REACTION, seed)


def default_forcing(grid: GridGeometry, amplitude: float = 0.1) -> np.ndarray:
    xy = grid.coords()
    s = xy[..., 0] + xy[..., 1]
    return amplitude * (np.sin(2 * np.pi * s) + np.cos(2 * np.pi * s))


def _spectral_operators(h: int, w: int):
    """Angular wavenumbers ky (h, 1) and kx (1, w) on the periodic unit square,
    |k|^2, and the inverse Laplacian symbol 1/|k|^2 (0 for the mean mode)."""
    ky = 2 * np.pi * np.fft.fftfreq(h, d=1.0 / h)[:, None]
    kx = 2 * np.pi * np.fft.fftfreq(w, d=1.0 / w)[None, :]
    k_sq = kx ** 2 + ky ** 2
    k_sq_inv = np.where(k_sq > 0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
    return ky, kx, k_sq, k_sq_inv


def solve_navier_stokes(grid: GridGeometry, seed: int, t_steps: int, dt: float,
                        viscosity: float = 1e-3, forcing_amplitude: float = 0.1,
                        advection: bool = True, substeps: int | None = None,
                        initial_vorticity: np.ndarray | None = None,
                        dtype=np.float32) -> Trajectory:
    """2D incompressible flow in vorticity form on the periodic unit square.

    Pseudo-spectral: stream function from the vorticity Poisson solve,
    advection formed in physical space from 2/3-dealiased spectra, viscous
    term Crank-Nicolson, forcing fixed in time.
    """
    h, w = grid.h, grid.w
    if h & (h - 1) or w & (w - 1):
        raise ValueError("grid extents must be powers of two for the spectral solver")
    if viscosity <= 0:
        raise ValueError("viscosity must be positive")
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    _check_dt(dt)

    ky, kx, k_sq, k_sq_inv = _spectral_operators(h, w)
    kmax_y = (2 * np.pi) * (h // 2)
    kmax_x = (2 * np.pi) * (w // 2)
    dealias = (np.abs(ky) < (2.0 / 3.0) * kmax_y) & (np.abs(kx) < (2.0 / 3.0) * kmax_x)

    if substeps is None:
        substeps = max(1, int(np.ceil(dt / 5e-3)))
    sub_dt = dt / substeps

    if initial_vorticity is None:
        omega = _band_limited_noise(h, w, seed, k_cut=6, amplitude=2.0)[..., 0]
    else:
        omega = np.array(initial_vorticity, dtype=np.float64, copy=True)
    f_hat = np.fft.fft2(default_forcing(grid, forcing_amplitude)) \
        if forcing_amplitude != 0.0 else None

    omega_hat = np.fft.fft2(omega)
    visc_minus = 1.0 - 0.5 * sub_dt * viscosity * k_sq
    visc_plus = 1.0 + 0.5 * sub_dt * viscosity * k_sq

    def advection_hat(w_hat):
        wd = w_hat * dealias
        psi_hat = wd * k_sq_inv
        u = np.fft.ifft2(1j * ky * psi_hat).real
        v = np.fft.ifft2(-1j * kx * psi_hat).real
        wx = np.fft.ifft2(1j * kx * wd).real
        wy = np.fft.ifft2(1j * ky * wd).real
        return np.fft.fft2(-(u * wx + v * wy))

    frames = np.empty((t_steps, h, w, 1), dtype=dtype)
    frames[0, ..., 0] = np.fft.ifft2(omega_hat).real
    for t in range(1, t_steps):
        for _ in range(substeps):
            rhs = omega_hat * visc_minus
            if advection:
                rhs = rhs + sub_dt * advection_hat(omega_hat)
            if f_hat is not None:
                rhs = rhs + sub_dt * f_hat
            omega_hat = rhs / visc_plus
        field_t = np.fft.ifft2(omega_hat).real
        _check_finite(field_t, NAVIER_STOKES, t)
        frames[t, ..., 0] = field_t
    return Trajectory(frames, dt, NAVIER_STOKES, seed)


def kinetic_energy(omega: np.ndarray) -> float:
    """0.5 * mean |u|^2 of the velocity recovered from vorticity."""
    ky, kx, _, k_sq_inv = _spectral_operators(*omega.shape)
    psi_hat = np.fft.fft2(omega) * k_sq_inv
    u = np.fft.ifft2(1j * ky * psi_hat).real
    v = np.fft.ifft2(-1j * kx * psi_hat).real
    return float(0.5 * np.mean(u * u + v * v))


# -- trajectory files -----------------------------------------------------------
# magic "POBD", version u32=1, pde_kind u8, T_all u16, H u16, W u16, C u8,
# seed u64, then frames as little-endian float32 in (t, y, x, c) order.

_DATA_HEADER = struct.Struct("<4sIBHHHBQ")
_FIELD_BITS = {"T_all": 16, "H": 16, "W": 16, "C": 8, "seed": 64}


def _check_header_fields(where, fields) -> None:
    """Raise ValueError on the first (name, value) pair whose POBD header
    field cannot hold the value."""
    for name, value in fields:
        bits = _FIELD_BITS[name]
        if not 0 <= value < 2 ** bits:
            raise ValueError(f"{where}: {name}={value} does not fit the header's "
                             f"u{bits} field")


def write_trajectory(traj: Trajectory, path) -> None:
    """Write one POBD file; a value the header cannot hold raises ValueError
    before the file is created."""
    t_all, h, w, c = traj.frames.shape
    _check_header_fields(path, [("T_all", t_all), ("H", h), ("W", w), ("C", c),
                                ("seed", traj.seed)])
    head = _DATA_HEADER.pack(DATA_MAGIC, DATA_VERSION, _KIND_CODES[traj.pde_kind],
                             t_all, h, w, c, traj.seed)
    with open(path, "wb") as f:
        f.write(head)
        f.write(np.ascontiguousarray(traj.frames, dtype="<f4").tobytes())


def read_trajectory(path, dt: float = 1.0) -> Trajectory:
    """Read one POBD file; dt is not part of the file (manifest carries it)."""
    with open(path, "rb") as f:
        head = f.read(_DATA_HEADER.size)
        if len(head) < _DATA_HEADER.size:
            raise DataFormatError(f"{path}: truncated header")
        magic, version, kind, t_all, h, w, c, seed = _DATA_HEADER.unpack(head)
        if magic != DATA_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")
        if version != DATA_VERSION:
            raise DataFormatError(
                f"{path}: unsupported version {version} (endianness or format mismatch)")
        if kind not in _KIND_NAMES:
            raise DataFormatError(f"{path}: unknown pde_kind code {kind}")
        n = t_all * h * w * c
        raw = f.read(4 * n)
        if len(raw) < 4 * n:
            raise DataFormatError(f"{path}: truncated frame payload")
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after the frame payload")
        frames = np.frombuffer(raw, dtype="<f4", count=n).reshape(t_all, h, w, c)
    return Trajectory(frames.astype(np.float32), float(dt), _KIND_NAMES[kind], seed)


@dataclass
class DatasetManifest:
    pde_kind: str
    h: int
    w: int
    channels: int
    t_all: int
    dt: float
    files: dict = field(default_factory=dict)    # split -> list of file names
    seeds: dict = field(default_factory=dict)    # split -> list of ints


def write_manifest(m: DatasetManifest, path) -> None:
    lines = [
        f"pde_kind={m.pde_kind}",
        f"h={m.h}", f"w={m.w}", f"channels={m.channels}",
        f"t_all={m.t_all}", f"dt={m.dt!r}",
    ]
    for split in sorted(m.files):
        lines.append(f"{split}_files={','.join(m.files[split])}")
        lines.append(f"{split}_seeds={','.join(str(s) for s in m.seeds.get(split, []))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> DatasetManifest:
    kv = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: bad manifest line {line!r}")
        k, v = line.split("=", 1)
        kv[k] = v
    try:
        m = DatasetManifest(
            pde_kind=kv["pde_kind"], h=int(kv["h"]), w=int(kv["w"]),
            channels=int(kv["channels"]), t_all=int(kv["t_all"]),
            dt=float(kv["dt"]))
        for k, v in kv.items():
            mt = re.fullmatch(r"(\w+)_files", k)
            if mt:
                m.files[mt.group(1)] = [s for s in v.split(",") if s]
            mt = re.fullmatch(r"(\w+)_seeds", k)
            if mt:
                m.seeds[mt.group(1)] = [int(s) for s in v.split(",") if s]
    except KeyError as e:
        raise DataFormatError(f"{path}: manifest missing key {e}") from None
    except ValueError as e:
        raise DataFormatError(f"{path}: bad manifest value: {e}") from None
    return m


def write_dataset(trajs_by_split: dict, out_dir) -> DatasetManifest:
    """Write one POBD file per trajectory plus a manifest.txt."""
    first = next((t for ts in trajs_by_split.values() for t in ts), None)
    if first is None:
        raise ValueError("a dataset needs at least one trajectory")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_all, h, w, c = first.frames.shape
    m = DatasetManifest(first.pde_kind, h, w, c, t_all, first.dt)
    for split, trajs in trajs_by_split.items():
        names, seeds = [], []
        for i, traj in enumerate(trajs):
            name = f"traj_{split}_{i:05d}.pobd"
            write_trajectory(traj, out / name)
            names.append(name)
            seeds.append(traj.seed)
        m.files[split] = names
        m.seeds[split] = seeds
    write_manifest(m, out / "manifest.txt")
    return m


def read_dataset(path):
    """Load a dataset directory (or manifest path). Returns (manifest, splits)."""
    p = Path(path)
    manifest_path = p / "manifest.txt" if p.is_dir() else p
    m = read_manifest(manifest_path)
    base = manifest_path.parent
    splits = {}
    want = (m.t_all, m.h, m.w, m.channels)
    for split, names in m.files.items():
        splits[split] = [read_trajectory(base / n, dt=m.dt) for n in names]
        for n, traj in zip(names, splits[split]):
            if traj.frames.shape != want:
                raise DataFormatError(
                    f"{base / n}: frames {traj.frames.shape} disagree with the "
                    f"manifest's (T, H, W, C) {want}")
    return m, splits


def generate_dataset(pde_kind: str, grid: GridGeometry, counts: dict,
                     t_steps: int, dt: float, seed0: int, out_dir,
                     **solver_kw) -> DatasetManifest:
    """Generate and write trajectories; splits are disjoint by seed.  The
    counts and the values the file headers must hold are checked first."""
    solver = {NAVIER_STOKES: solve_navier_stokes,
              DIFFUSION_REACTION: solve_diffusion_reaction}[pde_kind]
    splits = ("train", "val", "test")
    sizes = [counts.get(split, 0) for split in splits]
    if min(sizes) < 0:
        raise ValueError(f"trajectory counts must be >= 0, got {counts}")
    _check_header_fields(out_dir, [("T_all", t_steps), ("H", grid.h), ("W", grid.w),
                                   ("seed", seed0),
                                   ("seed", seed0 + max(sum(sizes) - 1, 0))])
    trajs = {}
    next_seed = seed0
    for split, n in zip(splits, sizes):
        trajs[split] = [solver(grid, next_seed + i, t_steps, dt, **solver_kw)
                        for i in range(n)]
        next_seed += n
    return write_dataset(trajs, out_dir)
