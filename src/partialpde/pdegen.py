"""Synthetic PDE trajectory generation and dataset files.

Two desk-scale solvers stand in for the usual benchmark data:

* a FitzHugh-Nagumo diffusion-reaction system (2 channels, explicit Euler
  on one (2, H, W) stack of both channels, periodic boundaries through a
  wrap-padded buffer and one 5-point Laplacian for both), and
* 2D incompressible Navier-Stokes in vorticity form (1 channel,
  pseudo-spectral on the real FFT with 2/3 dealiasing and one batched
  inverse transform per substep, Crank-Nicolson viscosity, explicit
  advection, fixed sinusoidal forcing).

Both integrate in float64 and store frames as float32, which is also the
on-disk precision.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
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


def solve_diffusion_reaction(grid: GridGeometry, seed: int, t_steps: int,
                             dt: float, reaction: bool = True,
                             initial: np.ndarray | None = None,
                             dtype=np.float32) -> Trajectory:
    """FitzHugh-Nagumo dynamics on a periodic grid.

        du/dt = DR_D_U lap(u) + u - u^3 - DR_OFFSET_K - v
        dv/dt = DR_D_V lap(v) + u - v

    Explicit Euler with internal substepping to satisfy the diffusion
    stability bound dt <= h^2 / (4 max(DR_D_U, DR_D_V)).  The state is one
    (2, H, W) stack of u and v living inside a wrap-padded buffer: each
    substep refreshes the four one-cell halo strips and takes the 5-point
    Laplacian of both channels from slices of that buffer.  The stencil
    takes one spacing h = 1/W for both axes, so the grid must be square.
    """
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    if grid.h != grid.w:
        raise ValueError(f"diffusion-reaction needs a square grid, got "
                         f"{grid.h}x{grid.w}")
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
        if uv.shape != (grid.h, grid.w, 2):
            raise ValueError(f"initial has shape {uv.shape}, the grid needs "
                             f"{(grid.h, grid.w, 2)}")
    diffusivity = np.array([DR_D_U, DR_D_V]).reshape(2, 1, 1)
    padded = np.empty((2, grid.h + 2, grid.w + 2))
    state = padded[:, 1:-1, 1:-1]           # (2, H, W) view: u, v
    state[...] = uv.transpose(2, 0, 1)
    u, v = state

    frames = np.empty((t_steps, grid.h, grid.w, 2), dtype=dtype)
    frames[0] = uv
    for t in range(1, t_steps):
        for _ in range(substeps):
            padded[:, 0, 1:-1] = state[:, -1]
            padded[:, -1, 1:-1] = state[:, 0]
            padded[:, 1:-1, 0] = state[:, :, -1]
            padded[:, 1:-1, -1] = state[:, :, 0]
            d_state = padded[:, :-2, 1:-1] + padded[:, 2:, 1:-1]
            d_state += padded[:, 1:-1, :-2]
            d_state += padded[:, 1:-1, 2:]
            d_state -= 4.0 * state
            d_state /= h_sq
            d_state *= diffusivity
            if reaction:
                # D lap(u) + u - u^3 - k - v in that order; u * u * u, as
                # u ** 3 calls pow per element
                d_state[0] += u
                d_state[0] -= u * u * u
                d_state[0] -= DR_OFFSET_K
                d_state[0] -= v
                d_state[1] += u
                d_state[1] -= v
            d_state *= sub_dt
            state += d_state
        _check_finite(state, DIFFUSION_REACTION, t)
        frames[t] = state.transpose(1, 2, 0)
    return Trajectory(frames, dt, DIFFUSION_REACTION, seed)


def default_forcing(grid: GridGeometry, amplitude: float = 0.1) -> np.ndarray:
    xy = grid.coords()
    s = xy[..., 0] + xy[..., 1]
    return amplitude * (np.sin(2 * np.pi * s) + np.cos(2 * np.pi * s))


def _spectral_operators(h: int, w: int):
    """Angular wavenumbers on the half spectrum that rfft2 keeps of a real
    (h, w) field on the periodic unit square: ky (h, 1), kx (1, w//2 + 1),
    |k|^2, and the inverse Laplacian symbol 1/|k|^2 (0 for the mean mode)."""
    ky = 2 * np.pi * np.fft.fftfreq(h, d=1.0 / h)[:, None]
    kx = 2 * np.pi * np.fft.rfftfreq(w, d=1.0 / w)[None, :]
    k_sq = kx ** 2 + ky ** 2
    k_sq_inv = np.where(k_sq > 0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
    return ky, kx, k_sq, k_sq_inv


def _flow_symbols(h: int, w: int, keep=True) -> np.ndarray:
    """(4, h, w//2 + 1) half-spectrum symbols i ky/|k|^2, -i kx/|k|^2, i kx
    and i ky, zero where `keep` is False.

    Times a vorticity spectrum and through one irfft2 they give u = dpsi/dy,
    v = -dpsi/dx, domega/dx and domega/dy, where -lap psi = omega.  Along an
    axis of even length the Nyquist mode's derivative vanishes at every grid
    point, so its wavenumber differentiates to 0.
    """
    ky, kx, _, k_sq_inv = _spectral_operators(h, w)
    dy = 1j * np.where(np.abs(ky) < np.pi * h, ky, 0.0)
    dx = 1j * np.where(np.abs(kx) < np.pi * w, kx, 0.0)
    return np.stack(np.broadcast_arrays(dy * k_sq_inv, -dx * k_sq_inv, dx, dy)) * keep


def solve_navier_stokes(grid: GridGeometry, seed: int, t_steps: int, dt: float,
                        viscosity: float = 1e-3, forcing_amplitude: float = 0.1,
                        advection: bool = True, substeps: int | None = None,
                        initial_vorticity: np.ndarray | None = None,
                        dtype=np.float32) -> Trajectory:
    """2D incompressible flow in vorticity form on the periodic unit square.

    Pseudo-spectral on the real FFT's half spectrum: each substep takes one
    batched irfft2 for the velocity and the vorticity gradient of the
    2/3-dealiased spectrum, forms the advection in physical space and takes
    one rfft2 of it.  Viscous term Crank-Nicolson, forcing fixed in time.
    """
    h, w = grid.h, grid.w
    if h & (h - 1) or w & (w - 1):
        raise ValueError("grid extents must be powers of two for the spectral solver")
    if not (np.isfinite(viscosity) and viscosity > 0):
        raise ValueError(f"viscosity must be finite and positive, got {viscosity}")
    if not np.isfinite(forcing_amplitude):
        raise ValueError(f"forcing_amplitude must be finite, got {forcing_amplitude}")
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    _check_dt(dt)
    if substeps is None:
        substeps = max(1, int(np.ceil(dt / 5e-3)))
    elif not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    if initial_vorticity is None:
        omega = _band_limited_noise(h, w, seed, k_cut=6, amplitude=2.0)[..., 0]
    else:
        omega = np.array(initial_vorticity, dtype=np.float64, copy=True)
        if omega.shape != (h, w):
            raise ValueError(f"initial_vorticity has shape {omega.shape}, "
                             f"the grid needs {(h, w)}")
    sub_dt = dt / substeps

    ky, kx, k_sq, _ = _spectral_operators(h, w)
    kmax_y = (2 * np.pi) * (h // 2)
    kmax_x = (2 * np.pi) * (w // 2)
    dealias = (np.abs(ky) < (2.0 / 3.0) * kmax_y) & (np.abs(kx) < (2.0 / 3.0) * kmax_x)
    symbols = _flow_symbols(h, w, dealias)
    f_step = sub_dt * np.fft.rfft2(default_forcing(grid, forcing_amplitude)) \
        if forcing_amplitude != 0.0 else None

    omega_hat = np.fft.rfft2(omega)
    visc_minus = 1.0 - 0.5 * sub_dt * viscosity * k_sq
    visc_plus = 1.0 + 0.5 * sub_dt * viscosity * k_sq

    def advection_hat(w_hat):
        u, v, wx, wy = np.fft.irfft2(symbols * w_hat, s=(h, w))
        return np.fft.rfft2(-(u * wx + v * wy))

    frames = np.empty((t_steps, h, w, 1), dtype=dtype)
    frames[0, ..., 0] = np.fft.irfft2(omega_hat, s=(h, w))
    for t in range(1, t_steps):
        for _ in range(substeps):
            rhs = omega_hat * visc_minus
            if advection:
                rhs += sub_dt * advection_hat(omega_hat)
            if f_step is not None:
                rhs += f_step
            omega_hat = rhs / visc_plus
        field_t = np.fft.irfft2(omega_hat, s=(h, w))
        _check_finite(field_t, NAVIER_STOKES, t)
        frames[t, ..., 0] = field_t
    return Trajectory(frames, dt, NAVIER_STOKES, seed)


def kinetic_energy(omega: np.ndarray) -> float:
    """0.5 * mean |u|^2 of the velocity recovered from vorticity."""
    h, w = omega.shape
    u, v = np.fft.irfft2(_flow_symbols(h, w)[:2] * np.fft.rfft2(omega), s=(h, w))
    return float(0.5 * np.mean(u * u + v * v))


# -- trajectory files -----------------------------------------------------------
# magic "POBD", version u32=1, pde_kind u8, T_all u16, H u16, W u16, C u8,
# seed u64, then frames as little-endian float32 in (t, y, x, c) order.  The
# reader checks, on one file buffer, that exactly that many bytes follow.

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
    raw = Path(path).read_bytes()
    if len(raw) < _DATA_HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, kind, t_all, h, w, c, seed = _DATA_HEADER.unpack_from(raw)
    if magic != DATA_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != DATA_VERSION:
        raise DataFormatError(
            f"{path}: unsupported version {version} (endianness or format mismatch)")
    if kind not in _KIND_NAMES:
        raise DataFormatError(f"{path}: unknown pde_kind code {kind}")
    n = t_all * h * w * c
    if len(raw) - _DATA_HEADER.size < 4 * n:
        raise DataFormatError(f"{path}: truncated frame payload")
    if len(raw) - _DATA_HEADER.size > 4 * n:
        raise DataFormatError(f"{path}: trailing bytes after the frame payload")
    frames = np.frombuffer(raw, "<f4", n, _DATA_HEADER.size).reshape(t_all, h, w, c)
    return Trajectory(frames.astype(np.float32), float(dt), _KIND_NAMES[kind], seed)


# -- dataset manifest -------------------------------------------------------------
# manifest.txt holds one UTF-8 JSON object of the DatasetManifest fields.

@dataclass
class DatasetManifest:
    pde_kind: str
    h: int
    w: int
    channels: int
    t_all: int
    dt: float
    files: dict = field(default_factory=dict)    # split -> list of file names


def write_manifest(m: DatasetManifest, path) -> None:
    Path(path).write_text(json.dumps(asdict(m)), encoding="utf-8")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def read_manifest(path) -> DatasetManifest:
    try:
        m = DatasetManifest(**json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, TypeError) as e:     # not JSON or not an object, bad keys
        raise DataFormatError(f"{path}: bad manifest: {e}") from None
    valid = {
        "pde_kind": m.pde_kind in (NAVIER_STOKES, DIFFUSION_REACTION),
        "h": _is_int(m.h), "w": _is_int(m.w), "channels": _is_int(m.channels),
        "t_all": _is_int(m.t_all),
        "dt": (_is_int(m.dt) or isinstance(m.dt, float))
        and math.isfinite(m.dt) and m.dt > 0,
        "files": isinstance(m.files, dict) and all(
            isinstance(names, list) and all(isinstance(n, str) for n in names)
            for names in m.files.values()),
    }
    bad = [k for k, ok in valid.items() if not ok]
    if bad:
        raise DataFormatError(f"{path}: bad manifest value of {', '.join(bad)}")
    return m


def write_dataset(trajs_by_split: dict, out_dir) -> DatasetManifest:
    """Write one POBD file per trajectory plus a manifest.txt; a trajectory
    unlike the first or with an unstorable seed raises ValueError first."""
    first = next((t for ts in trajs_by_split.values() for t in ts), None)
    if first is None:
        raise ValueError("a dataset needs at least one trajectory")
    want = (first.frames.shape, first.pde_kind, first.dt)
    for split, trajs in trajs_by_split.items():
        for i, t in enumerate(trajs):
            _check_header_fields(f"{split} trajectory {i}", [("seed", t.seed)])
            if (t.frames.shape, t.pde_kind, t.dt) != want:
                raise ValueError(f"{split} trajectory {i}: frames, pde_kind and dt "
                                 f"{(t.frames.shape, t.pde_kind, t.dt)} differ from "
                                 f"the first trajectory's {want}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_all, h, w, c = first.frames.shape
    m = DatasetManifest(first.pde_kind, h, w, c, t_all, first.dt)
    for split, trajs in trajs_by_split.items():
        m.files[split] = [f"traj_{split}_{i:05d}.pobd" for i in range(len(trajs))]
        for name, traj in zip(m.files[split], trajs):
            write_trajectory(traj, out / name)
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
            if traj.frames.shape != want or traj.pde_kind != m.pde_kind:
                raise DataFormatError(
                    f"{base / n}: {traj.pde_kind} frames {traj.frames.shape} "
                    f"disagree with the manifest's {m.pde_kind} (T, H, W, C) {want}")
    return m, splits


def generate_dataset(pde_kind: str, grid: GridGeometry, counts: dict,
                     t_steps: int, dt: float, seed0: int, out_dir,
                     **solver_kw) -> DatasetManifest:
    """Generate and write trajectories; splits are disjoint by seed.  The
    counts and the values the file headers must hold are checked first."""
    solver = {NAVIER_STOKES: solve_navier_stokes,
              DIFFUSION_REACTION: solve_diffusion_reaction}[pde_kind]
    splits = ("train", "val", "test")
    unknown = [k for k in counts if k not in splits]
    if unknown:
        raise ValueError(f"unknown split name(s) {unknown}; the splits are {splits}")
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
