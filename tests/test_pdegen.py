import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from partialpde import pdegen as pg


GRID = pg.GridGeometry(32, 32)


def test_grid_coords_uniform_increasing():
    c = GRID.coords()
    assert c.shape == (32, 32, 2)
    assert np.all(np.diff(c[0, :, 0]) > 0)
    assert np.all(np.diff(c[:, 0, 1]) > 0)
    assert np.allclose(np.diff(c[0, :, 0]), 1.0 / 32)
    assert c.min() >= 0.0 and c.max() < 1.0


# -- diffusion-reaction ---------------------------------------------------------

def test_dr_zero_initial_zero_offset_stays_zero(monkeypatch):
    monkeypatch.setattr(pg, "DR_OFFSET_K", 0.0)
    init = np.zeros((32, 32, 2))
    traj = pg.solve_diffusion_reaction(GRID, seed=0, t_steps=5, dt=0.01,
                                       initial=init)
    assert np.all(traj.frames == 0.0)


def test_dr_default_run_is_stable():
    traj = pg.solve_diffusion_reaction(pg.GridGeometry(64, 64), seed=0,
                                       t_steps=20, dt=0.05)
    assert np.all(np.isfinite(traj.frames))
    energy = float((traj.frames[..., 0].astype(np.float64) ** 2).sum())
    assert np.isfinite(energy)


def test_dr_divergence_reports_step():
    init = np.full((32, 32, 2), 900.0)  # cubic reaction blows this up fast
    with pytest.raises(pg.SolverDiverged) as e:
        pg.solve_diffusion_reaction(GRID, seed=0, t_steps=10, dt=0.05,
                                    initial=init)
    assert e.value.step >= 1


@pytest.mark.parametrize("shape", [(32, 32), (32, 32, 3), (16, 16, 2)])
def test_dr_rejects_a_misshapen_initial_field(shape):
    with pytest.raises(ValueError, match="initial has shape"):
        pg.solve_diffusion_reaction(GRID, seed=0, t_steps=3, dt=0.01,
                                    initial=np.zeros(shape))


@pytest.mark.parametrize("h, w", [(16, 32), (32, 16)])
def test_dr_rejects_a_non_square_grid(h, w):
    # the stencil divides both axes by (1/W)^2: on 16x32 a cos(2 pi y) mode
    # would decay at 4x its rate
    with pytest.raises(ValueError, match=f"square grid, got {h}x{w}"):
        pg.solve_diffusion_reaction(pg.GridGeometry(h, w), seed=0, t_steps=3, dt=0.01)


def test_dr_seed_determinism():
    a = pg.solve_diffusion_reaction(GRID, seed=11, t_steps=5, dt=0.02)
    b = pg.solve_diffusion_reaction(GRID, seed=11, t_steps=5, dt=0.02)
    assert np.array_equal(a.frames, b.frames)


def rolled_channel_reference(grid, seed, t_steps, dt):
    """The solver's float64 frames computed one channel at a time, with four
    np.roll copies per Laplacian and the cubic as u ** 3, as the solver ran
    before it moved to the stacked, padded step."""
    h_sq = (1.0 / grid.w) ** 2
    substeps = max(1, int(np.ceil(dt / (h_sq / (4.0 * max(pg.DR_D_U, pg.DR_D_V))))))
    sub_dt = dt / substeps

    def lap(a):
        return (np.roll(a, 1, 0) + np.roll(a, -1, 0) +
                np.roll(a, 1, 1) + np.roll(a, -1, 1) - 4.0 * a) / h_sq

    uv = pg._band_limited_noise(grid.h, grid.w, seed, k_cut=6, amplitude=0.5, channels=2)
    u, v = uv[..., 0], uv[..., 1]
    frames = [np.stack([u, v], axis=-1)]
    for _ in range(1, t_steps):
        for _ in range(substeps):
            du = pg.DR_D_U * lap(u) + u - u ** 3 - pg.DR_OFFSET_K - v
            dv = pg.DR_D_V * lap(v) + u - v
            u, v = u + sub_dt * du, v + sub_dt * dv
        frames.append(np.stack([u, v], axis=-1))
    return np.stack(frames)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dr_stacked_step_matches_the_rolled_channel_reference(n, seed):
    grid = pg.GridGeometry(n, n)
    want = rolled_channel_reference(grid, seed, t_steps=20, dt=0.2)
    got = pg.solve_diffusion_reaction(grid, seed, t_steps=20, dt=0.2, dtype=np.float64)
    assert np.abs(got.frames - want).max() / np.abs(want).max() < 1e-13
    stored = pg.solve_diffusion_reaction(grid, seed, t_steps=20, dt=0.2)
    assert np.array_equal(stored.frames, want.astype(np.float32))


def test_importing_pdegen_loads_no_scipy():
    # datagen's setup_s is nearly all import time
    src = Path(pg.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import partialpde.pdegen; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- navier-stokes ---------------------------------------------------------------

def test_ns_zero_everything_stays_zero():
    init = np.zeros((32, 32))
    traj = pg.solve_navier_stokes(GRID, seed=0, t_steps=5, dt=0.05,
                                  forcing_amplitude=0.0, initial_vorticity=init)
    assert np.all(traj.frames == 0.0)


def test_ns_advection_matches_its_closed_form():
    # omega0 = cos 2 pi x + cos 4 pi y: psi = cos 2 pi x / (2 pi)^2 +
    # cos 4 pi y / (4 pi)^2, u = dpsi/dy = -sin 4 pi y / (4 pi),
    # v = -dpsi/dx = sin 2 pi x / (2 pi), so -(u omega_x + v omega_y) =
    # 1.5 sin 2 pi x sin 4 pi y; a flipped sign or a swapped component fails
    xy = GRID.coords()
    x, y = xy[..., 0], xy[..., 1]
    dt = 1e-3
    traj = pg.solve_navier_stokes(GRID, seed=0, t_steps=2, dt=dt, viscosity=1e-12,
                                  forcing_amplitude=0.0, substeps=1,
                                  initial_vorticity=np.cos(2 * np.pi * x)
                                  + np.cos(4 * np.pi * y), dtype=np.float64)
    rate = (traj.frames[1, ..., 0] - traj.frames[0, ..., 0]) / dt
    assert np.abs(rate - 1.5 * np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)).max() < 1e-8


def test_ns_forcing_only_step_adds_dt_times_the_forcing():
    dt = 1e-3
    traj = pg.solve_navier_stokes(GRID, seed=0, t_steps=2, dt=dt, viscosity=1e-12,
                                  advection=False, substeps=1,
                                  initial_vorticity=np.zeros((32, 32)),
                                  dtype=np.float64)
    assert np.abs(traj.frames[1, ..., 0] / dt - pg.default_forcing(GRID)).max() < 1e-8


def complex_fft_reference(grid, seed, t_steps, dt, viscosity=1e-3,
                          forcing_amplitude=0.1):
    """The solver's float64 frames computed on full complex spectra, with
    four ifft2 and one fft2 per substep, as the solver ran before it moved
    to the real FFT."""
    h, w = grid.h, grid.w
    ky = 2 * np.pi * np.fft.fftfreq(h, d=1.0 / h)[:, None]
    kx = 2 * np.pi * np.fft.fftfreq(w, d=1.0 / w)[None, :]
    k_sq = kx ** 2 + ky ** 2
    k_sq_inv = np.where(k_sq > 0, 1.0 / np.where(k_sq > 0, k_sq, 1.0), 0.0)
    dealias = ((np.abs(ky) < (2.0 / 3.0) * 2 * np.pi * (h // 2))
               & (np.abs(kx) < (2.0 / 3.0) * 2 * np.pi * (w // 2)))
    substeps = max(1, int(np.ceil(dt / 5e-3)))
    sub_dt = dt / substeps
    omega_hat = np.fft.fft2(pg._band_limited_noise(h, w, seed, k_cut=6, amplitude=2.0)[..., 0])
    f_hat = np.fft.fft2(pg.default_forcing(grid, forcing_amplitude))
    visc_minus = 1.0 - 0.5 * sub_dt * viscosity * k_sq
    visc_plus = 1.0 + 0.5 * sub_dt * viscosity * k_sq
    frames = [np.fft.ifft2(omega_hat).real]
    for _ in range(1, t_steps):
        for _ in range(substeps):
            psi_hat = omega_hat * dealias * k_sq_inv
            u = np.fft.ifft2(1j * ky * psi_hat).real
            v = np.fft.ifft2(-1j * kx * psi_hat).real
            wx = np.fft.ifft2(1j * kx * omega_hat * dealias).real
            wy = np.fft.ifft2(1j * ky * omega_hat * dealias).real
            adv = np.fft.fft2(-(u * wx + v * wy))
            omega_hat = (omega_hat * visc_minus + sub_dt * adv + sub_dt * f_hat) / visc_plus
        frames.append(np.fft.ifft2(omega_hat).real)
    return np.stack(frames)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ns_real_fft_matches_the_complex_fft_reference(n, seed):
    grid = pg.GridGeometry(n, n)
    got = pg.solve_navier_stokes(grid, seed, t_steps=6, dt=0.2, dtype=np.float64)
    want = complex_fft_reference(grid, seed, t_steps=6, dt=0.2)
    assert np.abs(got.frames[..., 0] - want).max() / np.abs(want).max() < 1e-12


@pytest.mark.parametrize("substeps", [-1, 0, 2.5])
def test_ns_rejects_a_substep_count_that_is_not_a_positive_integer(substeps):
    with pytest.raises(ValueError, match="substeps"):
        pg.solve_navier_stokes(GRID, seed=0, t_steps=3, dt=0.05, substeps=substeps)


@pytest.mark.parametrize("viscosity", [float("nan"), float("inf"), 0.0, -1e-3])
def test_ns_rejects_a_viscosity_that_is_not_finite_and_positive(viscosity):
    with pytest.raises(ValueError, match="viscosity"):
        pg.solve_navier_stokes(GRID, seed=0, t_steps=3, dt=0.05, viscosity=viscosity)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
def test_ns_rejects_a_non_finite_forcing_amplitude(amplitude):
    with pytest.raises(ValueError, match="forcing_amplitude"):
        pg.solve_navier_stokes(GRID, seed=0, t_steps=3, dt=0.05,
                               forcing_amplitude=amplitude)


@pytest.mark.parametrize("shape", [(32, 16), (32, 32, 1), (16, 16)])
def test_ns_rejects_a_misshapen_initial_vorticity(shape):
    with pytest.raises(ValueError, match="initial_vorticity has shape"):
        pg.solve_navier_stokes(GRID, seed=0, t_steps=3, dt=0.05,
                               initial_vorticity=np.zeros(shape))


def test_ns_requires_power_of_two():
    with pytest.raises(ValueError):
        pg.solve_navier_stokes(pg.GridGeometry(48, 48), seed=0, t_steps=3, dt=0.05)


def test_ns_seed_determinism():
    a = pg.solve_navier_stokes(GRID, seed=2, t_steps=4, dt=0.05)
    b = pg.solve_navier_stokes(GRID, seed=2, t_steps=4, dt=0.05)
    assert np.array_equal(a.frames, b.frames)


# -- files ------------------------------------------------------------------------

def test_trajectory_round_trip_bit_exact(tmp_path):
    traj = pg.solve_diffusion_reaction(GRID, seed=4, t_steps=5, dt=0.02)
    p = tmp_path / "t.pobd"
    pg.write_trajectory(traj, p)
    r = pg.read_trajectory(p)
    assert np.array_equal(r.frames, traj.frames)
    assert r.frames.tobytes() == traj.frames.tobytes()
    assert (r.pde_kind, r.seed) == (traj.pde_kind, traj.seed)


def test_trajectory_the_header_cannot_hold_writes_no_file(tmp_path):
    # T_all is a u16 field
    traj = pg.Trajectory(np.zeros((65536, 1, 1, 1), dtype=np.float32), 0.1,
                         pg.DIFFUSION_REACTION, 0)
    p = tmp_path / "t.pobd"
    with pytest.raises(ValueError, match="T_all=65536"):
        pg.write_trajectory(traj, p)
    assert not p.exists()


def test_header_only_file_is_truncation_error(tmp_path):
    traj = pg.solve_diffusion_reaction(GRID, seed=4, t_steps=5, dt=0.02)
    p = tmp_path / "t.pobd"
    pg.write_trajectory(traj, p)
    raw = p.read_bytes()
    (tmp_path / "h.pobd").write_bytes(raw[:pg._DATA_HEADER.size])
    with pytest.raises(pg.DataFormatError, match="truncated"):
        pg.read_trajectory(tmp_path / "h.pobd")


def test_wrong_endianness_version_is_format_error(tmp_path):
    traj = pg.solve_diffusion_reaction(GRID, seed=4, t_steps=5, dt=0.02)
    p = tmp_path / "t.pobd"
    pg.write_trajectory(traj, p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = raw[4:8][::-1]  # byte-swapped version marker
    (tmp_path / "e.pobd").write_bytes(bytes(raw))
    with pytest.raises(pg.DataFormatError, match="version"):
        pg.read_trajectory(tmp_path / "e.pobd")


def test_unknown_kind_code_is_format_error(tmp_path):
    raw = bytearray(written_trajectory_bytes(tmp_path))
    raw[8] = 3           # the code of no PDE kind
    (tmp_path / "k.pobd").write_bytes(bytes(raw))
    with pytest.raises(pg.DataFormatError, match="unknown pde_kind code 3"):
        pg.read_trajectory(tmp_path / "k.pobd")


def test_bad_magic(tmp_path):
    (tmp_path / "x.pobd").write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(pg.DataFormatError, match="magic"):
        pg.read_trajectory(tmp_path / "x.pobd")


def written_trajectory_bytes(tmp_path):
    traj = pg.solve_diffusion_reaction(GRID, seed=4, t_steps=3, dt=0.02)
    pg.write_trajectory(traj, tmp_path / "t.pobd")
    return (tmp_path / "t.pobd").read_bytes()


# ends of the magic, version, kind, T, H, W and C fields; a header-only
# file (the end of seed) is tested above
@pytest.mark.parametrize("keep", [0, 4, 8, 9, 11, 13, 15, 16])
def test_trajectory_truncated_at_each_header_boundary(tmp_path, keep):
    raw = written_trajectory_bytes(tmp_path)
    assert pg._DATA_HEADER.size == 24
    (tmp_path / "c.pobd").write_bytes(raw[:keep])
    with pytest.raises(pg.DataFormatError, match="truncated"):
        pg.read_trajectory(tmp_path / "c.pobd")


def test_trajectory_trailing_bytes_are_rejected(tmp_path):
    raw = written_trajectory_bytes(tmp_path)
    (tmp_path / "x.pobd").write_bytes(raw + b"\x00" * 4)
    with pytest.raises(pg.DataFormatError, match="trailing"):
        pg.read_trajectory(tmp_path / "x.pobd")


def test_trajectory_header_claiming_more_than_memory_holds_is_truncation_error(tmp_path):
    # 65535**3 * 255 float32 frames are 2.9e17 bytes, more than the address
    # space; the 16 bytes that follow must be refused without a read of that size
    head = pg._DATA_HEADER.pack(pg.DATA_MAGIC, pg.DATA_VERSION, 1,
                                65535, 65535, 65535, 255, 0)
    (tmp_path / "big.pobd").write_bytes(head + b"\0" * 16)
    with pytest.raises(pg.DataFormatError, match="truncated"):
        pg.read_trajectory(tmp_path / "big.pobd")


def write_small_dataset(tmp_path):
    trajs = {"train": [pg.solve_diffusion_reaction(GRID, seed=s, t_steps=4, dt=0.02)
                       for s in range(2)]}
    pg.write_dataset(trajs, tmp_path / "ds")
    return tmp_path / "ds" / "manifest.txt"


def edit_manifest(path, key, value):
    m = json.loads(path.read_text())
    assert key in m
    m[key] = value
    path.write_text(json.dumps(m))


@pytest.mark.parametrize("key, value", [
    ("h", "eight"), ("dt", "fast"), ("h", 8.0), ("t_all", True),
    ("files", {"train": ["traj_train_00000.pobd", 1]}), ("files", ["a.pobd"]),
], ids=["h=32-h=eight", "dt=0.02-dt=fast", "h-float", "t_all-bool",
        "train_files-not-str", "files-not-a-map"])
def test_manifest_garbled_number_is_format_error(tmp_path, key, value):
    manifest = write_small_dataset(tmp_path)
    edit_manifest(manifest, key, value)
    with pytest.raises(pg.DataFormatError, match=f"bad manifest value of {key}$"):
        pg.read_manifest(manifest)


@pytest.mark.parametrize("text", [
    # the key=value lines manifests held before they were JSON
    "pde_kind=diffusion_reaction\nh=32\nw=32\nchannels=2\nt_all=4\ndt=0.02\n"
    "train_files=traj_train_00000.pobd\ntrain_seeds=0\n",
    '["diffusion_reaction", 32, 32, 2, 4, 0.02]',
    '{"pde_kind": "diffusion_reaction", "h": 32, "w": 32, "channels": 2, "t_all": 4}',
    '{"pde_kind": "diffusion_reaction", "h": 32, "w": 32, "channels": 2, "t_all": 4, '
    '"dt": 0.02, "files": {}, "seeds": {}}',
], ids=["key-value-lines", "json-list", "missing-dt", "unknown-key"])
def test_manifest_that_is_not_a_json_object_of_its_fields_is_format_error(tmp_path, text):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(text)
    with pytest.raises(pg.DataFormatError, match="bad manifest: "):
        pg.read_manifest(manifest)


def test_dataset_frames_disagreeing_with_manifest_are_rejected(tmp_path):
    manifest = write_small_dataset(tmp_path)
    edit_manifest(manifest, "t_all", 5)
    with pytest.raises(pg.DataFormatError, match="disagree with the manifest"):
        pg.read_dataset(manifest.parent)


@pytest.mark.parametrize("key, value, match", [
    ("pde_kind", pg.NAVIER_STOKES,
     r"traj_train_00000.pobd: diffusion_reaction frames .* manifest's navier_stokes"),
    ("pde_kind", "banana", "bad manifest value of pde_kind$"),
    ("dt", float("nan"), "bad manifest value of dt$"),
    ("dt", -1, "bad manifest value of dt$"),
    ("dt", 0, "bad manifest value of dt$"),
], ids=["kind-other-than-the-files", "kind-unknown", "dt-nan", "dt-negative", "dt-zero"])
def test_dataset_whose_manifest_misdescribes_it_is_format_error(tmp_path, key, value, match):
    manifest = write_small_dataset(tmp_path)
    edit_manifest(manifest, key, value)
    with pytest.raises(pg.DataFormatError, match=match):
        pg.read_dataset(manifest.parent)


def test_dataset_round_trip_and_manifest(tmp_path):
    trajs = {
        "train": [pg.solve_diffusion_reaction(GRID, seed=s, t_steps=4, dt=0.02)
                  for s in range(3)],
        "val": [pg.solve_diffusion_reaction(GRID, seed=10, t_steps=4, dt=0.02)],
    }
    m = pg.write_dataset(trajs, tmp_path / "ds")
    assert {k: len(v) for k, v in m.files.items()} == {"train": 3, "val": 1}
    m2, splits = pg.read_dataset(tmp_path / "ds")
    assert m2 == m
    assert m2.pde_kind == pg.DIFFUSION_REACTION
    assert [t.seed for t in splits["train"]] == [0, 1, 2]
    assert m2.dt == pytest.approx(0.02)
    for a, b in zip(splits["train"], trajs["train"]):
        assert np.array_equal(a.frames, b.frames)
    # splits disjoint by seed
    all_seeds = [t.seed for split in ("train", "val") for t in splits[split]]
    assert len(set(all_seeds)) == len(all_seeds)


@pytest.mark.parametrize("t_steps, kind, dt", [
    (4, pg.NAVIER_STOKES, 0.05), (6, pg.DIFFUSION_REACTION, 0.05),
    (6, pg.NAVIER_STOKES, 0.1),
], ids=["frames", "pde_kind", "dt"])
def test_write_dataset_refuses_trajectories_unlike_the_first(tmp_path, t_steps, kind, dt):
    # read_dataset would refuse the second file against the manifest
    grid = pg.GridGeometry(8, 8)
    first = pg.solve_navier_stokes(grid, seed=0, t_steps=6, dt=0.05)
    other = pg.solve_navier_stokes(grid, seed=1, t_steps=t_steps, dt=dt)
    other.pde_kind = kind
    with pytest.raises(ValueError, match="train trajectory 1: .* differ from the first"):
        pg.write_dataset({"train": [first, other]}, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_write_dataset_refuses_a_seed_the_header_cannot_hold_before_any_file(tmp_path):
    # the seed is a u64 field; the first trajectory's file must not be left
    # behind without a manifest
    frames = np.zeros((3, 4, 4, 1), dtype=np.float32)
    trajs = [pg.Trajectory(frames, 0.1, pg.NAVIER_STOKES, seed) for seed in (0, 2 ** 64)]
    with pytest.raises(ValueError, match="train trajectory 1: seed=18446744073709551616"):
        pg.write_dataset({"train": trajs}, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_generate_dataset_splits_disjoint(tmp_path):
    pg.generate_dataset(pg.DIFFUSION_REACTION, GRID, {"train": 2, "val": 1, "test": 1},
                        t_steps=4, dt=0.02, seed0=100, out_dir=tmp_path / "g")
    _, splits = pg.read_dataset(tmp_path / "g")
    seeds = [t.seed for split in ("train", "val", "test") for t in splits[split]]
    assert seeds == [100, 101, 102, 103]


@pytest.mark.parametrize("t_steps, seed0, counts, match", [
    (65536, 0, {"train": 1}, "T_all=65536"),
    (3, 2 ** 64 - 1, {"train": 1, "test": 1}, "seed=18446744073709551616"),
    (3, 0, {"train": -1, "val": 2}, "counts"),
    (3, 0, {"train": 1, "tset": 1}, "unknown split name.*'tset'"),
])
def test_generate_dataset_checks_its_arguments_before_solving(
        tmp_path, monkeypatch, t_steps, seed0, counts, match):
    def no_solve(*args, **kw):
        raise AssertionError("solver called")

    monkeypatch.setattr(pg, "solve_diffusion_reaction", no_solve)
    with pytest.raises(ValueError, match=match):
        pg.generate_dataset(pg.DIFFUSION_REACTION, pg.GridGeometry(2, 2), counts,
                            t_steps, 0.02, seed0, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()
