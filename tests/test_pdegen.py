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


def test_dr_constant_field_matches_scalar_ode():
    # diffusion of a constant is exactly zero; remaining dynamics are the
    # 0-D reaction ODE integrated with the same Euler substeps
    u0, v0 = 0.3, -0.1
    init = np.empty((32, 32, 2))
    init[..., 0], init[..., 1] = u0, v0
    dt, steps = 0.01, 6
    traj = pg.solve_diffusion_reaction(GRID, seed=0, t_steps=steps, dt=dt,
                                       initial=init)

    # scalar oracle with identical substepping
    h_sq = (1.0 / 32) ** 2
    substeps = max(1, int(np.ceil(dt / (h_sq / (4 * 5e-3)))))
    sub = dt / substeps
    u, v = u0, v0
    for t in range(1, steps):
        for _ in range(substeps):
            du = u - u ** 3 - 5e-3 - v
            dv = u - v
            u, v = u + sub * du, v + sub * dv
        frame = traj.frames[t].astype(np.float64)
        assert np.abs(frame[..., 0] - u).max() < 1e-6
        assert np.abs(frame[..., 1] - v).max() < 1e-6
        assert frame[..., 0].std() < 1e-12  # stays spatially constant


def test_dr_default_run_is_stable():
    traj = pg.solve_diffusion_reaction(pg.GridGeometry(64, 64), seed=0,
                                       t_steps=20, dt=0.05)
    assert np.all(np.isfinite(traj.frames))
    energy = float((traj.frames[..., 0].astype(np.float64) ** 2).sum())
    assert np.isfinite(energy)


def test_dr_reaction_disabled_conserves_mean():
    traj = pg.solve_diffusion_reaction(GRID, seed=3, t_steps=8, dt=0.02,
                                       reaction=False, dtype=np.float64)
    f = traj.frames
    means = f.mean(axis=(1, 2))
    for c in range(2):
        drift = np.abs(np.diff(means[:, c]))
        assert drift.max() < 1e-10


def test_dr_divergence_reports_step():
    init = np.full((32, 32, 2), 900.0)  # cubic reaction blows this up fast
    with pytest.raises(pg.SolverDiverged) as e:
        pg.solve_diffusion_reaction(GRID, seed=0, t_steps=10, dt=0.05,
                                    initial=init)
    assert e.value.step >= 1


def test_dr_seed_determinism():
    a = pg.solve_diffusion_reaction(GRID, seed=11, t_steps=5, dt=0.02)
    b = pg.solve_diffusion_reaction(GRID, seed=11, t_steps=5, dt=0.02)
    assert np.array_equal(a.frames, b.frames)


# -- navier-stokes ---------------------------------------------------------------

def test_ns_zero_everything_stays_zero():
    init = np.zeros((32, 32))
    traj = pg.solve_navier_stokes(GRID, seed=0, t_steps=5, dt=0.05,
                                  forcing_amplitude=0.0, initial_vorticity=init)
    assert np.all(traj.frames == 0.0)


def test_ns_single_mode_viscous_decay():
    # one Fourier mode, no forcing, advection off: omega decays as
    # exp(-nu |k|^2 t); Crank-Nicolson at this dt sits well inside 1e-6/step
    nu = 1e-3
    xs = np.arange(32) / 32.0
    omega0 = np.cos(2 * np.pi * xs)[None, :] * np.ones((32, 1))
    traj = pg.solve_navier_stokes(GRID, seed=0, t_steps=10, dt=0.05, viscosity=nu,
                                  forcing_amplitude=0.0, advection=False,
                                  substeps=1, initial_vorticity=omega0,
                                  dtype=np.float64)
    k_sq = (2 * np.pi) ** 2
    f = traj.frames[..., 0]
    for t in range(1, 10):
        expected = omega0 * np.exp(-nu * k_sq * t * 0.05)
        assert np.abs(f[t] - expected).max() < 1e-6, t


def test_ns_mean_vorticity_conserved():
    traj = pg.solve_navier_stokes(GRID, seed=5, t_steps=10, dt=0.05,
                                  dtype=np.float64)
    f = traj.frames[..., 0]
    means = f.mean(axis=(1, 2))
    assert np.abs(np.diff(means)).max() < 1e-10


def test_ns_advection_energy_neutral():
    # viscosity ~0 and forcing off: explicit advection step drifts kinetic
    # energy by O(dt^2), below 1e-6 relative at this dt
    rng_field = pg._band_limited_noise(32, 32, seed=9, k_cut=4, amplitude=1.0)[..., 0]
    traj = pg.solve_navier_stokes(GRID, seed=9, t_steps=6, dt=1e-4,
                                  viscosity=1e-12, forcing_amplitude=0.0,
                                  substeps=1, initial_vorticity=rng_field,
                                  dtype=np.float64)
    f = traj.frames[..., 0]
    energies = np.array([pg.kinetic_energy(f[t]) for t in range(6)])
    rel_drift = np.abs(np.diff(energies)) / energies[0]
    assert rel_drift.max() < 1e-6


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


def write_small_dataset(tmp_path):
    trajs = {"train": [pg.solve_diffusion_reaction(GRID, seed=s, t_steps=4, dt=0.02)
                       for s in range(2)]}
    pg.write_dataset(trajs, tmp_path / "ds")
    return tmp_path / "ds" / "manifest.txt"


@pytest.mark.parametrize("line, garbled", [
    ("h=32", "h=eight"), ("dt=0.02", "dt=fast"), ("train_seeds=0,1", "train_seeds=0,x")])
def test_manifest_garbled_number_is_format_error(tmp_path, line, garbled):
    manifest = write_small_dataset(tmp_path)
    text = manifest.read_text()
    assert line in text
    manifest.write_text(text.replace(line, garbled))
    with pytest.raises(pg.DataFormatError, match="bad manifest value"):
        pg.read_manifest(manifest)


def test_dataset_frames_disagreeing_with_manifest_are_rejected(tmp_path):
    manifest = write_small_dataset(tmp_path)
    manifest.write_text(manifest.read_text().replace("t_all=4", "t_all=5"))
    with pytest.raises(pg.DataFormatError, match="disagree with the manifest"):
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
    assert m2.pde_kind == pg.DIFFUSION_REACTION
    assert m2.seeds["train"] == [0, 1, 2]
    assert m2.dt == pytest.approx(0.02)
    for a, b in zip(splits["train"], trajs["train"]):
        assert np.array_equal(a.frames, b.frames)
    # splits disjoint by seed
    all_seeds = m2.seeds["train"] + m2.seeds["val"]
    assert len(set(all_seeds)) == len(all_seeds)


def test_generate_dataset_splits_disjoint(tmp_path):
    m = pg.generate_dataset(pg.DIFFUSION_REACTION, GRID,
                            {"train": 2, "val": 1, "test": 1},
                            t_steps=4, dt=0.02, seed0=100, out_dir=tmp_path / "g")
    seeds = [s for split in ("train", "val", "test") for s in m.seeds[split]]
    assert seeds == [100, 101, 102, 103]


@pytest.mark.parametrize("t_steps, seed0, counts, match", [
    (65536, 0, {"train": 1}, "T_all=65536"),
    (3, 2 ** 64 - 1, {"train": 1, "test": 1}, "seed=18446744073709551616"),
    (3, 0, {"train": -1, "val": 2}, "counts"),
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
