"""Oracle verification suite: every derived-value check re-run at 64-bit.

Each check re-derives its expected values through an independent route
(closed forms, finite differences, dense contractions, counting) and
compares against the production path.  `run_suite` returns per-check rows
and writes an optional CSV; any failing check fails the whole suite.
All properties here are architectural, so a fresh random-init model passes.

The dense kernel oracle (`kernel_oracle`) materializes one layer's
aggregation/de-aggregation as an explicit low-rank kernel integral, an
independent numpy route to the propagator branch.  The MLP token mixer is
nonlinear in the tokens, so for it the oracle runs through the tokens.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import evaluation as ev
from . import masking as mk
from . import model as md
from . import pdegen as pg
from . import tensor as T
from . import training as tr
from .tensor import Tensor


@dataclass
class CheckResult:
    name: str
    group: str
    ok: bool
    detail: str
    seconds: float


def _fd_grad(f, arr, idxs, step=1e-5):
    flat = arr.reshape(-1)
    out = []
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        out.append((fp - fm) / (2 * step))
    return np.array(out)


# -- tensor checks ---------------------------------------------------------------

def check_matmul_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 6))
    got = (Tensor(a) @ Tensor(b)).data
    want = np.zeros((5, 6))
    for i in range(5):
        for j in range(6):
            for t in range(4):
                want[i, j] += a[i, t] * b[t, j]
    err = np.abs(got - want).max()
    return got.shape == want.shape and err < 1e-10, f"max abs err {err:.2e}"


def check_mlp_gradient_fd():
    rng = np.random.default_rng(1)
    ws = [Tensor(rng.normal(size=s), requires_grad=True)
          for s in [(4, 6), (6,), (6, 5), (5,), (5, 1), (1,)]]
    x = rng.normal(size=(3, 4))

    def forward():
        h = T.gelu(Tensor(x) @ ws[0] + ws[1])
        h = T.gelu(h @ ws[2] + ws[3])
        out = h @ ws[4] + ws[5]
        return (out * out).sum() * 0.5

    with T.tape():
        grads = T.backward(forward())
    worst = 0.0
    for w in ws:
        def f():
            return float(forward().data)
        fd = _fd_grad(f, w.data, range(w.size))
        an = grads[w].reshape(-1)
        scale = max(np.abs(fd).max(), np.abs(an).max(), 1e-8)
        worst = max(worst, np.abs(fd - an).max() / scale)
    return worst < 1e-6, f"max rel err {worst:.2e}"


def check_softmax_probability_rows():
    rng = np.random.default_rng(2)
    s = T.softmax(Tensor(rng.uniform(-5, 5, size=(8, 9))), axis=-1).data
    ok = np.all(s >= 0) and np.all(s <= 1) and \
        np.abs(s.sum(axis=-1) - 1).max() < 1e-6
    return ok, f"sum dev {np.abs(s.sum(axis=-1) - 1).max():.2e}"


def check_slice_softmax_reference():
    rng = np.random.default_rng(3)
    scale = 2.0
    x = rng.uniform(-3, 3, size=(2, 4, 5))            # (batch, tokens, points)
    x[:, :, 1] += 400.0                   # exp(scale * x) overflows unshifted
    mask = np.array([1.0, 1.0, 0.0, 1.0, 1.0])[None, :]   # point 2 unobserved
    got = T.slice_softmax(Tensor(x), mask, scale).data
    want = np.zeros_like(x)
    for b in range(x.shape[0]):
        for n in range(x.shape[2]):
            col = [scale * v for v in x[b, :, n]]
            top = max(col)
            e = [np.exp(v - top) for v in col]
            want[b, :, n] = [mask[0, n] * v / sum(e) for v in e]
    err = np.abs(got - want).max()
    ok = err < 1e-12 and np.all(got[:, :, 2] == 0.0)

    r = rng.normal(size=x.shape)
    xt = Tensor(x.copy(), requires_grad=True)

    def inner():
        return (T.slice_softmax(xt, mask, scale) * r).sum()

    with T.tape():
        an = T.backward(inner())[xt].reshape(-1)
    fd = _fd_grad(lambda: float(inner().data), xt.data, range(x.size))
    fd_err = np.abs(fd - an).max() / max(np.abs(fd).max(), 1e-8)
    return bool(ok) and fd_err < 1e-6, \
        f"column-loop dev {err:.2e}, vjp vs central differences {fd_err:.2e}"


def check_gelu_layernorm_reference():
    """GELU against its tanh formula and, within 5e-4, scipy's exact GELU;
    the layer norm against a two-pass numpy reference over the last axis;
    both vjps against central differences."""
    from scipy.special import erf
    rng = np.random.default_rng(4)
    x = np.concatenate([np.linspace(-6.0, 6.0, 241), rng.normal(size=15) * 3])
    got = T.gelu(Tensor(x)).data
    formula_dev = np.abs(got - _np_gelu(x)).max()
    exact_dev = np.abs(got - 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))).max()

    a = rng.normal(size=(3, 4, 6)) * 2.0 + 1.0
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    ln_dev = np.abs(T.layernorm(Tensor(a)).data - (a - mu) / np.sqrt(var + 1e-5)).max()

    fd_err = 0.0
    for fn, arr in ((T.gelu, x[::8].copy()), (T.layernorm, a.copy())):
        r = rng.normal(size=arr.shape)
        xt = Tensor(arr, requires_grad=True)

        def inner():
            return (fn(xt) * r).sum()

        with T.tape():
            an = T.backward(inner())[xt].reshape(-1)
        fd = _fd_grad(lambda: float(inner().data), xt.data, range(arr.size))
        fd_err = max(fd_err, np.abs(fd - an).max() / max(np.abs(fd).max(), 1e-8))
    ok = formula_dev < 1e-12 and exact_dev < 5e-4 and ln_dev < 1e-12 and fd_err < 1e-6
    return ok, (f"gelu vs tanh formula {formula_dev:.2e}, vs exact {exact_dev:.2e}; "
                f"layernorm vs two-pass {ln_dev:.2e}; vjps vs central "
                f"differences {fd_err:.2e}")


# -- solver checks ------------------------------------------------------------------

def check_ns_viscous_decay():
    grid = pg.GridGeometry(32, 32)
    xs = np.arange(32) / 32.0
    omega0 = np.cos(2 * np.pi * xs)[None, :] * np.ones((32, 1))
    traj = pg.solve_navier_stokes(grid, seed=0, t_steps=8, dt=0.05,
                                  viscosity=1e-3, forcing_amplitude=0.0,
                                  advection=False, substeps=1,
                                  initial_vorticity=omega0, dtype=np.float64)
    k_sq = (2 * np.pi) ** 2
    worst = 0.0
    for t in range(1, 8):
        want = omega0 * np.exp(-1e-3 * k_sq * t * 0.05)
        worst = max(worst, np.abs(traj.frames[t, ..., 0] - want).max())
    return worst < 1e-6, f"max per-step dev {worst:.2e}"


def check_ns_mean_conservation():
    traj = pg.solve_navier_stokes(pg.GridGeometry(32, 32), seed=3, t_steps=8,
                                  dt=0.05, dtype=np.float64)
    drift = np.abs(np.diff(traj.frames[..., 0].mean(axis=(1, 2)))).max()
    return drift < 1e-10, f"mean drift {drift:.2e}"


def check_dr_mean_conservation():
    traj = pg.solve_diffusion_reaction(pg.GridGeometry(32, 32), seed=4,
                                       t_steps=8, dt=0.02, reaction=False,
                                       dtype=np.float64)
    drift = np.abs(np.diff(traj.frames.mean(axis=(1, 2)), axis=0)).max()
    return drift < 1e-10, f"mean drift {drift:.2e}"


def check_dr_scalar_ode():
    grid = pg.GridGeometry(16, 16)
    init = np.empty((16, 16, 2))
    init[..., 0], init[..., 1] = 0.4, -0.2
    dt, steps = 0.01, 5
    traj = pg.solve_diffusion_reaction(grid, seed=0, t_steps=steps, dt=dt,
                                       initial=init, dtype=np.float64)
    h_sq = (1.0 / 16) ** 2
    dt_stable = h_sq / (4 * max(pg.DR_D_U, pg.DR_D_V))
    substeps = max(1, int(np.ceil(dt / dt_stable)))
    sub = dt / substeps
    u, v = 0.4, -0.2
    worst = spread = 0.0
    for t in range(1, steps):
        for _ in range(substeps):
            u, v = (u + sub * (u - u ** 3 - pg.DR_OFFSET_K - v), v + sub * (u - v))
        worst = max(worst, np.abs(traj.frames[t] - [u, v]).max())
        spread = max(spread, np.ptp(traj.frames[t], axis=(0, 1)).max())
    return (worst < 1e-6 and spread < 1e-12,
            f"max dev from 0-D integrator {worst:.2e}, spatial spread {spread:.2e}")


def check_dr_mode_decay():
    """With the reaction off, u0 = cos(2 pi 3x + 1) and v0 = cos(2 pi 2y + 1)
    are eigenvectors of the periodic 5-point stencil with eigenvalue
    lam = -(4/h^2) sin^2(pi m / W), so each explicit Euler substep scales
    them by 1 + sub_dt D lam.  The diffusivities are FitzHugh-Nagumo's
    D_u = 1e-3 and D_v = 5e-3, written here rather than read from pdegen so
    that swapped ones fail, as do a wrong wrap edge or a transposed stencil;
    the phase makes a halo mirrored about a grid line fail too."""
    n, dt, t_steps = 32, 0.1, 5
    d_u, d_v = 1e-3, 5e-3
    grid = pg.GridGeometry(n, n)
    xy = grid.coords()
    init = np.stack([np.cos(2 * np.pi * 3 * xy[..., 0] + 1.0),
                     np.cos(2 * np.pi * 2 * xy[..., 1] + 1.0)], axis=-1)
    traj = pg.solve_diffusion_reaction(grid, seed=0, t_steps=t_steps, dt=dt,
                                       reaction=False, initial=init,
                                       dtype=np.float64)
    h_sq = (1.0 / n) ** 2
    substeps = max(1, int(np.ceil(dt / (h_sq / (4 * max(d_u, d_v))))))
    sub_dt = dt / substeps
    gain = [1 + sub_dt * d * -(4 / h_sq) * np.sin(np.pi * m / n) ** 2
            for d, m in ((d_u, 3), (d_v, 2))]
    worst = max(np.abs(traj.frames[t, ..., c]
                       - init[..., c] * gain[c] ** (t * substeps)).max()
                for t in range(t_steps) for c in range(2))
    return (substeps >= 2 and worst < 1e-12,
            f"max dev from the stencil's mode decay {worst:.2e}, "
            f"{substeps} substeps per frame")


def check_ns_energy_neutral_advection():
    field = pg._band_limited_noise(32, 32, seed=9, k_cut=4)[..., 0]
    traj = pg.solve_navier_stokes(pg.GridGeometry(32, 32), seed=9, t_steps=5,
                                  dt=1e-4, viscosity=1e-12,
                                  forcing_amplitude=0.0, substeps=1,
                                  initial_vorticity=field, dtype=np.float64)
    e = np.array([pg.kinetic_energy(traj.frames[t, ..., 0]) for t in range(5)])
    drift = np.abs(np.diff(e)).max() / e[0]
    return drift < 1e-6, f"relative energy drift {drift:.2e}"


def check_ns_advection_closed_form():
    """One substep from omega0 = cos 2 pi x + cos 4 pi y, whose advection
    -(u . grad omega) is 1.5 sin 2 pi x sin 4 pi y, and one forcing-only
    substep from rest, which adds dt times the forcing.  Energy neutrality
    and mean conservation hold for either sign of the advection term; this
    check does not."""
    grid, dt = pg.GridGeometry(32, 32), 1e-3
    xy = grid.coords()
    x, y = xy[..., 0], xy[..., 1]

    def one_step(**kw):
        traj = pg.solve_navier_stokes(grid, seed=0, t_steps=2, dt=dt,
                                      viscosity=1e-12, substeps=1,
                                      dtype=np.float64, **kw)
        return traj.frames[..., 0]

    w0, w1 = one_step(forcing_amplitude=0.0,
                      initial_vorticity=np.cos(2 * np.pi * x) + np.cos(4 * np.pi * y))
    adv = 1.5 * np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)
    adv_dev = np.abs((w1 - w0) / dt - adv).max()
    _, f1 = one_step(advection=False, initial_vorticity=np.zeros((32, 32)))
    force_dev = np.abs(f1 / dt - pg.default_forcing(grid)).max()
    return (adv_dev < 1e-8 and force_dev < 1e-8,
            f"advection dev {adv_dev:.2e}, forcing dev {force_dev:.2e}")


# -- masking checks ------------------------------------------------------------------

def check_patch_counting():
    m4 = mk.gen_patchwise_mask(64, 64, 0.25, 4, seed=0)
    m8 = mk.gen_patchwise_mask(64, 64, 0.25, 8, seed=0)
    ok = int((m4.grid == 0).sum()) == 1024 and \
        int((m4.grid.reshape(16, 4, 16, 4).min(axis=(1, 3)) == 0).sum()) == 64 and \
        int((m8.grid.reshape(8, 8, 8, 8).min(axis=(1, 3)) == 0).sum()) == 16
    return ok, "64/256 and 16/64 blocks masked"


def check_pointwise_monte_carlo():
    fracs = [mk.gen_pointwise_mask(64, 64, 0.25, seed=s).observed_fraction()
             for s in range(2000)]
    dev = abs(float(np.mean(fracs)) - 0.75)
    return dev < 0.01, f"mean observed fraction off by {dev:.4f}"


# -- dense kernel oracle -------------------------------------------------------

ORACLE_MAX_POINTS = 256      # the dense kernel holds (heads, N, N) entries


class OracleSizeError(ValueError):
    pass


@dataclass
class KernelOracleResult:
    kappa: np.ndarray | None   # (H, N, N) per-head scalar kernels; None for mixer "mlp"
    integral: np.ndarray   # (N, C) brute-force contraction + head merge
    identity: np.ndarray   # (N, C) residual self-update term (zero when unobserved)
    mask: np.ndarray       # (N,)


def _np_gelu(x):
    """GELU's tanh form, as the model uses it."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _np_depthwise_conv(x, w):
    """Zero-padded per-channel k x k correlation, stride 1, same size:
    x (..., C, H, W), w (C, k, k) -> (..., C, H, W)."""
    pad = w.shape[-1] // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad)] * 2)
    win = np.lib.stride_tricks.sliding_window_view(xp, w.shape[-2:], axis=(-2, -1))
    return np.einsum("...chwij,cij->...chw", win, w)


def _tap_kernels(taps, k):
    """(H, k*k, 1, L) taps -> (H*L, k, k) kernels: tap t = i*k + j, at grid
    offset (i - k//2, j - k//2), is entry (i, j) of a zero-padded correlation."""
    return taps.reshape(len(taps), k, k, -1).transpose(0, 3, 1, 2).reshape(-1, k, k)


def kernel_oracle(params: md.ModelParams, layer: int, mask: np.ndarray,
                  y: np.ndarray, gh: int, gw: int) -> KernelOracleResult:
    """Materialize one layer's propagator branch as a dense low-rank kernel.

    Independent numpy re-derivation: aggregation columns (eps-normalization
    folded in) give the source factors, the row-normalized propagated maps
    plus head merge give the target factors, and the contraction runs as a
    dense (N x N) kernel multiply rather than through the token bottleneck.
    Only mixer "none" (skip) and "attention" (folded as a learned token-to-
    token transformation) admit the factorization.  Mixer "mlp" runs per head
    psi^T Y, the two-layer token MLP and phi Z in turn, with no kernel.
    """
    from scipy.special import softmax
    cfg = params.config
    n = gh * gw
    if n > ORACLE_MAX_POINTS:
        raise OracleSizeError(f"{n} points exceeds the limit {ORACLE_MAX_POINTS}")
    mask = np.asarray(mask, dtype=np.float64).reshape(n)
    y = np.asarray(y, dtype=np.float64).reshape(n, cfg.channels)
    p = f"L{layer}."

    def w(name):
        return params[p + name].data.astype(np.float64)

    h, ch, l, k = cfg.heads, cfg.head_dim, cfg.latent_tokens, cfg.pconv_kernel
    yh = y.reshape(n, h, ch).transpose(1, 0, 2)                 # (H, N, C_h)

    logits = _np_gelu(yh @ w("slice_w1") + w("slice_b1")) @ w("slice_w2") \
        + w("slice_b2").transpose(0, 2, 1)                     # (H, N, L)
    s = softmax(logits / cfg.temperature, axis=-1) * mask[None, :, None]
    psi = s / (s.sum(axis=1, keepdims=True) + md.EPS)          # (H, N, L)

    if cfg.boundary_first:
        num = _np_depthwise_conv(s.transpose(0, 2, 1).reshape(h * l, gh, gw),
                                 _tap_kernels(w("pconv_w"), k))
        ones_k = np.ones((1, k, k))
        counts = _np_depthwise_conv(mask.reshape(1, gh, gw), ones_k)[0]
        observed = counts > 0
        sizes = _np_depthwise_conv(np.ones((1, gh, gw)), ones_k)[0]
        factor = np.where(observed, sizes / np.where(observed, counts, 1.0), 0.0)
        s_next = num * factor + w("pconv_b").reshape(h * l, 1, 1) * observed
        s_next = s_next.reshape(h, l, n).transpose(0, 2, 1)     # (H, N, L)
    else:
        s_next = s

    row = s_next.sum(axis=-1, keepdims=True)
    phi = np.where(row > 0, s_next / np.where(row > 0, row, 1.0), 0.0)

    if cfg.token_mixer == "mlp":
        zt = np.einsum("hnl,hnc->hcl", psi, yh)                  # (H, C_h, L)
        mixed = _np_gelu(zt @ w("mix_w1") + w("mix_b1")) @ w("mix_w2") + w("mix_b2")
        kappa, contracted = None, np.einsum("hnl,hcl->hnc", phi, mixed)
    elif cfg.token_mixer == "attention":
        z = np.einsum("hnl,hnc->hlc", psi, yh)
        probs = softmax((z @ w("mix_wq")) @ (z @ w("mix_wk")).transpose(0, 2, 1)
                        / np.sqrt(ch), axis=-1)                 # (H, L, L)
        kappa = np.einsum("hnl,hlm,hkm->hnk", phi, probs, psi)
        contracted = np.einsum("hnk,hkc->hnc", kappa, yh @ w("mix_wv"))
    else:
        kappa = np.einsum("hnl,hkl->hnk", phi, psi)
        contracted = np.einsum("hnk,hkc->hnc", kappa, yh)
    merged = contracted.transpose(1, 0, 2).reshape(n, cfg.channels)
    integral = merged @ w("merge_w") + w("merge_b")
    identity = y * mask[:, None]
    return KernelOracleResult(kappa, integral, identity, mask)


# -- model checks --------------------------------------------------------------------

def _oracle_instance(seed, gh=8, gw=8, mixer="none", boundary_first=True,
                     missing=0.4):
    cfg = md.ModelConfig(layers=1, channels=16, heads=2, latent_tokens=4,
                         history=2, phys_channels=1, token_mixer=mixer,
                         mlp_ratio=1.0, boundary_first=boundary_first)
    params = md.ModelParams(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    params["L0.merge_w"].data = rng.normal(size=(16, 16)) / 4.0
    params["L0.merge_b"].data = rng.normal(size=16) * 0.1
    n = gh * gw
    y = rng.normal(size=(n, 16))
    if boundary_first:
        # positive taps and bias: a zero bias cancels the renormalization
        # factor between each decoded row and its token sum
        for name, lo, hi in (("L0.pconv_w", 0.05, 0.2), ("L0.pconv_b", 0.01, 0.1)):
            params[name].data = rng.uniform(lo, hi, size=params[name].shape)
    mask = mk.gen_pointwise_mask(gh, gw, missing, seed=seed + 2) \
        .grid.reshape(n).astype(np.float64)
    if mask.sum() == 0:
        mask[0] = 1.0
    return cfg, params, y, mask


def check_kernel_oracle():
    """20 instances cycle over the three mixers (none, attention, mlp), each
    with and without boundary-first propagation."""
    worst = 0.0
    for seed in range(20):
        gh = gw = (8, 12, 16)[seed % 3]
        mixer, bf = ("none", "attention", "mlp")[seed // 2 % 3], seed % 2 == 0
        _, params, y, mask = _oracle_instance(seed, gh, gw, mixer, bf)
        res = kernel_oracle(params, 0, mask, y, gh, gw)
        branch, _ = md.phlp_branch(Tensor(y[None]), mask[None], params, 0, gh, gw)
        worst = max(worst, np.abs(res.integral - branch.data[0]).max())
    return worst < 1e-6, f"max abs dev over 20 instances {worst:.2e}"


def check_kernel_column_support():
    _, params, y, mask = _oracle_instance(77, missing=0.5)
    res = kernel_oracle(params, 0, mask, y, 8, 8)
    bad = np.abs(res.kappa[:, :, mask == 0.0]).max(initial=0.0)
    return bad == 0.0, f"max |column| outside observed set {bad:.2e}"


def check_kernel_identity_self_update():
    _, params, y, mask = _oracle_instance(78)
    params["L0.merge_w"].data = np.zeros((16, 16))
    params["L0.merge_b"].data = np.zeros(16)
    res = kernel_oracle(params, 0, mask, y, 8, 8)
    branch, _ = md.phlp_branch(Tensor(y[None]), mask[None], params, 0, 8, 8)
    layer_out = branch.data[0] + y
    obs = mask == 1.0
    dev = np.abs(layer_out[obs] - (res.integral + res.identity)[obs]).max()
    integral = np.abs(res.integral).max()
    ok = dev < 1e-12 and integral < 1e-12 and np.all(res.identity[~obs] == 0.0)
    return ok, f"self-update dev {dev:.2e}, max |integral| {integral:.2e}"


def check_mask_coverage_dilation():
    bad = 0
    for s in range(20):
        m = mk.gen_patchwise_mask(64, 64, 0.5, 4, seed=s).grid.astype(np.float64)
        if not np.all(md.propagate_mask_grid(m, 3, 8) == 1.0):
            bad += 1
    return bad == 0, f"{bad}/20 masks uncovered after 8 dilations"


def check_pconv_full_mask_reduction():
    """Under a full mask the fused propagate-and-decode equals a plain
    depthwise conv plus bias, row-normalized and contracted with the tokens."""
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                         history=1, phys_channels=1, token_mixer="none")
    params = md.ModelParams(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    params["L0.pconv_w"].data = rng.uniform(0.1, 1.0, size=params["L0.pconv_w"].shape)
    params["L0.pconv_b"].data = rng.uniform(0.1, 0.5, size=params["L0.pconv_b"].shape)
    params["L0.merge_w"].data = rng.normal(size=(8, 8))
    gh = gw = 6
    s_arr = rng.random((1, 2, 2, 36))                             # (1, H, L, N)
    z = rng.normal(size=(1, 2, 2, 4))
    got, m_next = md.phca_decode(Tensor(z), Tensor(s_arr), np.ones((1, 36)),
                                 params, 0, gh, gw)
    conv = _np_depthwise_conv(s_arr.reshape(1, 4, gh, gw),
                              _tap_kernels(params["L0.pconv_w"].data, 3))
    s_next = (conv + params["L0.pconv_b"].data.reshape(1, 4, 1, 1)) \
        .reshape(1, 2, 2, 36).transpose(0, 1, 3, 2)               # (1, H, N, L)
    out_h = s_next / s_next.sum(axis=-1, keepdims=True) @ z       # (1, H, N, C_h)
    want = out_h.transpose(0, 2, 1, 3).reshape(1, 36, 8) @ params["L0.merge_w"].data \
        + params["L0.merge_b"].data
    dev = np.abs(got.data - want).max()
    return dev < 1e-12 and np.all(m_next == 1.0), f"dev vs plain conv {dev:.2e}"


def check_single_token_closed_forms():
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=1,
                         history=1, phys_channels=1, token_mixer="none")
    params = md.ModelParams(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    n = 16
    yh = rng.normal(size=(1, 2, n, 4))
    mask = (rng.random((1, n)) > 0.4).astype(np.float64)
    _, z = md.phca_encode(Tensor(yh), mask, params, 0)
    want = (yh * mask[:, None, :, None]).sum(axis=2) / (mask.sum() + md.EPS)
    dev = np.abs(z.data[:, :, 0, :] - want).max()
    return dev < 1e-12, f"single-token aggregation dev {dev:.2e}"


def check_model_gradient_fd():
    cfg = md.ModelConfig(layers=2, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=1, mlp_ratio=1.0)
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    for i in range(2):
        params[f"L{i}.merge_w"].data = rng.normal(size=(8, 8)) * 0.2
    gh = gw = 5
    coords = pg.GridGeometry(gh, gw).coords()
    frames = rng.normal(size=(1, 2, gh, gw, 1))
    targets = rng.normal(size=(1, gh, gw, 1))
    mask = mk.gen_pointwise_mask(gh, gw, 0.3, seed=3).grid[None].astype(float)

    def loss_t():
        pred = md.lano_forward(coords, frames, mask, params)
        return tr.masked_one_step_loss(pred, targets, mask)

    with T.tape():
        grads = T.backward(loss_t())

    def f():
        return float(loss_t().data)

    worst = 0.0
    rng2 = np.random.default_rng(2)
    for name, p in params.items():
        idxs = rng2.choice(p.size, size=min(2, p.size), replace=False)
        fd = _fd_grad(f, p.data, idxs)
        an = grads[p].reshape(-1)[idxs]
        scale = max(np.abs(fd).max(), np.abs(an).max(), 1e-6)
        worst = max(worst, np.abs(fd - an).max() / scale)
    return worst < 1e-4, f"max group rel err {worst:.2e}"


# -- training checks -------------------------------------------------------------------

def check_adam_first_step():
    cfg = md.ModelConfig(layers=1, channels=2, heads=1, latent_tokens=1,
                         history=1)
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    params["out.b"].data = np.zeros_like(params["out.b"].data)
    state = tr.TrainState(params)
    tcfg = tr.TrainConfig(weight_decay=0.0)
    g = np.full(params["out.b"].shape, -1.3)
    tr.adamw_step(state, {params["out.b"]: g}, lr=0.05, cfg=tcfg)
    want = -0.05 * (-1.3) / (1.3 + tr.ADAM_EPS)
    dev = np.abs(params["out.b"].data - want).max()
    return dev < 1e-7, f"first-step dev {dev:.2e}"


def check_one_cycle_endpoints():
    cfg = tr.TrainConfig(learning_rate=1e-3)
    t_peak = int(round(0.3 * 499))
    a = tr.one_cycle_lr(0, 500, cfg)
    b = tr.one_cycle_lr(t_peak, 500, cfg)
    c = tr.one_cycle_lr(499, 500, cfg)
    ok = (abs(a - 4e-5) < 1e-12 and abs(b - 1e-3) < 1e-12
          and abs(c - 1e-7) < 1e-12)
    # continuous at the peak: one step either side stays within 10 %
    ok &= all(abs(tr.one_cycle_lr(t, 500, cfg) - 1e-3) < 1e-4
              for t in (t_peak - 1, t_peak + 1))
    return ok, f"lr endpoints {a:.2e}/{b:.2e}/{c:.2e}"


def check_descent_step():
    rng = np.random.default_rng(5)
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=1, mlp_ratio=1.0)
    params = md.ModelParams(cfg, seed=1, dtype=np.float64)
    state = tr.TrainState(params)
    coords = pg.GridGeometry(8, 8).coords()
    frames = rng.normal(size=(2, 2, 8, 8, 1))
    targets = rng.normal(size=(2, 8, 8, 1))
    masks = np.ones((2, 8, 8))

    def loss_value():
        pred = md.lano_forward(coords, frames, masks, params)
        return float(tr.masked_one_step_loss(pred, targets, masks).data)

    before = loss_value()
    with T.tape():
        pred = md.lano_forward(coords, frames, masks, params)
        grads = T.backward(tr.masked_one_step_loss(pred, targets, masks))
    tr.adamw_step(state, grads, lr=1e-6, cfg=tr.TrainConfig(weight_decay=0.0))
    after = loss_value()
    return after < before, f"loss {before:.6f} -> {after:.6f}"


# -- evaluation checks -------------------------------------------------------------------

def check_relative_l2_cases():
    a = ev.relative_l2(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    ok = abs(a - 1 / np.sqrt(2)) < 1e-12
    ok &= ev.relative_l2(np.zeros(4), np.ones(4)) == 1.0
    ok &= ev.relative_l2(np.ones(4), np.ones(4)) == 0.0
    return bool(ok), f"(1,0)vs(1,1) -> {a:.6f}"


def check_interp_linear_exact():
    h = w = 16
    yy, xx = np.mgrid[0:h, 0:w]
    f = (0.3 * xx + 0.7 * yy + 1.0)[..., None]
    grid = np.zeros((h, w), dtype=np.uint8)
    grid[:4] = grid[-4:] = 1
    grid[:, :4] = grid[:, -4:] = 1
    m = mk.ObservationMask(grid, mk.PATCHWISE, 0.5, 4, 0)
    filled = ev.interp_fill_baseline(f, m)
    dev = np.abs(filled - f).max()
    return dev < 1e-6, f"linear-field recovery dev {dev:.2e}"


def check_round_trips(tmp_dir):
    import tempfile
    with tempfile.TemporaryDirectory(dir=tmp_dir or None) as td:
        traj = pg.solve_diffusion_reaction(pg.GridGeometry(16, 16), seed=1,
                                           t_steps=4, dt=0.02)
        p = f"{td}/t.pobd"
        pg.write_trajectory(traj, p)
        ok = np.array_equal(pg.read_trajectory(p).frames, traj.frames)

        m = mk.gen_patchwise_mask(16, 16, 0.25, 4, seed=2)
        mp = f"{td}/m.pobm"
        mk.write_mask(m, mp)
        ok &= np.array_equal(mk.read_mask(mp).grid, m.grid)

        cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                             history=2, phys_channels=1)
        params = md.ModelParams(cfg, seed=3)
        cp = f"{td}/c.pobw"
        md.save_checkpoint(params, cp)
        with open(cp, "rb") as f:     # header, config text and float32 data alone
            ok &= len(f.read()) == (12 + len(md.config_to_text(cfg))
                                    + 4 * md.count_parameters(cfg))
        loaded = md.load_checkpoint(cp)
        ok &= all(np.array_equal(a.data, b.data)
                  for (_, a), (_, b) in zip(params.items(), loaded.items()))
    return bool(ok), "dataset/mask/checkpoint round-trips bit-exact, sizes exact"


CHECKS = [
    ("matmul_triple_loop", "tensor", check_matmul_triple_loop),
    ("mlp_gradient_fd", "tensor", check_mlp_gradient_fd),
    ("softmax_probability_rows", "tensor", check_softmax_probability_rows),
    ("slice_softmax_reference", "tensor", check_slice_softmax_reference),
    ("gelu_layernorm_reference", "tensor", check_gelu_layernorm_reference),
    ("ns_viscous_decay", "pdegen", check_ns_viscous_decay),
    ("ns_mean_conservation", "pdegen", check_ns_mean_conservation),
    ("dr_mean_conservation", "pdegen", check_dr_mean_conservation),
    ("dr_scalar_ode", "pdegen", check_dr_scalar_ode),
    ("dr_mode_decay", "pdegen", check_dr_mode_decay),
    ("ns_energy_neutral_advection", "pdegen", check_ns_energy_neutral_advection),
    ("ns_advection_closed_form", "pdegen", check_ns_advection_closed_form),
    ("patch_counting", "masking", check_patch_counting),
    ("pointwise_monte_carlo", "masking", check_pointwise_monte_carlo),
    ("kernel_oracle", "model", check_kernel_oracle),
    ("kernel_column_support", "model", check_kernel_column_support),
    ("kernel_identity_self_update", "model", check_kernel_identity_self_update),
    ("mask_coverage_dilation", "model", check_mask_coverage_dilation),
    ("pconv_full_mask_reduction", "model", check_pconv_full_mask_reduction),
    ("single_token_closed_forms", "model", check_single_token_closed_forms),
    ("model_gradient_fd", "model", check_model_gradient_fd),
    ("adam_first_step", "training", check_adam_first_step),
    ("one_cycle_endpoints", "training", check_one_cycle_endpoints),
    ("descent_step", "training", check_descent_step),
    ("relative_l2_cases", "evaluation", check_relative_l2_cases),
    ("interp_linear_exact", "evaluation", check_interp_linear_exact),
    ("round_trips", "io", check_round_trips),
]


def run_suite(out_csv=None, tmp_dir=None) -> tuple[bool, list]:
    """Run the oracle suite at 64-bit; returns (all_passed, results)."""
    results = []
    for name, group, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            if fn is check_round_trips:
                ok, detail = fn(tmp_dir)
            else:
                ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {e!r}"
        results.append(CheckResult(name, group, bool(ok), detail,
                                   time.perf_counter() - t0))
    if out_csv:
        ev.write_rows(out_csv, [
            {"check": r.name, "group": r.group, "passed": int(r.ok),
             "detail": r.detail, "seconds": f"{r.seconds:.3f}"}
            for r in results])
    return all(r.ok for r in results), results
