"""Hamming-weight-conditioned dynamics of the two driven readout resonators.

Everything lives in the rotating frame of the drive.  Detunings are
``detuning_i = omega_i - omega_drive`` (resonator minus drive), so the
coherent field amplitudes obey the linear pair

    d a1/dt = -i [D1 + chi1 K] a1 - i chi12 K a2
              - (k1/2) a1 - sqrt(k1 k2)/2 a2 - i sqrt(k1) beta_in(t)

with ``K = 3 - 2 h_w`` and the mirrored equation for a2.  The output field is
``beta_out = beta_in - i (sqrt(k1) a1 + sqrt(k2) a2)``; with this pairing the
steady-state reflection coefficient is exactly unimodular.  (The two drive
sign conventions found in input-output treatments differ by a global phase of
the intracavity field; observables are insensitive to the choice.)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateResponse, SingularResponseMatrix, StepTooLarge
# the records the integrator takes, defined without numpy for the config parser
from .measurement import (  # noqa: F401 -- re-exported
    DEFAULT_STEP_FACTOR,
    RK4_STEP_BUDGET,
    DrivePulse,
    MeasurementSetup,
)
from .records import Record

STEP_MARGIN = 0.01          # dt <= STEP_MARGIN * min(1/kappa, 1/|D + 3 chi|)
PROBE_RTOL = 1e-8
RECORD_TARGET = 2800        # aim for ~2801 stored samples per trajectory
RECURRENCE_CHUNK = 256      # most steps or blocks summed at once; bounds the scratch arrays


def hamming_prefactor(hamming_weight):
    """Collective qubit weight K = 3 - 2 h_w entering all chi terms."""
    if hamming_weight not in (0, 1, 2, 3):
        raise ValueError("hamming_weight must be one of 0..3")
    return 3 - 2 * hamming_weight


def _envelope_pieces(pulse):
    """The pulse shape, the one definition of it: on its five pieces (off,
    rising, flat, falling, off) the envelope is c0[p] + c1[p] (exp(i phi) +
    exp(-i phi)) with phi = pi (t - t_ref[p]) / ramp, that is sum_j c_j
    exp(s_j (t - t_ref)) over s = (0, i pi/ramp, -i pi/ramp).  Piece p holds
    the t with p joints <= t.  Returns the four joints, c0, c1 and t_ref."""
    eps, sig = pulse.amplitude, pulse.ramp
    on, off = pulse.t_on, pulse.t_off
    return (np.array([on, on + sig, off, off + sig]),
            np.array([0.0, eps / 2.0, eps, eps / 2.0, 0.0]),
            np.array([0.0, -eps / 4.0, 0.0, eps / 4.0, 0.0]),
            np.array([0.0, on, 0.0, off, 0.0]))


def drive_envelope(t, pulse):
    """Evaluate the pulse envelope at time(s) t."""
    t_arr = np.asarray(t, dtype=float)
    t_flat = t_arr.reshape(-1)
    joints, c0, c1, t_ref = _envelope_pieces(pulse)
    piece = np.searchsorted(joints, t_flat, side="right")
    out = c0[piece]
    ramps = c1[piece] != 0.0
    p = piece[ramps]
    out[ramps] += 2.0 * c1[p] * np.cos(np.pi / pulse.ramp * (t_flat[ramps] - t_ref[p]))
    return float(out[0]) if np.isscalar(t) else out.reshape(t_arr.shape)


def mode_matrix(setup, hamming_weight):
    """2x2 generator of the coherent-amplitude pair for one Hamming weight."""
    k = hamming_prefactor(hamming_weight)
    m = setup.model
    cross = -1j * m.quantum_switch * k - math.sqrt(setup.kappa1 * setup.kappa2) / 2.0
    return np.array([
        [-1j * (setup.detuning1 + m.chi1 * k) - setup.kappa1 / 2.0, cross],
        [cross, -1j * (setup.detuning2 + m.chi2 * k) - setup.kappa2 / 2.0],
    ])


def _drive_vector(setup):
    return np.array([math.sqrt(setup.kappa1), math.sqrt(setup.kappa2)])


class Trajectory(Record):
    """Recorded coherent amplitudes and output field on a uniform grid."""

    times: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    drive: np.ndarray
    output: np.ndarray
    hamming_weight: int
    step: float

    def __post_init__(self):
        n = self.times.size
        if any(arr.size != n for arr in (self.alpha1, self.alpha2, self.drive, self.output)):
            raise ValueError("trajectory arrays must share one grid")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("time grid must be strictly increasing")
        if self.hamming_weight not in (0, 1, 2, 3):
            raise ValueError("hamming_weight must be one of 0..3")


def output_field(alpha1, alpha2, drive, setup):
    """Input-output combination beta_out = beta_in - i (sqrt(k1) a1 + sqrt(k2) a2)."""
    return drive - 1j * (math.sqrt(setup.kappa1) * alpha1 + math.sqrt(setup.kappa2) * alpha2)


def _step_bound(setup):
    rate = max(
        setup.kappa1,
        setup.kappa2,
        abs(setup.detuning1) + 3.0 * abs(setup.model.chi1),
        abs(setup.detuning2) + 3.0 * abs(setup.model.chi2),
        3.0 * abs(setup.model.quantum_switch),
    )
    return STEP_MARGIN / rate if rate > 0 else math.inf


def _rk4_coefficients(m, dt, u):
    """One-step RK4 propagator for da/dt = M a + u b(t) with scalar drive b.

    Classical RK4 applied to a linear system collapses to a constant step
    matrix plus three drive weights (b at the left node, midpoint, right
    node); this is algebraically identical to the textbook four-stage form.
    ``m`` is one 2x2 generator or a stack (..., 2, 2) and ``u`` is (..., 2).
    """
    eye = np.eye(2, dtype=complex)
    m2 = m @ m
    m3 = m2 @ m
    m4 = m3 @ m
    step = eye + dt * m + dt ** 2 / 2.0 * m2 + dt ** 3 / 6.0 * m3 + dt ** 4 / 24.0 * m4
    u = u[..., None]
    w_left = (dt / 6.0 * (eye + dt * m + dt ** 2 / 2.0 * m2 + dt ** 3 / 4.0 * m3) @ u)[..., 0]
    w_mid = (dt / 6.0 * (4.0 * eye + 2.0 * dt * m + dt ** 2 / 2.0 * m2) @ u)[..., 0]
    w_right = dt / 6.0 * u[..., 0]
    return step, w_left, w_mid, w_right


def _schur2(m):
    """Complex Schur form of a 2x2 matrix or a stack of them, M = Q T Q^H
    with T upper triangular.

    One unit eigenvector v of M and its orthonormal complement w make the
    unitary Q = [v, w]; then (Q^H M Q)[1, 0] = lam w^H v = 0.  A single
    eigenpair exists for every M, so defective M need no special case.
    """
    v = np.linalg.eig(m)[1][..., :, 0]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    q = np.stack([np.stack([v[..., 0], -v[..., 1].conjugate()], axis=-1),
                  np.stack([v[..., 1], v[..., 0].conjugate()], axis=-1)], axis=-2)
    t = np.swapaxes(q.conj(), -1, -2) @ m @ q
    t[..., 1, 0] = 0.0
    return t, q


def _scan(step, g):
    """y[k] = step y[k-1] + g[k] for every k along the last axis of g (..., 2, n),
    from y[-1] = 0, by a doubling scan (Hillis and Steele, CACM 29, 1170, 1986):
    pass s adds P y[k - s] with P = step^s, so after it y[k] sums the terms
    of its last 2 s inputs.  Matrix products alone: no power of step is ever
    inverted, so no decay or growth needs a bound.  g is overwritten."""
    s, p = 1, step
    while s < g.shape[-1]:
        g[..., s:] += p @ g[..., :-s]
        s, p = 2 * s, p @ p
    return g


def _advance(step, forcing, n, out=None):
    """``n`` terms of y <- step y + g from y = 0, one RECURRENCE_CHUNK of terms
    at a time: the last value of a chunk enters the first term of the next.
    ``forcing(i, j)`` gives g (..., 2, j - i) of terms i..j-1, and with ``out``
    (..., 2, n) each chunk of values is stored there before the next chunk
    is built.  Returns the last value, (..., 2, 1)."""
    y = np.zeros(step.shape[:-1] + (1,), dtype=complex)
    for start in range(0, n, RECURRENCE_CHUNK):
        stop = min(start + RECURRENCE_CHUNK, n)
        g = forcing(start, stop)
        g[..., :1] += step @ y
        z = _scan(step, g)
        y = z[..., -1:].copy()
        if out is not None:
            out[..., start:stop] = z
        del g, z        # before the next chunk is built: one chunk at a time
    return y


def _integrate(m, u, pulse, dt, n_steps, stride, records=False):
    """RK4 recurrence a[n+1] = S a[n] + f[n] from vacuum, recorded every ``stride`` steps.

    ``m`` is one 2x2 generator or a stack (..., 2, 2) sharing the drive
    vector ``u`` and the pulse.  Returns the final amplitudes (a1, a2), each
    (..., 1), or with ``records`` every record, each (..., n_steps // stride
    + 1), record 0 being the vacuum.  Solved in the complex Schur basis of
    the generator,
    M = Q T Q^H, which exists for every M (defective ones included): there
    the step p(dt T) is upper triangular, and so is every power of it, with
    entry [1, 0] exactly 0.  So the second component stays an exact scalar
    recurrence, as in the step loop.  (In M's own basis the rounding of the
    scan leaks into an undamped mode, as at chi = 0, 1e-9 of the final value.)

    Each block of ``stride`` steps between two records is one jump y[k+1] =
    S^stride y[k] + F[k].  Inside one pulse piece the drive is sum_j c_j
    exp(s_j t), so F[k] = G z[k] with z_j[k] = c_j exp(s_j (t_k - t_ref)),
    where G comes from the power of the augmented step (Van Loan, IEEE TAC
    23, 395, 1978)

        A^stride = [[S, W], [0, diag(mu)]]^stride = [[S^stride, G], [0, ...]],
        mu_j = exp(s_j dt),  W_j = w_left + w_mid mu_j^(1/2) + w_right mu_j,

    which never divides by lam - mu, so a drive resonant with the generator
    needs no special case.  A block whose end nodes fall in different pieces
    straddles a joint; its F[k] is its own steps of S with the sampled drive.
    The jumps, like those steps, are summed by ``_scan``.
    """
    t, q = _schur2(m)
    r, v_left, v_mid, v_right = _rk4_coefficients(t, dt, np.swapaxes(q.conj(), -1, -2) @ u)
    n_blocks = n_steps // stride
    edges = np.arange(n_blocks + 1) * stride * dt
    joints, c0, c1, t_ref = _envelope_pieces(pulse)
    # the piece of each block's end nodes, as drive_envelope classifies them
    piece = np.searchsorted(joints, edges, side="right")
    block_piece, whole = piece[:-1], piece[:-1] == piece[1:]
    # the ramp exponentials only where a whole block needs them: pi/ramp may
    # overflow for a ramp shorter than one block
    ramps = bool(np.any(whole & (c1[block_piece] != 0.0)))
    rates = np.array([0.0, 1j * np.pi / pulse.ramp, -1j * np.pi / pulse.ramp] if ramps else [0.0])
    mu, half = np.exp(rates * dt), np.exp(rates * dt / 2.0)
    dim = 2 + rates.size
    a = np.zeros(m.shape[:-2] + (dim, dim), dtype=complex)
    a[..., :2, :2] = r
    a[..., :2, 2:] = v_left[..., None] + v_mid[..., None] * half + v_right[..., None] * mu
    a[..., range(2, dim), range(2, dim)] = mu
    jump = np.linalg.matrix_power(a, stride)

    def sampled(i, j):
        # RK4 forcing of steps i..j-1 from their j - i + 1 nodes and j - i midpoints
        size = j - i
        nodes = np.arange(i, j + 1) * dt
        beta = drive_envelope(np.concatenate([nodes, nodes[:-1] + dt / 2.0]), pulse)
        return (v_left[..., None] * beta[:size] + v_mid[..., None] * beta[size + 1:]
                + v_right[..., None] * beta[1:size + 1])

    def forcing(i, j):
        # F[k] of blocks i..j-1
        p = block_piece[i:j]
        g = jump[..., :2, 2, None] * c0[p]
        if ramps:
            # c1 exp(i phi), and its conjugate c1 exp(-i phi)
            wave = c1[p] * np.exp(rates[1] * (edges[i:j] - t_ref[p]))
            g += jump[..., :2, 3, None] * wave
            g += jump[..., :2, 4, None] * wave.conj()
        for k in np.flatnonzero(~whole[i:j]):
            g[..., k:k + 1] = _advance(
                r, lambda a, b, first=(i + k) * stride: sampled(first + a, first + b), stride)
        return g

    if records:
        y = np.zeros(m.shape[:-2] + (2, n_blocks + 1), dtype=complex)
        _advance(jump[..., :2, :2], forcing, n_blocks, y[..., 1:])  # block k ends at record k + 1
    else:
        y = _advance(jump[..., :2, :2], forcing, n_blocks)
    # back to M's basis, a1 = Q00 y1 + Q01 y2 and a2 = Q10 y1 + Q11 y2
    q = q[..., None]
    y1, y2 = y[..., 0, :], y[..., 1, :]
    return (y1 * q[..., 0, 0, :] + q[..., 0, 1, :] * y2,
            y2 * q[..., 1, 1, :] + q[..., 1, 0, :] * y1)


def evolve(setup, hamming_weight, t_final, dt=None, stride=None, probe=True):
    """Integrate the driven amplitude pair of Hamming weight ``hamming_weight``
    from vacuum with fixed-step RK4; returns its Trajectory.

    ``dt`` defaults to ``1e-3 / max(kappa)`` and must respect ``dt <= 0.01 *
    min(1/kappa, 1/|detuning + 3 chi|)``, else StepTooLarge; it is nudged so
    the horizon is a whole number of steps.  With ``probe=True`` the
    trajectory is repeated at dt/2 (the same ``_integrate`` call on the same
    record grid) and its final amplitudes must agree to 1e-8 relative,
    otherwise StepTooLarge.  ``stride`` controls the recorded grid (default
    ~2801 samples, at most 2 * RECORD_TARGET + 1: where no divisor keeps that
    few, the step count moves to a multiple of the stride); the work grows
    with the records, not the steps.
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if dt is None:
        dt = DEFAULT_STEP_FACTOR / setup.kappa_scale
    bound = _step_bound(setup)
    if dt > bound:
        raise StepTooLarge(f"dt = {dt:.3e} exceeds the stability margin {bound:.3e}")

    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    if stride is None:
        stride = max(1, n_steps // RECORD_TARGET)
        while n_steps % stride:
            stride -= 1
        if n_steps // stride > 2 * RECORD_TARGET:
            # no divisor near the target (a prime count ends at stride 1): move
            # the steps to the nearest multiple of the target stride instead
            stride = n_steps // RECORD_TARGET
            n_steps = (n_steps + stride // 2) // stride * stride
            dt = t_final / n_steps
    elif n_steps % stride:
        raise ValueError("stride must divide the number of steps")

    m = mode_matrix(setup, hamming_weight)
    u = -1j * _drive_vector(setup)
    pulse = setup.pulse
    if probe:
        # the half-step run keeps its final amplitudes only
        f1, f2 = _integrate(m, u, pulse, dt / 2.0, 2 * n_steps, 2 * stride)
    a1, a2 = _integrate(m, u, pulse, dt, n_steps, stride, records=True)
    if probe:
        ref = np.maximum(np.maximum(np.abs(f1), np.abs(f2)), 1e-30)
        err = np.max(np.maximum(np.abs(a1[..., -1:] - f1), np.abs(a2[..., -1:] - f2)) / ref)
        if not err <= PROBE_RTOL:       # a NaN fails too
            raise StepTooLarge(f"h_w={hamming_weight}: half-step probe disagreement "
                               f"{err:.3e} > {PROBE_RTOL}")

    times = np.arange(0, n_steps + 1, stride) * dt
    drive = drive_envelope(times, pulse)
    return Trajectory(times=times, alpha1=a1, alpha2=a2, drive=drive,
                      output=output_field(a1, a2, drive, setup),
                      hamming_weight=hamming_weight, step=dt)


def steady_state(setup, hamming_weight, drive_amplitude=None):
    """Steady-state amplitudes under a constant drive.

    Solves the 2x2 response system M a = i v beta; for a decoupled resonator
    this reduces to ``a = -i sqrt(kappa) beta / (i(D + chi K) + kappa/2)``.
    """
    if drive_amplitude is None:
        drive_amplitude = setup.pulse.amplitude
    m = mode_matrix(setup, hamming_weight)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    scale = max(abs(m[0, 0]), abs(m[1, 1]), abs(m[0, 1])) ** 2
    if abs(det) <= 1e-15 * scale:
        raise SingularResponseMatrix("response matrix is singular")
    rhs = 1j * _drive_vector(setup) * drive_amplitude
    a1 = (m[1, 1] * rhs[0] - m[0, 1] * rhs[1]) / det
    a2 = (m[0, 0] * rhs[1] - m[1, 0] * rhs[0]) / det
    return a1, a2


def reflection(setup, hamming_weight):
    """Frequency-domain reflection coefficient at the drive frequency.

    Writing D_i' = detuning_i + chi_i K,

        X = D1' D2' - (K chi12)^2
        N = k1 D2' + k2 D1' - 2 sqrt(k1 k2) K chi12
        r = (X + i N/2) / (X - i N/2),

    manifestly unimodular for a lossless two-resonator bus.  Raises
    DegenerateResponse when the denominator vanishes.
    """
    k = hamming_prefactor(hamming_weight)
    m = setup.model
    d1 = setup.detuning1 + m.chi1 * k
    d2 = setup.detuning2 + m.chi2 * k
    cross = k * m.quantum_switch
    x = d1 * d2 - cross ** 2
    n = (setup.kappa1 * d2 + setup.kappa2 * d1
         - 2.0 * math.sqrt(setup.kappa1 * setup.kappa2) * cross)
    denom = complex(x, -0.5 * n)
    scale = max(d1 * d1, d2 * d2, cross * cross, setup.kappa1 ** 2, setup.kappa2 ** 2)
    if abs(denom) <= 1e-15 * scale:
        raise DegenerateResponse("reflection denominator vanished")
    return complex(x, 0.5 * n) / denom
