"""The allocating RK4 step the package used before its stage buffers were held.

`rk4` and `kuramoto_rhs` are that integrator and right-hand side as they
were: every stage, stage input and weighted sum a new array, and the coupling
sums taken by two products. The rhs callbacks take the signal values and
return their value. A sinusoid signal is read through `sinusoid_oracle`, its
dense formula at every entry, and a shared frequency is broadcast onto a batch
at every stage. The tests hold the package's in-place step to them bit for
bit.
"""

from __future__ import annotations

import numpy as np

import sinusoid_oracle

BLOCK = 64  # RK4 steps per block: a smooth signal is read once a block


def kuramoto_rhs(theta, w, a):
    # sum_j a_ij sin(theta_j - theta_i)
    #   = cos(theta_i) (A sin theta)_i - sin(theta_i) (A cos theta)_i
    s, c = np.sin(theta), np.cos(theta)
    if a.ndim == 3:  # one coupling matrix per run
        return w + c * (a @ s[..., None])[..., 0] - s * (a @ c[..., None])[..., 0]
    return w + c * np.dot(s, a.T) - s * np.dot(c, a.T)


def rk4(rhs, y0, t0, dt, nsteps, signals=(), out=None):
    """Classical 4th-order integration of y' = rhs(y, *signal values); returns the last state."""
    t_end = t0 + nsteps * dt
    pieces = [i for i, sig in enumerate(signals) if sig.is_piecewise_constant]
    smooth = [i for i, sig in enumerate(signals) if not sig.is_piecewise_constant]
    cuts = {0, nsteps}
    for i in pieces:
        steps = np.rint((signals[i].breakpoints_in(t0, t_end) - t0) / dt)
        cuts.update(int(k) for k in steps if 0 < k < nsteps)
    cuts = sorted(cuts)
    values = [None] * len(signals)
    half, sixth = 0.5 * dt, dt / 6.0
    y = y0
    if out is not None:
        out[0] = y0
    for lo, hi in zip(cuts, cuts[1:]):
        for i in pieces:
            values[i] = signals[i].evaluate(t0 + lo * dt)
        for first in range(lo, hi, BLOCK):
            ts = t0 + np.arange(first, min(first + BLOCK, hi) + 1) * dt
            ends = [sinusoid_oracle.evaluate(signals[i], ts) for i in smooth]
            mids = [sinusoid_oracle.evaluate(signals[i], ts[:-1] + half) for i in smooth]
            va, vb, vc = list(values), list(values), list(values)
            for j, t in enumerate(ts[:-1].tolist()):
                for i, end, mid in zip(smooth, ends, mids):
                    va[i], vb[i], vc[i] = end[j], mid[j], end[j + 1]
                k1 = rhs(y, *va)
                k2 = rhs(y + half * k1, *vb)
                k3 = rhs(y + half * k2, *vb)
                k4 = rhs(y + dt * k3, *vc)
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.isfinite(y).all():
                    raise RuntimeError(f"state blew up at t = {t + dt:.6f} s")
                if out is not None:
                    out[first + j + 1] = y
    return y


def simulate(theta0, omega, coupling, t_end, dt):
    """Phases (N+1, m) or (R, N+1, m) of one start or a batch, laid out as simulate does."""
    theta0 = np.asarray(theta0, dtype=float)
    nsteps = int(round(t_end / dt))
    phases = np.empty(theta0.shape[:-1] + (nsteps + 1, theta0.shape[-1]))
    rk4(kuramoto_rhs, theta0, 0.0, dt, nsteps, (omega, coupling), out=np.moveaxis(phases, -2, 0))
    return phases
