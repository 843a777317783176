"""Per-step NumPy reference kernels.

These are the one-step forms of the Godunov selection, the conservative
update, the upwind transport step and the Lax-Friedrichs fluxes. No solver
calls them: the step loops in `scalar` and `chroma` do the same arithmetic
in per-solve buffers, and the tests compare the solvers against these
forms bitwise. Keep every arithmetic expression in the order written here.
"""
import math

import numpy as np

# perfbench's run header reads splitlaw.BACKEND.
BACKEND = "python"


def godunov_fluxes(a, b, ga, gb, g_omega, omega, convex):
    """Interface fluxes from left/right states and precomputed g values.

    a, b: finite states; ga, gb: g(a), g(b); omega: interior critical
    point of g (+-inf when g is monotone on the data range); convex: 1 for
    convex, 0 for concave.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    ga = np.asarray(ga)
    gb = np.asarray(gb)
    up = a <= b
    if math.isinf(omega):
        # g is monotone on the range, so the clamped critical point is the
        # same endpoint at every interface: a when g increases (convex with
        # omega = -inf, concave with omega = +inf), b when it decreases
        end = ga if (omega < 0.0) == bool(convex) else gb
        if convex:
            return np.where(up, end, np.maximum(ga, gb))
        return np.where(up, np.minimum(ga, gb), end)
    if convex:
        # min over [a,b] sits at the clamped critical point; max over [b,a]
        # at an endpoint
        rare = np.where(omega <= a, ga, np.where(omega >= b, gb, g_omega))
        return np.where(up, rare, np.maximum(ga, gb))
    shock = np.where(omega >= a, ga, np.where(omega <= b, gb, g_omega))
    return np.where(up, np.minimum(ga, gb), shock)


def scalar_step(v, G, mu):
    """Conservative update, associated as (v - mu*G_out) + mu*G_in.

    The pairing matters: the transport stage reuses exactly these two terms,
    so the v of a split run is bit-identical to this one.
    """
    alpha = v - mu * G[1:]
    beta = mu * G[:-1]
    return alpha + beta


def upwind_step(v, w, G, mu, periodic):
    """Advance (v, w) one step; w uses lambda = w/v from the upwind (left) cell.

    Returns (v_new, w_new). 0/0 := 0 for lambda. Under the CFL bound both
    alpha and beta are nonnegative multiples of v, which is what makes
    |w| <= v and the sign of w exact invariants of this form.
    """
    alpha = v - mu * G[1:]
    beta = mu * G[:-1]
    lam = np.divide(w, v, out=np.zeros_like(v), where=v != 0.0)
    if periodic:
        lam_left = np.roll(lam, 1)
    else:
        lam_left = np.empty_like(lam)
        lam_left[1:] = lam[:-1]
        lam_left[0] = lam[0]
    w_new = lam * alpha + lam_left * beta
    v_new = alpha + beta
    return v_new, w_new


def lxf_fluxes(u, F, inv2mu):
    """Lax-Friedrichs interface fluxes from extended state/flux arrays."""
    u = np.asarray(u)
    F = np.asarray(F)
    return 0.5 * (F[:-1] + F[1:]) - inv2mu * (u[1:] - u[:-1])
