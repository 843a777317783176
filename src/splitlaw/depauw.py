"""Chessboard-mixing flows on the periodic unit square.

Each stage k turns a side-2^{-k} chessboard into the side-2^{-k+1} one by
rotating half the blocks of a staggered lattice through a quarter turn.
The stage is built as a cell permutation together with the square-vortex
velocity field whose time-1 flow realizes it, and is self-checked at
build time. Scheduling the stages on a shrinking sequence of time
intervals produces the two advection fields of interest here: the
original one (unit-scale speeds, BV blowing up toward t=0) and the
strongly time-continuous variant whose speeds also vanish at every stage
boundary. Both transport zero data to zero and chessboard data to a
coarse chessboard: two bounded solutions from weakly indistinguishable
starts.
"""
import math

import numpy as np

from .core import Trajectory, _worst_residual
from .errors import ConstructionBug, InvalidArgument, UnresolvedScale

_BOX_SCALES = 4  # coarse-grained L1 reported at 2^0 .. 2^-3


class Grid2D:
    """2^m x 2^m cell grid on the unit torus."""

    def __init__(self, m):
        if m < 1:
            raise InvalidArgument("need m >= 1")
        self.m = int(m)
        self.n = 2 ** self.m
        self.dx = 1.0 / self.n

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.m == other.m

    def __hash__(self):
        return hash(("Grid2D", self.m))

    def __repr__(self):
        return f"Grid2D(m={self.m})"


class CellField2D:
    """Cell values on a Grid2D; axis 0 is x, axis 1 is y."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n, grid.n):
            raise InvalidArgument("values shape does not match the grid")
        self.grid = grid
        self.values = values

    def copy(self):
        return CellField2D(self.grid, self.values.copy())

    def l1(self):
        return self.grid.dx ** 2 * math.fsum(
            np.abs(self.values).ravel().tolist())

    def mass(self):
        return self.grid.dx ** 2 * math.fsum(self.values.ravel().tolist())

    def linf(self):
        return float(np.max(np.abs(self.values)))


def l1_distance_2d(a, b):
    if a.grid != b.grid:
        raise InvalidArgument("fields on different grids")
    return a.grid.dx ** 2 * math.fsum(
        np.abs(a.values - b.values).ravel().tolist())


def chessboard(k, grid):
    """+-1 pattern with square tiles of side 2^-k."""
    if k > grid.m:
        raise UnresolvedScale(f"chessboard level {k} finer than the grid")
    if k < 0:
        raise InvalidArgument("need k >= 0")
    tile = 2 ** (grid.m - k)
    idx = np.arange(grid.n) // tile
    sign = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
    return CellField2D(grid, sign)


class StageMap:
    """Cell permutation coarsening chessboard k to k-1, plus its field.

    The permutation rotates every other block (side 2^{-k+1}, staggered by
    half a block) a quarter turn counterclockwise. The reported sup_norm
    is the time-1 field's top speed, below 1 by construction; the reported
    bv_norm is the variation of the field run at the schedule rate 2^k,
    which is the normalization that scales like 2^k. Both normalizations
    are kept as attributes.
    """

    def __init__(self, k, grid):
        if k > grid.m:
            raise UnresolvedScale(f"stage level {k} finer than the grid")
        if k < 2:
            raise InvalidArgument("stages exist for k >= 2")
        self.k = int(k)
        self.grid = grid
        N = grid.n
        self.B = 2 ** (grid.m - k + 1)  # block side in cells
        self.off = self.B // 2
        self.amplitude = 1.0  # time-1 normalization
        self._build_permutation()
        self._build_rings()
        self._measure_field()
        self._self_check()

    # permutation: out[i,j] = values[src_i[i,j], src_j[i,j]]
    def _build_permutation(self):
        N, B, off = self.grid.n, self.B, self.off
        i = np.arange(N)
        r = (i - off) % N  # rolled coordinate, used on both axes
        a, p = r[:, None] // B, r[:, None] % B
        b, q = r[None, :] // B, r[None, :] % B
        rot = (a + b) % 2 == 1
        src_i = np.where(rot, (a * B + q + off) % N, i[:, None])
        src_j = np.where(rot, (b * B + (B - 1 - p) + off) % N, i[None, :])
        self.src_i = src_i
        self.src_j = src_j

    def _build_rings(self):
        # concentric square rings of a block, cells listed counterclockwise
        B = self.B
        C = (B - 1) / 2.0
        rings = []
        for r in range(B // 2):
            rho = r + 0.5
            side = 2 * r + 1
            dx0 = []
            dy0 = []
            for u in range(side):  # right side, going up
                dx0.append(rho)
                dy0.append(-rho + u)
            for u in range(side):  # top side, going left
                dx0.append(rho - u)
                dy0.append(rho)
            for u in range(side):  # left side, going down
                dx0.append(-rho)
                dy0.append(rho - u)
            for u in range(side):  # bottom side, going right
                dx0.append(-rho + u)
                dy0.append(-rho)
            p = (np.asarray(dx0) + C).astype(int)
            q = (np.asarray(dy0) + C).astype(int)
            rings.append((p, q))
        self.rings = rings

    def _relative_coords(self, xc, yc):
        """Block-relative physical offsets and the rotating mask at the
        cell-unit coordinates (xc, yc)."""
        N, B, off = self.grid.n, self.B, self.off
        px = np.mod(xc - off, N)
        py = np.mod(yc - off, N)
        a = np.floor(px / B).astype(int)
        b = np.floor(py / B).astype(int)
        X = (px - a * B - B / 2.0) * self.grid.dx
        Y = (py - b * B - B / 2.0) * self.grid.dx
        rot = (a + b) % 2 == 1
        return X, Y, rot

    def unit_field(self, xc, yc):
        """Time-1 velocity at cell-unit coordinates (vectorized).

        Square-vortex profile: speed 2 rho on the ring at sup-distance rho
        from the block center, counterclockwise, zero off the rotating
        blocks. On the diagonals the outgoing side wins.
        """
        X, Y, rot = self._relative_coords(xc, yc)
        aX, aY = np.abs(X), np.abs(Y)
        horiz = (aY > aX) | ((aY == aX) & (X * Y > 0))
        vert = (aX > aY) | ((aX == aY) & (X * Y < 0))
        vx = np.where(rot & horiz, -2.0 * Y, 0.0)
        vy = np.where(rot & vert, 2.0 * X, 0.0)
        return vx, vy

    def _measure_field(self):
        N = self.grid.n
        dx = self.grid.dx
        # broadcast axes: the same elementwise arithmetic as full meshgrids
        c = np.arange(N) + 0.5
        vx, vy = self.unit_field(c[:, None], c[None, :])
        self._center_vx = vx
        self._center_vy = vy
        self.sup_unit = float(max(np.max(np.abs(vx)), np.max(np.abs(vy))))
        tv = 0.0
        for comp in (vx, vy):
            tv += np.sum(np.abs(np.diff(comp, axis=0)))
            tv += np.sum(np.abs(comp[0] - comp[-1]))
            tv += np.sum(np.abs(np.diff(comp, axis=1)))
            tv += np.sum(np.abs(comp[:, 0] - comp[:, -1]))
        self.bv_unit = float(tv) * dx
        rate = 2.0 ** self.k
        self.sup_scheduled = rate * self.sup_unit
        self.bv_scheduled = rate * self.bv_unit

        i = np.arange(N, dtype=float)
        vx_face, _ = self.unit_field(i[:, None], c[None, :])
        _, vy_face = self.unit_field(c[:, None], i[None, :])
        div = (np.roll(vx_face, -1, axis=0) - vx_face
               + np.roll(vy_face, -1, axis=1) - vy_face) / dx
        self.div_max = float(np.max(np.abs(div)))

    @property
    def sup_norm(self):
        return self.sup_unit

    @property
    def bv_norm(self):
        return self.bv_scheduled

    def apply(self, values):
        return values[self.src_i, self.src_j]

    def apply_partial(self, values, fraction):
        """Rotate each ring by the nearest whole number of cells for the
        elapsed fraction of the quarter turn. Exact cyclic shifts, so the
        value multiset is preserved; the positions are approximate between
        stage boundaries.
        """
        if fraction <= 0.0:
            return values.copy()
        if fraction >= 1.0:
            return self.apply(values)
        N, B, off = self.grid.n, self.B, self.off
        W = np.roll(values, (-off, -off), axis=(0, 1))
        out = W.copy()
        nb = N // B
        for a in range(nb):
            for b in range(nb):
                if (a + b) % 2 != 1:
                    continue
                blk = W[a * B:(a + 1) * B, b * B:(b + 1) * B]
                dst = out[a * B:(a + 1) * B, b * B:(b + 1) * B]
                for p, q in self.rings:
                    steps = int(math.floor(fraction * (len(p) / 4.0) + 0.5))
                    if steps:
                        dst[p, q] = np.roll(blk[p, q], steps)
        return np.roll(out, (off, off), axis=(0, 1))

    def _self_check(self):
        N = self.grid.n
        flat = self.src_i.astype(np.int64) * N + self.src_j
        if not np.array_equal(np.sort(flat, axis=None), np.arange(N * N)):
            raise ConstructionBug("stage map is not a permutation")
        fine = chessboard(self.k, self.grid)
        coarse = chessboard(self.k - 1, self.grid)
        if not np.array_equal(self.apply(fine.values), coarse.values):
            raise ConstructionBug(
                f"stage {self.k} does not coarsen the chessboard")
        ring_cells = sum(len(p) for p, _ in self.rings)
        if ring_cells != self.B * self.B:
            raise ConstructionBug("ring decomposition misses cells")


def build_stage(k, grid):
    return StageMap(k, grid)


def _ramp_fraction(k, m):
    return 2.0 ** (k - m - 2)


class _Trapezoid:
    """Unit-interval activation: cosine ramps of width r, plateau 1/(1-r).

    Mean one, vanishes at both endpoints, maximum strictly below the level
    that would push the scheduled stage speed to its ceiling.
    """

    def __init__(self, r):
        if not (0.0 < r < 0.5):
            raise InvalidArgument("ramp fraction must lie in (0, 1/2)")
        self.r = r
        self.peak = 1.0 / (1.0 - r)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        r, M = self.r, self.peak
        out = np.zeros_like(s)
        ramp_in = (s > 0.0) & (s < r)
        plateau = (s >= r) & (s <= 1.0 - r)
        ramp_out = (s > 1.0 - r) & (s < 1.0)
        out[ramp_in] = 0.5 * M * (1.0 - np.cos(np.pi * s[ramp_in] / r))
        out[plateau] = M
        out[ramp_out] = 0.5 * M * (1.0 - np.cos(np.pi * (1.0 - s[ramp_out]) / r))
        return out if out.shape else float(out)

    def integral(self, s):
        """Closed-form integral of value over [0, s]."""
        s = float(s)
        r, M = self.r, self.peak
        if s <= 0.0:
            return 0.0
        if s >= 1.0:
            return 1.0
        if s <= r:
            return 0.5 * M * (s - (r / math.pi) * math.sin(math.pi * s / r))
        if s <= 1.0 - r:
            return 0.5 * M * r + M * (s - r)
        return 1.0 - self.integral(1.0 - s)


class DyadicSchedule:
    """Stage timetable on [0, T], finest stage first.

    original: stage k occupies [2^-k, 2^-k+1] at rate 2^k.
    strong:   stage k occupies an interval of length k 2^-k, its rate
              2^k/k modulated by the trapezoid activation, so the field's
              top speed during stage k stays strictly below 2/k and drops
              to zero at both ends of the interval.
    """

    def __init__(self, variant, k_max, m):
        if variant not in ("original", "strong"):
            raise InvalidArgument("variant must be 'original' or 'strong'")
        if k_max < 2:
            raise InvalidArgument("need k_max >= 2")
        if k_max > m:
            raise UnresolvedScale("k_max finer than the grid resolves")
        self.variant = variant
        self.k_max = int(k_max)
        self.m = int(m)
        self.stages = []
        for k in range(k_max, 1, -1):
            if variant == "original":
                t0 = 2.0 ** (-k)
                t1 = 2.0 ** (-k + 1)
            else:
                t0 = (k + 2.0) * 2.0 ** (-k)
                t1 = (k + 1.0) * 2.0 ** (-k + 1)
            self.stages.append((k, t0, t1))
        self.T = self.stages[-1][2]
        self.t_start = self.stages[0][1]
        self._acts = {
            k: _Trapezoid(_ramp_fraction(k, m)) for k, _, _ in self.stages
        } if variant == "strong" else {}
        self._stage_maps = {}

    def stage(self, k):
        """The StageMap of level k on this schedule's grid, built on first
        use and kept on this schedule, so each schedule pays for its own
        builds."""
        st = self._stage_maps.get(k)
        if st is None:
            if not 2 <= k <= self.k_max:
                raise InvalidArgument(f"no stage at level {k}")
            st = self._stage_maps[k] = build_stage(k, Grid2D(self.m))
        return st

    def stage_at(self, t):
        """(k, t0, t1) of the stage containing t, or None outside all."""
        for k, t0, t1 in self.stages:
            if t0 <= t < t1:
                return k, t0, t1
        if t == self.T:
            return self.stages[-1]
        return None

    def progress(self, k, t):
        """Completed fraction of stage k's quarter turn at time t."""
        for kk, t0, t1 in self.stages:
            if kk == k:
                s = (t - t0) / (t1 - t0)
                s = min(max(s, 0.0), 1.0)
                if self.variant == "original":
                    return s
                return self._acts[k].integral(s)
        raise InvalidArgument(f"no stage at level {k}")

    def field_scale(self, t):
        """Multiplier of the time-1 stage field at time t (0 off-stage)."""
        hit = self.stage_at(t)
        if hit is None:
            return 0.0, None
        k, t0, t1 = hit
        if self.variant == "original":
            return 2.0 ** k, k
        s = (t - t0) / (t1 - t0)
        return (2.0 ** k / k) * float(self._acts[k].value(s)), k

    def activation(self, k, t):
        for kk, t0, t1 in self.stages:
            if kk == k:
                if self.variant == "original":
                    return 1.0 if t0 <= t <= t1 else 0.0
                return float(self._acts[k].value((t - t0) / (t1 - t0)))
        raise InvalidArgument(f"no stage at level {k}")


def evolve(schedule, init, t_query):
    """Advect init through the schedule, sampling at the query times.

    States at stage boundaries are exact permutation images; inside a
    stage the rings have turned by whole cells for the elapsed fraction,
    still a permutation but positionally approximate (flagged in meta).
    Before the first stage the state is frozen at init.
    """
    if schedule.m != init.grid.m:
        raise InvalidArgument("schedule and data resolved at different scales")
    times = []
    fields = []
    partial_flags = []
    for t in t_query:
        t = float(t)
        if t < 0.0 or t > schedule.T:
            raise InvalidArgument(f"t={t} outside the schedule support")
        vals = init.values
        partial = False
        for k, t0, t1 in schedule.stages:
            if t >= t1:
                vals = schedule.stage(k).apply(vals)
            elif t > t0:
                frac = schedule.progress(k, t)
                vals = schedule.stage(k).apply_partial(vals, frac)
                partial = 0.0 < frac < 1.0
                break
            else:
                break
        times.append(t)
        fields.append(CellField2D(init.grid, vals.copy()))
        partial_flags.append(partial)
    meta = {"variant": schedule.variant, "k_max": schedule.k_max,
            "partial": partial_flags}
    return Trajectory(times, fields, meta)


def _fourier_modes(grid):
    """The nine lowest torus modes as sampled complex exponentials."""
    c = (np.arange(grid.n) + 0.5) * grid.dx
    X, Y = np.meshgrid(c, c, indexing="ij")
    modes = []
    for ax in (-1, 0, 1):
        for by in (-1, 0, 1):
            modes.append(((ax, by),
                          np.exp(-2j * np.pi * (ax * X + by * Y))))
    return modes


def box_averaged_l1(field, j):
    """L1 norm after averaging over boxes of side 2^-j."""
    if j > field.grid.m:
        raise UnresolvedScale("box scale finer than the grid")
    tile = 2 ** (field.grid.m - j)
    nb = field.grid.n // tile
    v = field.values.reshape(nb, tile, nb, tile).mean(axis=(1, 3))
    return float(np.sum(np.abs(v))) * (tile * field.grid.dx) ** 2


def mixing_report(traj, test_fns=None):
    """Per-time table: L1 norm, worst low-mode pairing, coarse L1 norms.

    With no test_fns the pairing is the modulus of the integral against
    the nine lowest Fourier modes; custom callables phi(X, Y) are paired
    directly.
    """
    rows = []
    grid = traj.grid
    dA = grid.dx ** 2
    modes = _fourier_modes(grid) if test_fns is None else None
    if test_fns is not None:
        c = (np.arange(grid.n) + 0.5) * grid.dx
        X, Y = np.meshgrid(c, c, indexing="ij")
        sampled = [np.asarray(fn(X, Y), dtype=float) for fn in test_fns]
    for t, f in zip(traj.times, traj.fields):
        if modes is not None:
            worst = max(abs(dA * np.sum(f.values * phi)) for _, phi in modes)
        else:
            worst = max(abs(dA * float(np.sum(f.values * phi)))
                        for phi in sampled)
        coarse = [box_averaged_l1(f, j) for j in range(_BOX_SCALES)]
        rows.append({"t": t, "l1": f.l1(), "weak_max": float(worst),
                     "coarse_l1": coarse})
    return rows


def field_diagnostics(schedule, t_list, grid):
    """Per-time table: stage level, field sup and BV norms, and the sup
    distance to the previous sampled field."""
    if schedule.m != grid.m:
        raise InvalidArgument("schedule and grid resolved at different scales")
    rows = []
    prev = None
    for t in t_list:
        t = float(t)
        scale, k = schedule.field_scale(t)
        if k is None:
            vx = np.zeros((grid.n, grid.n))
            vy = np.zeros((grid.n, grid.n))
            sup = 0.0
            bv = 0.0
        else:
            st = schedule.stage(k)
            vx = scale * st._center_vx
            vy = scale * st._center_vy
            sup = scale * st.sup_unit
            bv = scale * st.bv_unit
        if prev is None:
            modulus = None
        else:
            modulus = float(max(np.max(np.abs(vx - prev[0])),
                                np.max(np.abs(vy - prev[1]))))
        rows.append({"t": t, "k": k, "sup": float(sup), "bv": float(bv),
                     "modulus_prev": modulus})
        prev = (vx, vy)
    return rows


class SpaceTimeTest2D:
    """C^1 test function on (0,T) x torus with analytic partials."""

    def __init__(self, fn, dt_fn, dx_fn, dy_fn, t_support):
        self.fn = fn
        self.dt = dt_fn
        self.dx = dx_fn
        self.dy = dy_fn
        self.t_support = (float(t_support[0]), float(t_support[1]))


def torus_test(t0, t1, ax, by, phase="cos"):
    """Bump in time times a single smooth torus mode in space."""
    from .core import _cos_bump
    ft, dft = _cos_bump(t0, t1)
    w = 2.0 * np.pi

    if phase == "cos":
        def sp(X, Y):
            return np.cos(w * (ax * X + by * Y))

        def spx(X, Y):
            return -w * ax * np.sin(w * (ax * X + by * Y))

        def spy(X, Y):
            return -w * by * np.sin(w * (ax * X + by * Y))
    else:
        def sp(X, Y):
            return np.sin(w * (ax * X + by * Y))

        def spx(X, Y):
            return w * ax * np.cos(w * (ax * X + by * Y))

        def spy(X, Y):
            return w * by * np.cos(w * (ax * X + by * Y))

    return SpaceTimeTest2D(
        fn=lambda t, X, Y: ft(t) * sp(X, Y),
        dt_fn=lambda t, X, Y: dft(t) * sp(X, Y),
        dx_fn=lambda t, X, Y: ft(t) * spx(X, Y),
        dy_fn=lambda t, X, Y: ft(t) * spy(X, Y),
        t_support=(t0, t1),
    )


def continuity_residual_2d(schedule, init, test_fns, samples_per_stage=33):
    """Weak residual of u_t + div(c u) = 0 for the scheduled advection.

    Quadrature of u (phi_t + c . grad phi) over space-time, per test
    function; the worst absolute value is returned. Time sampling is
    composite trapezoid per stage (plus the frozen lead-in), since the
    field switches at stage boundaries.
    """
    grid = init.grid
    if schedule.m != grid.m:
        raise InvalidArgument("schedule and data resolved at different scales")
    c = (np.arange(grid.n) + 0.5) * grid.dx
    X, Y = np.meshgrid(c, c, indexing="ij")
    dA = grid.dx ** 2

    breakpoints = [0.0, schedule.t_start]
    for _, _, t1 in schedule.stages:
        breakpoints.append(t1)

    totals = []
    for tf in test_fns:
        lo = max(tf.t_support[0], 0.0)
        hi = min(tf.t_support[1], schedule.T)
        if hi <= lo:
            continue
        total = 0.0
        for seg0, seg1 in zip(breakpoints[:-1], breakpoints[1:]):
            a = max(seg0, lo)
            b = min(seg1, hi)
            if b <= a:
                continue
            ts = np.linspace(a, b, samples_per_stage)
            traj = evolve(schedule, init, ts)
            slab = []
            for t, f in zip(traj.times, traj.fields):
                scale, k = schedule.field_scale(t)
                integ = np.asarray(tf.dt(t, X, Y), dtype=float)
                if k is not None and scale != 0.0:
                    st = schedule.stage(k)
                    integ = integ + scale * (
                        st._center_vx * np.asarray(tf.dx(t, X, Y), dtype=float)
                        + st._center_vy * np.asarray(tf.dy(t, X, Y), dtype=float))
                slab.append(dA * float(np.sum(f.values * integ)))
            slab = np.asarray(slab)
            dt = ts[1] - ts[0]
            total += float(dt * (np.sum(slab) - 0.5 * (slab[0] + slab[-1])))
        totals.append(abs(total))
    return _worst_residual(totals)


def strong_modulus_2d(traj, t0):
    """L1 distances to the t0 snapshot at each later record time."""
    f0 = traj.at(t0)
    out = []
    for t, f in zip(traj.times, traj.fields):
        if t <= t0:
            continue
        out.append((t, l1_distance_2d(f, f0)))
    return out
