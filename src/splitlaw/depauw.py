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
from numpy.lib.stride_tricks import sliding_window_view

from .core import (Trajectory, _certified_sum, _cos_bump, _integer,
                   _interval, _worst_residual)
from .errors import ConstructionBug, InvalidArgument, UnresolvedScale

_BOX_SCALES = 4  # coarse-grained L1 reported at 2^0 .. 2^-3, grid allowing


class Grid2D:
    """2^m x 2^m cell grid on the unit torus."""

    def __init__(self, m):
        m = _integer(m, "m")
        if not 1 <= m <= 1022:  # past 1022, dx = 2^-m is subnormal
            raise InvalidArgument(f"need 1 <= m <= 1022, got m = {m}")
        self.m = m
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

    # the sums below are fsum's bits (core._certified_sum); on the +-1
    # and 0 fields of a mixing run they are plain np.sum

    def l1(self):
        return self.grid.dx ** 2 * _certified_sum(np.abs(self.values))

    def mass(self):
        return self.grid.dx ** 2 * _certified_sum(self.values)


def l1_distance_2d(a, b):
    if a.grid != b.grid:
        raise InvalidArgument("fields on different grids")
    diff = a.values - b.values
    return a.grid.dx ** 2 * _certified_sum(np.abs(diff, out=diff))


def chessboard(k, grid):
    """+-1 pattern with square tiles of side 2^-k."""
    k = _integer(k, "chessboard level")
    if k > grid.m:
        raise UnresolvedScale(f"chessboard level {k} finer than the grid")
    if k < 0:
        raise InvalidArgument("need k >= 0")
    # the tile at (a, b) is +1 when a + b is even: the product of the
    # +-1 tile parities of its row and column, exactly +-1.0
    s = _parities(k, grid, float)
    return CellField2D(grid, np.multiply.outer(s, s))


def _parities(k, grid, dtype):
    """The +-1 tile parity of chessboard level k along one axis."""
    tile = 2 ** (grid.m - k)
    return np.where(np.arange(grid.n) // tile % 2 == 0, 1, -1).astype(dtype)


class StageMap:
    """Cell permutation coarsening chessboard k to k-1, plus its field.

    The permutation rotates every other block (side 2^{-k+1}, staggered by
    half a block) a quarter turn counterclockwise. sup_unit is the time-1
    field's top speed, below 1 by construction, and bv_unit its total
    variation; a schedule runs the field scaled by its field_scale(t).

    The map is kept as one flat source per cell, src (int32 while the grid
    has at most 2^31 - 1 cells), and the field as its P x P period
    (P = 2B), which repeats over the grid.
    """

    def __init__(self, k, grid):
        k = _integer(k, "stage level")
        if k > grid.m:
            raise UnresolvedScale(f"stage level {k} finer than the grid")
        if k < 2:
            raise InvalidArgument("stages exist for k >= 2")
        self.k = k
        self.grid = grid
        self.B = 2 ** (grid.m - k + 1)  # block side in cells
        self.off = self.B // 2
        # int32 indices while every cell of the grid has one, intp past
        self._index = np.int32 if grid.n ** 2 <= np.iinfo(np.int32).max \
            else np.intp
        # permutation: out.flat[c] = values.flat[src.flat[c]]
        p, q = np.indices((self.B, self.B), dtype=self._index)
        self.src = self._sources(q, self.B - 1 - p)
        self._build_rings()
        self._measure_field()
        self._self_check()

    def _sources(self, lp, lq):
        """Flat sources (N x N) of the map that moves each cell (p, q) of
        every rotating block from block cell (lp[p, q], lq[p, q]) and fixes
        every other cell."""
        N, P = self.grid.n, 2 * self.B
        reps = N // P
        # the cell i = a*B + p + off (mod N) of a rotating block reads
        # a*B + lp[p, q] + off = i + lp[p, q] - p: a shift with period P
        # on both axes. The source row, times N, is written straight into
        # the result; the source column depends on (i mod P, j) only, so
        # it is made once for P rows and added to every P-row band
        p = np.arange(self.B, dtype=lp.dtype)
        cells = np.arange(N, dtype=lp.dtype)
        src = np.empty((N, N), dtype=lp.dtype)
        bands = src.reshape(reps, P, reps, P)
        np.add(self._period(lp - p[:, None]).reshape(1, P, 1, P),
               cells.reshape(reps, P, 1, 1), out=bands)
        src &= N - 1  # N is a power of two: % N, negatives included
        src *= N
        col = self._period(lq - p[None, :]).reshape(P, 1, P) \
            + cells.reshape(1, reps, P)
        col &= N - 1
        bands += col
        return src

    def _period(self, block):
        """The P x P corner (P = 2B) of the grid pattern that holds block on
        every rotating block and zero elsewhere. The pattern repeats every
        P cells on both axes, and P divides N as k >= 2."""
        B, h = self.B, self.off
        # the rotating blocks of the corner: rows h .. h+B-1 against the
        # columns from h+B round to h-1, and the same with rows and columns
        # swapped; a block's row (column) p sits at cell h + p, wrapped
        period = np.zeros((2 * B, 2 * B), dtype=block.dtype)
        mid = slice(h, h + B)
        period[mid, h + B:], period[mid, :h] = block[:, :h], block[:, h:]
        period[h + B:, mid], period[:h, mid] = block[:h], block[h:]
        return period

    def _build_rings(self):
        # concentric square rings of a block, cells listed counterclockwise:
        # right side going up, top going left, left going down, bottom
        # going right; ring r has side 2r+1 around the block centre, and
        # all rings are listed back to back, ring r from index 4 r^2 on
        h = self.B // 2
        r = np.arange(h, dtype=self._index)
        side = 2 * r + 1
        start = 4 * r ** 2
        ring = np.repeat(r, 4 * side)
        place = np.arange(4 * h * h, dtype=self._index)
        place -= start[ring]  # place within the ring
        leg, u = np.divmod(place, side[ring])  # the side, the step along it
        lo, hi = h - 1 - ring, h + ring
        # (p, q) on leg 0: (hi, lo + u), 1: (hi - u, hi), 2: (lo, hi - u),
        # 3: (lo + u, lo)
        p = np.where(leg < 2, hi, lo)
        p += np.array([0, -1, 0, 1], dtype=self._index)[leg] * u
        q = np.where((leg == 1) | (leg == 2), hi, lo)
        q += np.array([1, 0, -1, 0], dtype=self._index)[leg] * u
        self._ring_cells = p, q, ring, place

    def _components(self, X, Y, axes):
        """The time-1 field's components along axes ("x", "y" or "xy") at
        the offsets X, Y from a rotating block's centre.

        Square-vortex profile: speed 2 rho on the ring at sup-distance rho
        from the block centre, counterclockwise. On the diagonals the
        outgoing side wins.
        """
        aX, aY = np.abs(X), np.abs(Y)
        tie, XY = aX == aY, X * Y
        out = []
        if "x" in axes:
            horiz = (aY > aX) | (tie & (XY > 0))
            out.append(np.where(horiz, -2.0 * Y, 0.0))
        if "y" in axes:
            vert = (aX > aY) | (tie & (XY < 0))
            out.append(np.where(vert, 2.0 * X, 0.0))
        return tuple(out)

    def _measure_field(self):
        # Every rotating block holds the same field, so it is evaluated once,
        # on one block's offsets from its centre (exact multiples of dx/2),
        # and _period places it on the rotating blocks; zero elsewhere.
        # Broadcast axes stand in for meshgrids.
        r = np.arange(self.B) - self.B / 2.0
        centres, faces = (r + 0.5) * self.grid.dx, r * self.grid.dx
        vx, vy = self._components(centres[:, None], centres[None, :], "xy")
        self.sup_unit = float(max(np.max(np.abs(vx)), np.max(np.abs(vy))))
        self._vx_period, self._vy_period = self._period(vx), self._period(vy)
        del vx, vy
        self.bv_unit = self._variation()
        self.div_max = self._divergence_max(centres, faces)

    def _variation(self):
        """The field's total variation on the torus: that of one period,
        whose jumps (its wrap included) the grid repeats (N/P)^2 times.
        Every jump is a multiple of dx of size at most 2, so while m <= 16
        every partial sum is exact, and the period's sum times the power
        of two (N/P)^2 has the bits of the sum over the whole grid."""
        tv = 0.0
        for period in (self._vx_period, self._vy_period):
            for axis in (0, 1):
                jumps = np.diff(period, axis=axis)
                tv += np.sum(np.abs(jumps, out=jumps))
                wrap = period.take(0, axis) - period.take(-1, axis)
                tv += np.sum(np.abs(wrap))
        return float(tv) * (self.grid.n // (2 * self.B)) ** 2 * self.grid.dx

    def _divergence_max(self, centres, faces):
        """The largest face divergence, from a rotating block's offsets of
        its cell centres and faces. The divergence repeats with the field, so
        one period of it meets every value; past its last face a period
        wraps to its first. It is summed in place, in the order of
        (roll(vx_face, -1, 0) - vx_face + roll(vy_face, -1, 1) - vy_face)."""
        face = self._period(
            self._components(faces[:, None], centres[None, :], "x")[0])
        div = np.roll(face, -1, axis=0)
        div -= face
        del face
        face = self._period(
            self._components(centres[:, None], faces[None, :], "y")[0])
        div[:, :-1] += face[:, 1:]
        div[:, -1] += face[:, 0]
        div -= face
        div /= self.grid.dx
        return float(np.max(np.abs(div, out=div)))

    def center_field(self):
        """The time-1 field's components at the cell centres of the grid,
        made one at a time by tiling their periods."""
        reps = (self.grid.n // (2 * self.B),) * 2
        return (np.tile(period, reps)
                for period in (self._vx_period, self._vy_period))

    def apply(self, values):
        return values.ravel()[self.src]

    def apply_partial(self, values, fraction):
        """Rotate each ring by the nearest whole number of cells for the
        elapsed fraction of the quarter turn. Exact cyclic shifts, so the
        value multiset is preserved; the positions are approximate between
        stage boundaries.
        """
        if math.isnan(fraction):
            raise InvalidArgument("the fraction of a turn is NaN")
        if fraction <= 0.0:
            return values.copy()
        if fraction >= 1.0:
            return self.apply(values)
        # ring r turns by round(fraction * (2r + 1)) cells, half up; as
        # np.roll(ring, steps) does, each place takes the cell listed
        # steps places before it
        p, q, ring, place = self._ring_cells
        side = 2 * ring + 1
        steps = np.floor(fraction * side + 0.5).astype(self._index)
        src = 4 * ring ** 2 + (place - steps) % (4 * side)
        lp, lq = np.indices((self.B, self.B), dtype=self._index)
        lp[p, q], lq[p, q] = p[src], q[src]
        return values.ravel()[self._sources(lp, lq)]

    def _self_check(self):
        N = self.grid.n
        # read from the stored sources: the map is a permutation when its
        # N^2 flat sources are none negative, none past the last cell and
        # together read every cell
        src = self.src.ravel()
        if src.size != N * N or src.min() < 0 or src.max() >= N * N:
            raise ConstructionBug("stage map is not a permutation")
        read = np.zeros(N * N, dtype=bool)
        read[src] = True
        if not read.all():
            raise ConstructionBug("stage map is not a permutation")
        # the same gather as apply, on the +-1 chessboards held as int8
        fine, coarse = (_parities(level, self.grid, np.int8)
                        for level in (self.k, self.k - 1))
        if not np.array_equal(np.multiply.outer(fine, fine).ravel()[src],
                              np.multiply.outer(coarse, coarse).ravel()):
            raise ConstructionBug(
                f"stage {self.k} does not coarsen the chessboard")
        p, q, _, _ = self._ring_cells
        listed = np.bincount(p * self.B + q)
        if listed.size != self.B * self.B or listed.min() != 1:
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

    def __init__(self, variant, k_max, m, maps_from=None):
        if variant not in ("original", "strong"):
            raise InvalidArgument("variant must be 'original' or 'strong'")
        k_max, m = _integer(k_max, "k_max"), _integer(m, "m")
        if k_max < 2:
            raise InvalidArgument("need k_max >= 2")
        if k_max > m:
            raise UnresolvedScale("k_max finer than the grid resolves")
        if maps_from is not None and maps_from.m != m:
            raise InvalidArgument("maps_from is resolved at another scale")
        self.variant = variant
        self.k_max = k_max
        self.m = m
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
        self._stage_maps = {} if maps_from is None else maps_from._stage_maps

    def stage(self, k):
        """The StageMap of level k on this schedule's grid, built on first
        use. A StageMap depends only on (k, grid), so a schedule made with
        maps_from=other shares other's maps both ways: a level either one
        built is built once for both. Nothing is kept across schedules
        otherwise, so each fresh schedule pays for its own builds."""
        if not 2 <= k <= self.k_max:
            raise InvalidArgument(f"no stage at level {k}")
        st = self._stage_maps.get(k)
        if st is None:
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


def evolve(schedule, init, t_query):
    """Advect init through the schedule, sampling at the query times.

    States at stage boundaries are exact permutation images; inside a
    stage the rings have turned by whole cells for the elapsed fraction,
    still a permutation but positionally approximate (flagged in meta).
    Before the first stage the state is frozen at init. Each completed
    stage is applied once per call: the query times, in any order, are
    visited in increasing order.
    """
    times = [float(t) for t in t_query]
    fields, partial_flags = [None] * len(times), [None] * len(times)
    for i, vals, partial in _states(schedule, init, times):
        fields[i] = CellField2D(init.grid, vals)
        partial_flags[i] = partial
    meta = {"variant": schedule.variant, "k_max": schedule.k_max,
            "partial": partial_flags}
    return Trajectory(times, fields, meta)


def _states(schedule, init, times):
    """(i, values, partial) for each query time times[i], in increasing
    time, so only the state after the latest completed stage is kept."""
    if schedule.m != init.grid.m:
        raise InvalidArgument("schedule and data resolved at different scales")
    for t in times:
        if not 0.0 <= t <= schedule.T:
            raise InvalidArgument(f"t={t} outside the schedule support")
    state, done = init.values, 0  # the state after the first done stages
    for i in sorted(range(len(times)), key=times.__getitem__):
        t = times[i]
        j = sum(t >= t1 for _, _, t1 in schedule.stages)  # t1 increases
        for k, _, _ in schedule.stages[done:j]:
            state = schedule.stage(k).apply(state)
        done = j
        if j < len(schedule.stages) and t > schedule.stages[j][1]:
            k = schedule.stages[j][0]
            frac = schedule.progress(k, t)
            yield i, schedule.stage(k).apply_partial(state, frac), \
                0.0 < frac < 1.0
        else:
            yield i, state.copy(), False


def _fourier_modes(grid):
    """The nine lowest torus modes as sampled complex exponentials, made
    one at a time, each a read-only N x N view of one 1-D exp.

    The argument ax*X + by*Y at cell (i, j) is an exact dyadic sum, so it
    depends on the cell only through i (by = 0), j (ax = 0), i + j
    (ax = by) or i - j (ax = -by). The exp is taken once per distinct
    argument, at a cell of the full grid that has it and with the same
    expression, so every value is bitwise the full-grid one.
    """
    n = grid.n
    c = (np.arange(n) + 0.5) * grid.dx
    every, zero = np.arange(n), np.zeros(n, dtype=int)
    t = np.arange(2 * n - 1)  # i + j, or i - j + n - 1
    lo, hi = np.maximum(t - (n - 1), 0), np.minimum(t, n - 1)
    for ax in (-1, 0, 1):
        for by in (-1, 0, 1):
            if by == 0:  # a function of i: down one column
                e = _mode_at(c, ax, by, every, zero)
                yield np.broadcast_to(e[:, None], (n, n))
            elif ax == 0:  # a function of j: along one row
                e = _mode_at(c, ax, by, zero, every)
                yield np.broadcast_to(e[None, :], (n, n))
            elif ax == by:  # of i + j: [i, j] = e[i + j]
                yield sliding_window_view(_mode_at(c, ax, by, lo, hi), n)
            else:  # of i - j: [i, j] = e[i - j + n - 1]
                e = _mode_at(c, ax, by, lo, (n - 1) - hi)
                yield sliding_window_view(e, n)[:, ::-1]


def _mode_at(c, ax, by, i, j):
    """The mode (ax, by) at the cells (i, j), with the full grid's
    arithmetic."""
    return np.exp(-2j * np.pi * (ax * c[i] + by * c[j]))


def box_averaged_l1(field, j):
    """L1 norm after averaging over boxes of side 2^-j."""
    j = _integer(j, "box scale")
    if j > field.grid.m:
        raise UnresolvedScale("box scale finer than the grid")
    if j < 0:
        raise InvalidArgument(f"need box scale j >= 0, got j = {j}")
    tile = 2 ** (field.grid.m - j)
    nb = field.grid.n // tile
    v = field.values.reshape(nb, tile, nb, tile).mean(axis=(1, 3))
    return float(np.sum(np.abs(v))) * (tile * field.grid.dx) ** 2


def mixing_report(traj):
    """Per-time table: L1 norm, worst low-mode pairing, coarse L1 norms.

    The pairing is the modulus of the integral against the nine lowest
    Fourier modes. coarse_l1 lists the box-averaged L1 norms at scales
    2^-j for j = 0 .. min(3, m): a grid coarser than 2^-3 reports the
    scales it resolves.
    """
    grid = traj.grid
    dA = grid.dx ** 2
    # one mode alive at a time; each record keeps the first largest
    # modulus in mode order, as max() over the modes would
    worst = None
    for phi in _fourier_modes(grid):
        moduli = [abs(dA * np.sum(f.values * phi)) for f in traj.fields]
        worst = moduli if worst is None else list(map(max, worst, moduli))
    rows = []
    for t, f, w in zip(traj.times, traj.fields, worst):
        coarse = [box_averaged_l1(f, j)
                  for j in range(min(_BOX_SCALES, grid.m + 1))]
        rows.append({"t": t, "l1": f.l1(), "weak_max": float(w),
                     "coarse_l1": coarse})
    return rows


def field_diagnostics(schedule, t_list):
    """Per-time table: stage level and the field's sup and BV norms, from
    the stage's unit-time numbers and the field's scale at t."""
    rows = []
    for t in map(float, t_list):
        scale, k = schedule.field_scale(t)
        sup = bv = 0.0
        if k is not None:
            st = schedule.stage(k)
            sup, bv = float(scale * st.sup_unit), float(scale * st.bv_unit)
        rows.append({"t": t, "k": k, "sup": sup, "bv": bv})
    return rows


class SpaceTimeTest2D:
    """C^1 test function on (0,T) x torus, given by its analytic partials."""

    def __init__(self, dt_fn, dx_fn, dy_fn, t_support):
        self.dt = dt_fn
        self.dx = dx_fn
        self.dy = dy_fn
        self.t_support = (float(t_support[0]), float(t_support[1]))


def torus_test(t0, t1, ax, by, phase="cos"):
    """Bump in time times a single smooth torus mode in space: the cos or
    the sin of 2 pi (ax x + by y)."""
    if phase not in ("cos", "sin"):
        raise InvalidArgument(f"phase must be 'cos' or 'sin', got {phase!r}")
    t0, t1 = _interval(t0, t1, "time")
    ft, dft = _cos_bump(t0, t1)
    w = 2.0 * np.pi
    # the mode and its derivative in its argument
    sp, dsp = ((np.cos, lambda a: -np.sin(a)) if phase == "cos"
               else (np.sin, np.cos))

    def arg(X, Y):
        return w * (ax * X + by * Y)

    return SpaceTimeTest2D(
        dt_fn=lambda t, X, Y: dft(t) * sp(arg(X, Y)),
        dx_fn=lambda t, X, Y: ft(t) * (w * ax * dsp(arg(X, Y))),
        dy_fn=lambda t, X, Y: ft(t) * (w * by * dsp(arg(X, Y))),
        t_support=(t0, t1),
    )


_SAMPLES_PER_STAGE = 33  # trapezoid nodes per time segment


def continuity_residual_2d(schedule, init, test_fns):
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

    tests = []  # (test, the sample times of each segment it meets)
    for tf in test_fns:
        lo = max(tf.t_support[0], 0.0)
        hi = min(tf.t_support[1], schedule.T)
        if hi <= lo:
            continue
        tests.append((tf, [
            np.linspace(max(seg0, lo), min(seg1, hi), _SAMPLES_PER_STAGE)
            for seg0, seg1 in zip(breakpoints[:-1], breakpoints[1:])
            if min(seg1, hi) > max(seg0, lo)]))
    # every sample, test by test and segment by segment, and its test
    times = [float(t) for _, segments in tests for ts in segments for t in ts]
    owners = [tf for tf, segments in tests for ts in segments for _ in ts]
    # one pass of evolve over the samples, so each finished stage is
    # applied once, and one sample is held at a time
    slabs = [None] * len(times)
    for i, values, _ in _states(schedule, init, times):
        t, tf = times[i], owners[i]
        scale, k = schedule.field_scale(t)
        integ = np.asarray(tf.dt(t, X, Y), dtype=float)
        if k is not None and scale != 0.0:
            vx, vy = schedule.stage(k).center_field()
            integ = integ + scale * (
                vx * np.asarray(tf.dx(t, X, Y), dtype=float)
                + vy * np.asarray(tf.dy(t, X, Y), dtype=float))
        slabs[i] = dA * float(np.sum(values * integ))

    totals, at = [], 0
    for tf, segments in tests:
        total = 0.0
        for ts in segments:
            slab = np.asarray(slabs[at:at + len(ts)])
            at += len(ts)
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
