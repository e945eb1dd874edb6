"""Monte Carlo path generation and empirical verification of exit-time bounds.

Schemes
-------
The process fixes its scheme (_scheme); a Levy process and an SDE driver
draw their increments by one of the first two:

exact_stable            increments drawn exactly for symmetric stable laws,
                        where the spec has a stable_family
compound_poisson_gauss  otherwise: jumps above a cutoff as compound Poisson,
                        smaller jumps as a Gaussian surrogate matching the
                        truncated second moment, drift recentred to the
                        |y| < 1 cutoff
euler_sde               an SDE: X_{k+1} = X_k + sigma(X_k) dL with pre-drawn
                        driver increments
freeze_symbol           a state-dependent family: one increment of the stable
                        law its stable_params give at the current state;
                        families without stable_params are not simulated

runmax includes the within-step pre-jump point of every scheme with a jump
part.  Randomness is counter-based: path p of a run with seed s draws from
Philox(key = s * 2^64 + p), so parallel and serial execution agree and
identical (config, model) inputs give identical output.

Memory: the stepper draws and finishes the paths a window of steps at a
time and hands each finished window to a reducer, which keeps what its
caller reads.  Each path parks its noise from its own stream straight into
the window's rows, which are then finished a block of max(1, BLOCK // m)
paths at a time (m steps per window); the stepper's own scratch is
O(BLOCK + steps), plus the jump words of one block.

- simulate_batch keeps everything: its one whole-horizon window's rows are
  its two outputs, values and runmax, the only n_paths x steps arrays.
- The estimators keep columns: each path's value and running maximum at
  the last grid time <= t for each t they read (_paths_at).  A Levy scheme
  takes one whole-horizon window whose blocks are finished in scratch rows.
  A state-dependent scheme (euler_sde, freeze_symbol) parks n_paths x m
  noise, twice, for a time loop that advances every path at once and
  overwrites it step by step; when its draws resume mid-path (see below)
  it takes windows of COLUMN_WINDOW steps, so it holds two n_paths x
  COLUMN_WINDOW arrays, not two n_paths x steps ones.
- first_exit_times, behind verify_bound_table's expected_exit, keeps each
  path's first exit time and a censored flag, and retires a path at its
  exit.  Its windows start at EXIT_WINDOW steps and double, and the run
  stops when no path is left.
- Only _park_cms draws (exact_stable, freeze_symbol, and euler_sde with a
  stable driver) can resume mid-path: a path of k steps draws k uniforms,
  one word each, then k exponentials, so it keeps two cursors on its
  stream, the uniforms at word j and the exponentials from word k on (see
  _Streams).  Draws of a variable number of words (the normals and Poisson
  counts of compound_poisson_gauss and of euler_sde with a non-stable
  driver) keep one whole-horizon window, in every reducer.

A path's draws, values, running maximum and exit time do not depend on the
windows or the blocks, to the bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .criteria import C_LOWER, ball_tail_intensity
from .errors import RateOverflow
from .symbols import LevyTriplet, ProcessSpec, symbol_extremum

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
EXIT_HORIZON = 8.0  # expected_exit follows each path to EXIT_HORIZON / G(x, 2r)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    n_paths: int = 1000
    seed: int = 0
    path_offset: int = 0  # global index of the first path (for chunked runs)

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral)
                   for v in (self.n_paths, self.seed, self.path_offset)):
            raise ValueError("n_paths, seed and path_offset must be integers")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        # a path's Philox key is seed * 2^64 + path index, so both must fit
        # in 64 bits for distinct (seed, path) pairs to get distinct streams
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64)")
        if self.path_offset < 0 or self.path_offset + self.n_paths > 2**64:
            raise ValueError("need path_offset >= 0 and path_offset + n_paths <= 2^64")

    @staticmethod
    def delta_for(dt):
        """Jump cutoff of the compound-Poisson schemes: sqrt(dt) clamped to
        [1e-4, 1e-1]."""
        return float(np.clip(np.sqrt(dt), 1e-4, 1e-1))


@dataclass
class McEstimate:
    p_hat: float
    ci_half_width: float
    n_paths: int


def path_rng(seed, path_index):
    """Counter-based generator for one path; independent across indices."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(path_index)))


def proportion_estimate(hits, n):
    """99% interval for a Bernoulli proportion; Wilson when counts are scarce."""
    hits = int(hits)
    p = hits / n
    if min(hits, n - hits) < 10:
        z2 = _Z99**2
        centre = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = _Z99 * np.sqrt(p * (1 - p) / n + z2 / (4 * n**2)) / (1 + z2 / n)
        return McEstimate(p_hat=p, ci_half_width=float(half + abs(centre - p)),
                          n_paths=n)
    half = _Z99 * np.sqrt(p * (1 - p) / n)
    return McEstimate(p_hat=p, ci_half_width=float(half), n_paths=n)


def mean_estimate(sample):
    sample = np.asarray(sample, float)
    n = sample.size
    half = _Z99 * sample.std(ddof=1) / np.sqrt(n) if n > 1 else np.inf
    return McEstimate(p_hat=float(sample.mean()), ci_half_width=float(half), n_paths=n)


# ---------------------------------------------------------------------------
# increment sampling
# ---------------------------------------------------------------------------


def _cms_symmetric(u, w, alpha):
    """Symmetric stable draw with exponent |xi|^alpha from (uniform, exp) pairs."""
    alpha = np.asarray(alpha, float)
    su = np.sin(alpha * u)
    cu = np.cos(u) ** (1.0 / alpha)
    rest = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return su / cu * rest


def _park_cms(rng, a, b, exp_rng=None):
    """Draw the uniforms on [0, 1) and the exponentials of _cms_symmetric
    into a and b; the exponentials come from exp_rng when one is given."""
    rng.random(out=a)
    (rng if exp_rng is None else exp_rng).standard_exponential(out=b)


def _angles(u):
    """Map parked uniforms onto (-pi/2, pi/2) in place, a block at a time:
    the bytes of rng.uniform(-pi/2, pi/2), which computes low + range * u."""
    u *= np.pi
    u -= np.pi / 2
    return u


# A sampler (draw, finish) on the steps dts: draw(rng, a, b) parks one path's
# draws in its rows a and b and returns any further words it drew;
# finish(a, b, parked, steps) turns a block of rows, whose columns are the
# steps dts[steps], into increments in place and tells whether b holds a
# second part.  Only draw reads a stream.


def _stable_sampler(triplet: LevyTriplet, stable_family, dts):
    """Exact drift + (sigma |xi|)^alpha stable increments; no jump part."""
    alpha, sigma = stable_family
    scale, drift = dts ** (1.0 / alpha), float(triplet.b[0]) * dts

    def finish(a, b, parked, steps):
        a[...] = sigma * _cms_symmetric(_angles(a), b, alpha) * scale[steps] + drift[steps]
        return False

    return _park_cms, finish


RATE_CAP = 1e4  # largest mean jump count per step that _levy_sampler accepts


def _levy_sampler(triplet: LevyTriplet, dts, delta):
    """Continuous and jump increments of a 1-d Levy triplet on step sizes dts.

    The continuous part, in a, holds drift (recentred to the cutoff delta)
    and the small-jump surrogate; the jump part, in b,
    holds the compound-Poisson sums of jumps above delta.  A path parks its
    normals in a and its Poisson counts in b, and draws its jump uniforms in
    one call (see ``LevyMeasureModel.jumps_from_uniforms``).
    """
    m = triplet.measure
    delta = min(float(delta), 1.0)
    rate = float(m.tail(delta))
    if np.any(rate * dts > RATE_CAP):
        raise RateOverflow(
            "jump rate times step exceeds the cap; decrease dt or raise delta")
    var = float(m.trunc2(delta))
    drift = (float(triplet.b[0]) - m.mean_jump_between(delta, 1.0)) * dts
    sd, mean_counts = np.sqrt(var * dts), rate * dts

    def draw(rng, a, b):
        rng.standard_normal(out=a)
        b[:] = counts = rng.poisson(mean_counts)
        return rng.random(3 * int(counts.sum())).reshape(3, -1)

    def finish(a, b, parked, steps):
        a[...] = drift[steps] + sd[steps] * a
        counts = b.astype(np.intp)
        words = np.concatenate(parked, axis=1)
        sums = np.zeros(counts.size)
        if words.shape[1]:
            jumps = m.jumps_from_uniforms(words, counts.sum(axis=1), delta)
            # unbuffered: each step's jumps are added in the order drawn
            np.add.at(sums, np.repeat(np.arange(counts.size), counts.ravel()), jumps)
        b[...] = sums.reshape(b.shape)
        return True

    return draw, finish


# ---------------------------------------------------------------------------
# batch path engine (1-d): one scheme per process over two steppers
# ---------------------------------------------------------------------------


def _scheme(spec: ProcessSpec, dts):
    """(sampler, advance) of a run of ``spec`` on the steps dts; an
    advance(state, first, second, j) -> (pre-jump or None, post) of step j marks
    a state-dependent scheme, None a Levy scheme of independent increments.  A
    Levy process and an SDE driver draw exact stable increments where the spec
    has a stable_family, compound Poisson with the Gaussian surrogate otherwise."""
    if spec.kind == "state_dependent":
        return _freeze_symbol(spec, dts)
    levy = spec.levy if spec.kind == "levy" else spec.driver
    if spec.stable_family is not None:
        sampler = _stable_sampler(levy, spec.stable_family, dts)
    else:
        sampler = _levy_sampler(levy, dts, SimConfig.delta_for(float(np.median(dts))))
    if spec.kind == "levy":
        return sampler, None

    def advance(state, cont, jumps, j):  # euler_sde
        s = np.asarray(spec.sigma(state[:, None]), float)
        pre = state + s * cont
        return (None, pre) if jumps is None else (pre, pre + s * jumps)

    return sampler, advance


def _freeze_symbol(spec, dts):
    params = spec.family.stable_params
    if params is None:
        raise NotImplementedError(
            f"freeze_symbol simulates only families with stable_params; "
            f"{spec.name or 'this family'} has none")

    alpha = params(np.empty((0, 1)))[0]  # a float when it does not depend on the state
    if np.ndim(alpha) == 0:
        # one index for every state: a block's draws become stable draws at
        # once, as _stable_sampler's do.  The index and dt^(1/alpha) stay
        # arrays, as a per-state index was: numpy's scalar power differs from
        # its array power, and takes 2 and 0.5 as square and sqrt
        index = np.full(len(dts), float(alpha))
        scale = dts ** (1.0 / index)

        def finish(a, b, parked, steps):
            a[...] = _cms_symmetric(_angles(a), b, index[steps])
            return False

        def advance(state, draws, _, j):
            return None, state + params(state[:, None])[1] * draws * scale[j]

        return (_park_cms, finish), advance

    def finish(a, b, parked, steps):
        _angles(a)
        return True

    def advance(state, u, w, j):
        alpha, sigma = params(state[:, None])
        return None, state + sigma * _cms_symmetric(u, w, alpha) * dts[j] ** (1.0 / alpha)

    return (_park_cms, finish), advance


BLOCK = 4096  # path-steps per block: a block holds max(1, BLOCK // steps) paths
EXIT_WINDOW = 64  # steps in a first-exit run's first window; each next one doubles
COLUMN_WINDOW = 192  # steps per window of an estimator's state-dependent time loop


class _Streams:
    """Each path's draws on its own Philox stream, one window of steps at a
    time.

    A whole-horizon window draws each path from word 0 of its stream.  A
    shorter one exists only for _park_cms draws: on its stream a
    path of k steps draws k uniforms, one word each, and then k
    exponentials.  So a path has two cursors: its uniforms for the steps
    from j0 on start at word j0, and its exponentials go on at the word
    where its last window left them (word k before its first).  Philox is
    counter-based, so a generator re-keyed to a path and set to a word gives
    the same bytes as one that drew its way there (_seek).  The uniforms
    come from one generator, sought for each path and window.  So do a
    path's first exponentials, after which their word is read back; a path
    that lives on to a second window gets a generator of its own there,
    which keeps its place from then on (exponentials take a varying number
    of words, and reading a generator's place costs as much as seeking).
    """

    def __init__(self, config, draw, k):
        self.draw, self.k = draw, k
        self.seed, self.offset = config.seed, config.path_offset
        self.u, self.e, self.exp = path_rng(self.seed, 0), path_rng(self.seed, 0), {}
        self.fresh = self.u.bit_generator.state  # counter 0, empty buffer
        self.exp_word = np.full(config.n_paths, k, np.int64)

    def _seek(self, rng, p, word):
        """Re-key rng to path p of the run, at word ``word`` of its stream."""
        self.fresh["state"] = {"counter": (word // 4, 0, 0, 0),
                               "key": (self.offset + p, self.seed)}
        rng.bit_generator.state = self.fresh
        if word % 4:
            rng.bit_generator.random_raw(word % 4)
        return rng

    def park(self, paths, j0, a, b):
        """Park the draws of the given paths' steps j0, j0 + 1, ... in their
        rows of a and b; returns what draw returned for each path."""
        if a.shape[1] == self.k:
            return [self.draw(self._seek(self.u, p, 0), a[i], b[i])
                    for i, p in enumerate(paths.tolist())]
        for i, p in enumerate(paths.tolist()):
            if j0 == 0:
                e = self._seek(self.e, p, self.k)
            elif p not in self.exp:
                e = self.exp[p] = self._seek(path_rng(self.seed, 0), p, int(self.exp_word[p]))
            else:
                e = self.exp[p]
            _park_cms(self._seek(self.u, p, j0), a[i], b[i], e)
            if j0 == 0:
                state = e.bit_generator.state  # 4 words per counter step
                self.exp_word[p] = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
        return [None] * len(a)


def _running_max(post, pre, x0, run, out):
    """Running maximum along each row of |post - x0| and, unless pre is
    None, |pre - x0|, going on from run; written to out, whose last column
    is returned.  out may be pre."""
    dev = np.abs(post - x0)
    if pre is not None:
        np.maximum(dev, np.abs(pre - x0), out=dev)
    dev[:, 0] = np.maximum(dev[:, 0], run)
    np.maximum.accumulate(dev, axis=1, out=out)
    return out[:, -1]


def _sum_levy(a, b, second, x0, total, run, resume):
    """Turn a finished Levy block's increments into paths (in a) and running
    maxima (in b), in place.

    The running maxima go on from run (zeros before a path's first step).
    With ``resume`` the paths go on from each path's sum of continuous
    increments (total) before the block's first step, which gives the bytes
    of one cumulative sum over the whole row; only _park_cms draws resume,
    and those have no jump part.  Returns both at the block's last step.
    """
    if resume:
        a[:, 0] += total
    csum = np.cumsum(a, axis=1)
    post = x0 + csum
    if second:
        post += np.cumsum(b, axis=1)
    pre = post - b if second else None
    a[...] = post
    return csum[:, -1], _running_max(post, pre, x0, run, b)


def _step(sampler, advance, x0, dts, config, reducer):
    """Draw and finish the paths a window of steps at a time, and hand each
    finished window to the reducer.

    The reducer gives the windows, ``reducer.windows(k)`` -> (j0, j1) pairs
    (used only by _park_cms draws; every other scheme takes one window of all
    k steps); the rows of a window, ``reducer.rows(paths, m)`` -> (a, b)
    arrays of shape (len(paths), m); and which paths go on to the next
    window, ``reducer.take(paths, values, runmax, j0)`` -> boolean mask, once
    a window's rows hold its values and running maxima.

    Each path parks its draws in its rows a and b; the sampler's finish then
    turns a block of max(1, BLOCK // m) paths' rows into increments.  A Levy
    block (advance is None) is summed and its running maximum taken in
    place, and is reduced at once.  A state-dependent window leaves its noise
    parked; one time loop then advances every path still alive, step j
    reading column j before it overwrites that column with the state (and a
    runmax column with a pre-jump state).  The window's running maxima are
    then taken a block at a time, in place.  The paths still alive are
    compacted once per window.
    """
    draw, finish = sampler
    n, k = config.n_paths, len(dts)
    alive, total, run, state = np.arange(n), np.zeros(n), np.zeros(n), np.full(n, x0)
    streams = _Streams(config, draw, k)
    for j0, j1 in (reducer.windows(k) if draw is _park_cms else [(0, k)]):
        steps, m = slice(j0, j1), j1 - j0
        per = max(1, BLOCK // m)
        if advance is None:
            keep = np.empty(len(alive), bool)
            for lo in range(0, len(alive), per):
                blk = slice(lo, lo + per)
                a, b = reducer.rows(alive[blk], m)
                second = finish(a, b, streams.park(alive[blk], j0, a, b), steps)
                total[blk], run[blk] = _sum_levy(a, b, second, x0, total[blk],
                                                 run[blk], j0 > 0)
                keep[blk] = reducer.take(alive[blk], a, b, j0)
        else:
            values, runmax = reducer.rows(alive, m)
            for lo in range(0, len(alive), per):
                a, b = values[lo:lo + per], runmax[lo:lo + per]
                second = finish(a, b, streams.park(alive[lo:lo + per], j0, a, b), steps)
            for j in range(m):
                pre, state = advance(state, values[:, j],
                                     runmax[:, j] if second else None, j0 + j)
                values[:, j] = state
                if pre is not None:
                    runmax[:, j] = pre
            for lo in range(0, len(alive), per):
                blk = slice(lo, lo + per)
                run[blk] = _running_max(values[blk], runmax[blk] if pre is not None else None,
                                        x0, run[blk], runmax[blk])
            keep = reducer.take(alive, values, runmax, j0)
            del values, runmax, a, b  # free the rows before the next window's
        alive, total, run, state = alive[keep], total[keep], run[keep], state[keep]
        if not alive.size:
            break


def _scratch_rows(paths, m):
    # rows m + 1 long: a row stride of a multiple of 4 KB (m a multiple of 512)
    # puts a column in one cache set, and state-dependent time loops go by column
    return np.empty((len(paths), m + 1))[:, 1:], np.empty((len(paths), m + 1))[:, 1:]


class _KeepAll:
    """Reducer of simulate_batch: every path's values and running maxima, in
    one whole-horizon window drawn straight into the two outputs."""

    def __init__(self, n, k, x0):
        self.values, self.runmax = np.empty((n, k + 1)), np.empty((n, k + 1))
        self.values[:, 0], self.runmax[:, 0] = x0, 0.0

    @staticmethod
    def windows(k):
        return [(0, k)]

    def rows(self, paths, m):
        rows = slice(paths[0], paths[-1] + 1)  # consecutive: no path retires
        return self.values[rows, 1:], self.runmax[rows, 1:]

    @staticmethod
    def take(paths, values, runmax, j0):
        return np.ones(len(paths), bool)


class _Columns:
    """Reducer that keeps each path's value and running maximum at the grid
    columns ``cols`` (0 is the start, c > 0 is step c - 1's column), from
    windows of ``window`` steps, finished a block of paths at a time in
    scratch rows."""

    def __init__(self, cols, n, x0, window):
        self.values, self.runmax = np.full((n, len(cols)), x0), np.zeros((n, len(cols)))
        self.out = np.flatnonzero(cols > 0)
        self.at, self.window = cols[self.out] - 1, window

    def windows(self, k):
        return [(j0, min(j0 + self.window, k)) for j0 in range(0, k, self.window)]

    rows = staticmethod(_scratch_rows)

    def take(self, paths, values, runmax, j0):
        here = (self.at >= j0) & (self.at < j0 + values.shape[1])
        rows, out, at = slice(paths[0], paths[-1] + 1), self.out[here], self.at[here] - j0
        self.values[rows, out] = values[:, at]  # consecutive rows: no path retires
        self.runmax[rows, out] = runmax[:, at]
        return np.ones(len(paths), bool)


class _FirstExit:
    """Reducer that keeps each path's first grid time with runmax >= r, or
    times[-1] and a censored flag for a path that never gets there; a path
    retires at its exit.  Windows of EXIT_WINDOW steps, doubling."""

    def __init__(self, times, r, n):
        self.times, self.r = times, r
        self.tau, self.censored = np.full(n, times[-1]), np.ones(n, bool)

    @staticmethod
    def windows(k):
        j0, m = 0, EXIT_WINDOW
        while j0 < k:
            yield j0, min(j0 + m, k)
            j0, m = j0 + m, 2 * m

    rows = staticmethod(_scratch_rows)

    def take(self, paths, values, runmax, j0):
        exceed = runmax >= self.r
        hit = exceed.any(axis=1)
        self.tau[paths[hit]] = self.times[j0 + 1 + exceed[hit].argmax(axis=1)]
        self.censored[paths[hit]] = False
        return ~hit


def _start(spec, x):
    """The start of a path run as a float: NotImplementedError beyond
    dimension 1, ValueError unless x is one finite coordinate (a scalar is
    one), for a Levy path too (``symbols._check_ball``'s message)."""
    if spec.dim != 1:
        raise NotImplementedError("path simulation is implemented in dimension 1")
    x0 = np.asarray(x, float)
    if x0.ndim > 1 or x0.size != 1 or not np.isfinite(x0).all():
        raise ValueError(f"x must be finite with 1 coordinate(s), got {x!r}")
    return float(x0.reshape(-1)[0])


def _prepare(spec, x, times):
    """Validate a run on the grid times; returns (sampler, advance, x0, dts)."""
    if (times.ndim != 1 or times.size < 2 or times[0] != 0.0 or not np.isfinite(times[-1])
            or not np.all(np.diff(times) > 0)):
        raise ValueError("times must be finite, one axis of at least two points, "
                         "start at 0 and increase strictly")
    x0 = _start(spec, x)
    dts = np.diff(times)
    return *_scheme(spec, dts), x0, dts


def simulate_batch(spec: ProcessSpec, x, times, config: SimConfig):
    """Simulate n_paths trajectories on a fixed grid; returns (values, runmax).

    ``times`` (one axis, two or more) must start at 0 and increase.  Arrays have shape
    (n_paths, len(times)); runmax tracks sup_{s <= t_k} |X_s - x| including
    the within-step pre-jump point for jump-decomposed schemes.
    """
    sampler, advance, x0, dts = _prepare(spec, x, np.asarray(times, float))
    keep = _KeepAll(config.n_paths, len(dts), x0)
    _step(sampler, advance, x0, dts, config, keep)
    return keep.values, keep.runmax


def first_exit_times(spec: ProcessSpec, x, times, r, config: SimConfig):
    """Each path's first time on the grid ``times`` with
    sup_{s <= t} |X_s - x| >= r, and whether it was censored (it never got
    there; its time is then times[-1]).  The bytes are those of a scan of
    simulate_batch's runmax, but a path stops at its exit: see the module's
    Memory note for which schemes stop early.
    """
    if not 0 < r < np.inf:  # NaN fails too
        raise ValueError("r must be positive and finite")
    times = np.asarray(times, float)
    sampler, advance, x0, dts = _prepare(spec, x, times)
    first = _FirstExit(times, r, config.n_paths)
    _step(sampler, advance, x0, dts, config, first)
    return first.tau, first.censored


def _paths_at(spec: ProcessSpec, x, times, t, config: SimConfig):
    """Each path's (values, runmax) at the last grid time <= t for each t,
    of shape (n_paths, len(t)): simulate_batch's columns, to the bit.  The
    relative slack takes a grid time a rounding above t as the time t."""
    times = np.asarray(times, float)
    sampler, advance, x0, dts = _prepare(spec, x, times)
    cols = np.searchsorted(times, np.asarray(t, float) * (1 + 1e-12), side="right") - 1
    # a Levy block is finished in scratch rows: only a time loop needs windows
    keep = _Columns(cols, config.n_paths, x0, len(dts) if advance is None else COLUMN_WINDOW)
    _step(sampler, advance, x0, dts, config, keep)
    return keep.values, keep.runmax


def _grid_to(T, dt):
    n_steps = max(int(np.ceil(T / dt)), 1)
    return np.linspace(0.0, T, n_steps + 1)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass
class BoundRow:
    t: float
    r: float
    empirical: float
    ci: float
    bound: float
    violated: bool


def verify_bound_table(spec: ProcessSpec, x, bound_kind, grid, config: SimConfig,
                       c_lower=C_LOWER):
    """Empirical check of one exit-time bound over a (t, r) grid of entries
    with a finite t >= 0 and 0 < r < inf.

    bound_kind: "exit_survival" (P(tau_r >= t) <= 1/(1 + t G(x,2r))),
    "expected_exit" (E tau_r <= 1/G(x,2r); the t column is unused and a
    row's t is the horizon EXIT_HORIZON / G(x, 2r), at which a path that has
    not left the ball is censored and counted at the horizon; paths stop at
    their exit, in windows, for every scheme but those whose draws take a
    variable number of words, see the module's Memory note),
    "lower_max" (P(runmax > r) >= (1-c) t G(x,2r) wherever the empirical
    probability is at most c_lower), or "max_ineq" (P(runmax >= r) <=
    t * sup-sup |q|, the paper's bound with its absolute constant taken as
    1).  A row is violated when the empirical value beats the bound by more
    than three half-widths of its 99% interval.  G(x, 2r) (on ``ball_grid``'s
    state-ball points) and the sup-sup symbol extremum (read from
    ``symbols._capped_extremum``'s lattice) are computed once per distinct r.
    """
    if bound_kind not in ("exit_survival", "expected_exit", "lower_max", "max_ineq"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    if not 0 <= c_lower <= 1:  # NaN fails too
        raise ValueError("c_lower must lie in [0, 1]")
    if len(grid) == 0:
        raise ValueError("grid must hold at least one (t, r) entry")
    for t, r in grid:
        if not (0 <= float(t) < np.inf and 0 < float(r) < np.inf):
            raise ValueError(f"grid entry (t={t}, r={r}) needs a finite t >= 0 and 0 < r < inf")
    _start(spec, x)
    r_vals = sorted({float(r) for _, r in grid})
    g2r = {r: ball_tail_intensity(spec, x, 2 * r) for r in r_vals}
    rows = []

    if bound_kind == "expected_exit":
        for r in r_vals:
            horizon = EXIT_HORIZON / g2r[r] if g2r[r] > 0 else 1.0
            taus = first_exit_times(spec, x, _grid_to(horizon, config.dt), r, config)[0]
            est = mean_estimate(taus)
            bound = np.inf if g2r[r] == 0 else 1.0 / g2r[r]
            rows.append(BoundRow(
                t=float(horizon), r=r, empirical=est.p_hat, ci=est.ci_half_width,
                bound=bound, violated=bool(est.p_hat > bound + 3 * est.ci_half_width),
            ))
        return rows

    if bound_kind == "max_ineq":
        supsup = {r: symbol_extremum(spec, x, r, 1.0 / r, "sup_sup") for r in r_vals}
    t_vals = [float(t) for t, _ in grid]
    runmax = _paths_at(spec, x, _grid_to(max(t_vals), config.dt), t_vals, config)[1]
    for (t, r), col in zip(grid, runmax.T):
        t, r = float(t), float(r)
        if bound_kind == "exit_survival":
            est = proportion_estimate(np.sum(col < r), config.n_paths)
            bound = 1.0 / (1.0 + t * g2r[r])
            violated = est.p_hat > bound + 3 * est.ci_half_width
        elif bound_kind == "lower_max":
            est = proportion_estimate(np.sum(col > r), config.n_paths)
            if est.p_hat > c_lower:
                continue  # outside the regime of the lower bound
            bound = min((1.0 - c_lower) * t * g2r[r], 1.0)
            violated = est.p_hat < bound - 3 * est.ci_half_width
        else:
            est = proportion_estimate(np.sum(col >= r), config.n_paths)
            bound = t * supsup[r]
            violated = est.p_hat > bound + 3 * est.ci_half_width
        rows.append(BoundRow(t=t, r=r, empirical=est.p_hat,
                             ci=est.ci_half_width, bound=float(bound),
                             violated=bool(violated)))
    return rows
