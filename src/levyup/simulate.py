"""Monte Carlo path generation and empirical verification of exit-time bounds.

Schemes
-------
exact_stable            increments drawn exactly for symmetric stable laws
compound_poisson_gauss  jumps above a cutoff as compound Poisson, smaller
                        jumps as a Gaussian surrogate matching the truncated
                        second moment, drift recentred to the |y| < 1 cutoff
euler_sde               X_{k+1} = X_k + sigma(X_k) dL with pre-drawn driver
                        increments
freeze_symbol           one increment of the stable law the family's
                        stable_params give at the current state; families
                        without stable_params are not simulated

runmax includes the within-step pre-jump point of every scheme with a jump
part.  Randomness is counter-based: path p of a run with seed s draws from
Philox(key = s * 2^64 + p), so parallel and serial execution agree and
identical (config, model) inputs give identical output.

Memory: simulate_batch's two outputs, values and runmax, are the only
n_paths x steps arrays, and the stepper adds O(n_paths + steps) scratch.
Each path's increments are drawn straight into its output rows: a Levy path
is finished there, a state-dependent path's noise waits there until the time
loop, which advances all paths at once, overwrites it step by step.  The
estimators read the outputs directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criteria import DEFAULTS, ball_tail_intensity
from .errors import RateOverflow
from .symbols import LevyTriplet, ProcessSpec, symbol_extremum

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    delta_jump: float | None = None  # None: sqrt(dt) clamped to [1e-4, 1e-1]
    n_paths: int = 1000
    seed: int = 0
    scheme: str = "auto"
    path_offset: int = 0  # global index of the first path (for chunked runs)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.delta_jump is not None and self.delta_jump <= 0:
            raise ValueError("delta_jump must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")

    def delta_for(self, dt):
        if self.delta_jump is not None:
            return self.delta_jump
        return float(np.clip(np.sqrt(dt), 1e-4, 1e-1))

    def path_rngs(self):
        """Yield path_rng(seed, path_offset + p) for p < n_paths: one Philox
        re-keyed through its state (same key words, counter 0, empty buffer),
        so each generator is valid only until the next is drawn."""
        rng = path_rng(self.seed, self.path_offset)
        state = rng.bit_generator.state
        for p in range(self.n_paths):
            hi, lo = divmod((int(self.seed) << 64) + self.path_offset + p, 1 << 64)
            state["state"]["key"] = np.array([lo, hi], np.uint64)
            rng.bit_generator.state = state
            yield rng


@dataclass
class PathSample:
    """One trajectory on a fixed grid with its running-maximum profile.

    ``runmax`` absorbs the pre-jump position inside each step, so it can
    exceed max(runmax[k-1], |values[k] - start|) when a large jump swings the
    path out and back within one step.
    """

    times: np.ndarray
    values: np.ndarray
    start: np.ndarray
    runmax: np.ndarray


@dataclass
class McEstimate:
    p_hat: float
    ci_half_width: float
    n_paths: int
    kind: str = "probability"

    @property
    def lower(self):
        if self.kind == "probability":
            return max(self.p_hat - self.ci_half_width, 0.0)
        return self.p_hat - self.ci_half_width

    @property
    def upper(self):
        if self.kind == "probability":
            return min(self.p_hat + self.ci_half_width, 1.0)
        return self.p_hat + self.ci_half_width


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
    return McEstimate(p_hat=float(sample.mean()), ci_half_width=float(half),
                      n_paths=n, kind="mean")


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


def _cms_pair(rng, size):
    return rng.uniform(-np.pi / 2, np.pi / 2, size), rng.standard_exponential(size)


def stable_draws(rng, alpha, size, sigma=1.0):
    return sigma * _cms_symmetric(*_cms_pair(rng, size), alpha)


# A sampler draw(rng) -> (continuous, jumps or None) gives one path's
# increments on the steps dts; its path-independent terms are computed once.


def _stable_sampler(triplet: LevyTriplet, stable_family, dts):
    """Exact drift + (sigma |xi|)^alpha stable increments; no jump part."""
    alpha, sigma = stable_family
    scale, drift = dts ** (1.0 / alpha), float(triplet.b[0]) * dts
    return lambda rng: (stable_draws(rng, alpha, len(dts), sigma) * scale + drift, None)


def _levy_sampler(triplet: LevyTriplet, dts, delta, rate_cap=1e4):
    """Continuous and jump increments of a 1-d Levy triplet on step sizes dts.

    ``continuous`` holds drift (recentred to the cutoff delta), the Gaussian
    part, and the small-jump surrogate; ``jumps`` holds the compound-Poisson
    sums of jumps above delta.
    """
    m = triplet.measure
    delta = min(float(delta), 1.0)
    rate = float(m.tail(delta))
    if np.any(rate * dts > rate_cap):
        raise RateOverflow(
            "jump rate times step exceeds the cap; decrease dt or raise delta")
    var = float(m.trunc2(delta))
    if triplet.Q is not None:
        var += float(triplet.Q[0, 0])
    drift = (float(triplet.b[0]) - m.mean_jump_between(delta, 1.0)) * dts
    sd, mean_counts = np.sqrt(var * dts), rate * dts

    def draw(rng):
        cont = drift + sd * rng.standard_normal(dts.shape)
        counts = rng.poisson(mean_counts)
        total = int(counts.sum())
        if not total:
            return cont, np.zeros_like(dts)
        return cont, _segment_sums(m.sample_jumps(total, delta, rng), counts)

    return draw


def _segment_sums(values, counts):
    out = np.zeros(len(counts))
    idx = np.repeat(np.arange(len(counts)), counts)
    np.add.at(out, idx, values)
    return out


def sample_increment(triplet: LevyTriplet, dt, delta, rng):
    """One increment of a Levy triplet over dt with jump cutoff delta.

    Composition: recentred drift + Gaussian part + Gaussian small-jump
    surrogate with variance dt * trunc2(delta) + compound-Poisson sum of
    jumps above delta at rate tail(delta).
    """
    if dt <= 0 or not 0 < delta <= 1:
        raise ValueError("need dt > 0 and delta in (0, 1]")
    cont, jumps = _levy_sampler(triplet, np.array([dt], float), delta)(rng)
    return float(cont[0] + jumps[0])


# ---------------------------------------------------------------------------
# batch path engine (1-d): a scheme table over two steppers
# ---------------------------------------------------------------------------


def _exact_stable(spec, dts, config):
    if spec.stable_family is None:
        raise ValueError("exact_stable needs a Levy process with stable law")
    return _stable_sampler(spec.levy, spec.stable_family, dts), None


def _compound_poisson_gauss(spec, dts, config):
    delta = config.delta_for(float(np.median(dts)))
    return _levy_sampler(spec.levy, dts, delta), None


def _euler_sde(spec, dts, config):
    if spec.stable_family is not None:
        draw = _stable_sampler(spec.driver, spec.stable_family, dts)
    else:
        draw = _levy_sampler(spec.driver, dts, config.delta_for(float(np.median(dts))))

    def advance(state, cont, jumps, dt):
        s = np.asarray(spec.sigma(state), float)
        pre = state + s * cont
        return (None, pre) if jumps is None else (pre, pre + s * jumps)

    return draw, advance


def _freeze_symbol(spec, dts, config):
    params = spec.family.stable_params
    if params is None:
        raise NotImplementedError(
            f"freeze_symbol simulates only families with stable_params; "
            f"{spec.name or 'this family'} has none")

    def advance(state, u, w, dt):
        alpha, sigma = params(state)
        return None, state + sigma * _cms_symmetric(u, w, alpha) * dt ** (1.0 / alpha)

    return (lambda rng: _cms_pair(rng, len(dts))), advance


# scheme -> (process kind, build(spec, dts, config) -> (draw, advance)); an
# advance(state, first, second, dt) -> (pre-jump or None, post) marks a
# state-dependent scheme, None a Levy scheme of independent increments
_SCHEMES = {
    "exact_stable": ("levy", _exact_stable),
    "compound_poisson_gauss": ("levy", _compound_poisson_gauss),
    "euler_sde": ("sde", _euler_sde),
    "freeze_symbol": ("state_dependent", _freeze_symbol),
}


def _resolve_scheme(spec: ProcessSpec, config: SimConfig):
    if config.scheme != "auto":
        return config.scheme
    if spec.kind == "levy":
        return "exact_stable" if spec.stable_family else "compound_poisson_gauss"
    if spec.kind == "sde":
        return "euler_sde"
    return "freeze_symbol"


def _step(draw, advance, x0, dts, config):
    """Draw every path's increments from its own stream, in path order.

    A Levy path (advance is None) is finished in its own output rows.  A
    state-dependent path parks its noise there instead, the first draw in
    values[p, 1:] and the jump or second draw in runmax[p, 1:]; one time loop
    then advances all paths at once, step j reading column j + 1 before it
    overwrites that column with the state and the running maximum.
    """
    n, k = config.n_paths, len(dts)
    values, runmax = np.empty((n, k + 1)), np.empty((n, k + 1))
    values[:, 0], runmax[:, 0] = x0, 0.0
    second = False
    for p, rng in enumerate(config.path_rngs()):
        a, b = draw(rng)
        if advance is not None:
            values[p, 1:] = a
            if b is not None:
                runmax[p, 1:], second = b, True
        elif b is None:
            values[p, 1:] = post = x0 + np.cumsum(a)
            runmax[p, 1:] = np.maximum.accumulate(np.abs(post - x0))
        else:
            values[p, 1:] = post = x0 + np.cumsum(a) + np.cumsum(b)
            runmax[p, 1:] = np.maximum.accumulate(
                np.maximum(np.abs(post - x0), np.abs(post - b - x0)))
    if advance is None:
        return values, runmax
    state, run = np.full(n, x0), np.zeros(n)
    for j in range(k):
        pre, state = advance(state, values[:, j + 1],
                             runmax[:, j + 1] if second else None, dts[j])
        if pre is not None:
            run = np.maximum(run, np.abs(pre - x0))
        run = np.maximum(run, np.abs(state - x0))
        values[:, j + 1], runmax[:, j + 1] = state, run
    return values, runmax


def simulate_batch(spec: ProcessSpec, x, times, config: SimConfig):
    """Simulate n_paths trajectories on a fixed grid; returns (values, runmax).

    ``times`` must start at 0 and increase.  Arrays have shape
    (n_paths, len(times)); runmax tracks sup_{s <= t_k} |X_s - x| including
    the within-step pre-jump point for jump-decomposed schemes.
    """
    times = np.asarray(times, float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and be strictly increasing")
    if spec.dim != 1:
        raise NotImplementedError("path simulation is implemented in dimension 1")
    scheme = _resolve_scheme(spec, config)
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    kind, build = _SCHEMES[scheme]
    if spec.kind != kind:
        raise ValueError(f"{scheme} needs a process of kind {kind!r}")
    dts = np.diff(times)
    x0 = float(np.atleast_1d(np.asarray(x, float))[0])
    draw, advance = build(spec, dts, config)
    return _step(draw, advance, x0, dts, config)


def simulate_path(spec: ProcessSpec, x, T, config: SimConfig):
    """One trajectory on the uniform grid of step config.dt up to T."""
    n_steps = max(int(np.ceil(T / config.dt)), 1)
    times = np.linspace(0.0, T, n_steps + 1)
    one = replace(config, n_paths=1)
    values, runmax = simulate_batch(spec, x, times, one)
    return PathSample(times=times, values=values[0],
                      start=np.atleast_1d(np.asarray(x, float)),
                      runmax=runmax[0])


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _grid_to(T, dt):
    n_steps = max(int(np.ceil(T / dt)), 1)
    return np.linspace(0.0, T, n_steps + 1)


def estimate_exit_survival(spec: ProcessSpec, x, r, t_grid, config: SimConfig):
    """Per-t estimates of P(first exit from B(x, r) happens at or after t).

    The event is read from the running maximum: survival at t means
    sup_{s < t} |X_s - x| < r on the simulation grid.
    """
    t_grid = np.asarray(t_grid, float)
    if r <= 0:
        raise ValueError("r must be positive")
    times = _grid_to(float(t_grid.max()), config.dt)
    runmax = simulate_batch(spec, x, times, config)[1]
    out = []
    for t in t_grid:
        if t == 0.0:
            out.append(McEstimate(1.0, 0.0, config.n_paths))
            continue
        idx = max(int(np.searchsorted(times, t + 1e-15)) - 1, 0)
        hits = int(np.sum(runmax[:, idx] < r))
        out.append(proportion_estimate(hits, config.n_paths))
    return out


def mc_event_probability(spec: ProcessSpec, x, event, config: SimConfig):
    """Probability of a path event; event = (kind, t, r) with kind one of
    "runmax_at_least" (sup_{s<=t} |X_s - x| >= r) or "abs_at_least"
    (|X_t - x| >= r)."""
    kind, t, r = event
    if kind not in ("runmax_at_least", "abs_at_least"):
        raise ValueError(f"unknown event kind {kind!r}")
    if t <= 0 or r <= 0:
        raise ValueError("event parameters must be positive")
    times = _grid_to(float(t), config.dt)
    values, runmax = simulate_batch(spec, x, times, config)
    x0 = float(np.atleast_1d(np.asarray(x, float))[0])
    if kind == "runmax_at_least":
        hits = int(np.sum(runmax[:, -1] >= r))
    else:
        hits = int(np.sum(np.abs(values[:, -1] - x0) >= r))
    return proportion_estimate(hits, config.n_paths)


def exit_times_from_runmax(times, runmax, r):
    """First grid time with runmax >= r; censored paths return times[-1]."""
    exceed = runmax >= r
    first = np.argmax(exceed, axis=1)
    never = ~exceed.any(axis=1)
    out = times[first]
    out[never] = times[-1]
    return out, never


@dataclass
class BoundRow:
    t: float
    r: float
    empirical: float
    ci: float
    bound: float
    violated: bool


def verify_bound_table(spec: ProcessSpec, x, bound_kind, grid, config: SimConfig,
                       c_standin=None, c_lower=0.5, settings=None):
    """Empirical check of one exit-time bound over a (t, r) grid of entries
    with t >= 0 and r > 0.

    bound_kind: "exit_survival" (P(tau_r >= t) <= 1/(1 + t G(x,2r))),
    "expected_exit" (E tau_r <= 1/G(x,2r); the t column is unused),
    "lower_max" (P(runmax > r) >= (1-c) t G(x,2r) wherever the empirical
    probability is at most c_lower), or "max_ineq" (P(runmax >= r) <=
    c_standin * t * sup-sup |q|; the stand-in constant is reported, not
    asserted).  A row is violated when the empirical value beats the bound
    by more than three half-widths of its 99% interval.  ``settings``
    (criteria defaults when None) gives the state-ball points of G and of the
    symbol extremum and the extremum's frequency radii; both are computed
    once per distinct r.
    """
    if bound_kind not in ("exit_survival", "expected_exit", "lower_max", "max_ineq"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    for t, r in grid:
        if not (float(t) >= 0 and float(r) > 0):
            raise ValueError(f"grid entry (t={t}, r={r}) needs t >= 0 and r > 0")
    settings = settings or DEFAULTS
    r_vals = sorted({float(r) for _, r in grid})
    g2r = {r: ball_tail_intensity(spec, x, 2 * r, settings) for r in r_vals}
    rows = []

    if bound_kind == "expected_exit":
        for r in r_vals:
            horizon = 8.0 / g2r[r] if g2r[r] > 0 else 1.0
            times = _grid_to(horizon, config.dt)
            runmax = simulate_batch(spec, x, times, config)[1]
            taus, censored = exit_times_from_runmax(times, runmax, r)
            est = mean_estimate(taus)
            bound = np.inf if g2r[r] == 0 else 1.0 / g2r[r]
            rows.append(BoundRow(
                t=float(horizon), r=r, empirical=est.p_hat, ci=est.ci_half_width,
                bound=bound, violated=bool(est.p_hat > bound + 3 * est.ci_half_width),
            ))
        return rows

    if bound_kind == "max_ineq":
        supsup = {r: symbol_extremum(spec, x, r, 1.0 / r, "sup_sup",
                                     n_z=settings.ball_points,
                                     n_radii=settings.xi_radii)
                  for r in r_vals}
    times = _grid_to(max(float(t) for t, _ in grid), config.dt)
    runmax = simulate_batch(spec, x, times, config)[1]
    for t, r in grid:
        t, r = float(t), float(r)
        idx = int(np.searchsorted(times, t + 1e-15)) - 1
        if bound_kind == "exit_survival":
            hits = int(np.sum(runmax[:, idx] < r))
            est = proportion_estimate(hits, config.n_paths)
            bound = 1.0 / (1.0 + t * g2r[r])
            violated = est.p_hat > bound + 3 * est.ci_half_width
        elif bound_kind == "lower_max":
            hits = int(np.sum(runmax[:, idx] > r))
            est = proportion_estimate(hits, config.n_paths)
            if est.p_hat > c_lower:
                continue  # outside the regime of the lower bound
            bound = min((1.0 - c_lower) * t * g2r[r], 1.0)
            violated = est.p_hat < bound - 3 * est.ci_half_width
        else:
            hits = int(np.sum(runmax[:, idx] >= r))
            est = proportion_estimate(hits, config.n_paths)
            bound = (c_standin if c_standin is not None else 1.0) * t * supsup[r]
            violated = est.p_hat > bound + 3 * est.ci_half_width
        rows.append(BoundRow(t=t, r=r, empirical=est.p_hat,
                             ci=est.ci_half_width, bound=float(bound),
                             violated=bool(violated)))
    return rows
