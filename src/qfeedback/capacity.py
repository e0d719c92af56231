"""Capacity estimation by multi-start coordinate ascent.

Two optimizers share one ascent core: maximizing the Holevo quantity over
input ensembles (the no-feedback single-use baseline) and maximizing the
per-use directed information over a parametrized family of n-block feedback
codes.  Both are lower-bound searches: they report the best point found, with
convergence flags, and are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cqstate import _cmi_plan
from .directed import _term_requests
from .linalg import kron_all
from .protocol import Codebook, FeedbackCode, _ehs_by_law, _walk, on_freshest, product_states, with_pgm_decoder
from .quantum import (
    DensityMatrix,
    Ensemble,
    QuantumChannel,
    ValidationError,
    bloch_state,
    bloch_vector,
    channel_output,
    check_count,
    euler_unitary,
    holevo_chis,
    rotated_qubit_povm,
)


FD_STEP = 1e-4  # central-difference probe width
ASCENT_TOL = 1e-8  # a sweep gaining less than this has converged
STEP0 = 0.3  # first trial move along a coordinate, halved until it pays, down to FD_STEP
GRID_THETAS, GRID_PHIS, GRID_PROBS = 7, 5, 9  # grid oracle: polar angles, azimuths, weights


@dataclass
class OptimizerConfig:
    starts: int = 8
    seed: int = 0
    max_sweeps: int = 200
    feedback: bool = True

    def __post_init__(self):
        check_count(self.starts, "starts", 1)
        check_count(self.max_sweeps, "max_sweeps", 0)
        check_count(self.seed, "seed", 0)


@dataclass
class AscentResult:
    x: np.ndarray
    value: float
    converged: bool
    sweeps: int


def simplex_projection(c: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex; raises unless every |c| < 2^53, where k = 0 qualifies."""
    if not (np.abs(c) < 2.0**53).all():  # "not <" so that NaN fails too
        raise ValidationError(f"cannot project {c} onto the simplex: not finite, or some |c| reaches 2^53")
    a = -np.sort(-c)
    lam = (np.cumsum(a) - 1.0) / np.arange(1, len(c) + 1)
    k = next((k for k in range(len(c) - 1, 0, -1) if a[k] > lam[k]), 0)
    return np.maximum(c - lam[k], 0.0)


def coordinate_ascent(
    objective,
    x0: np.ndarray,
    prob_block: slice | None,
    cfg: OptimizerConfig,
    frozen: set[int] | None = None,
) -> AscentResult:
    """Cyclic coordinate ascent with central finite-difference gradients.

    Coordinates inside ``prob_block`` live on the simplex (projected after
    every trial move); ``frozen`` coordinates are never touched.  Only moves
    that improve the objective are accepted, none shorter than ``FD_STEP``.
    """
    frozen = frozen or set()

    def clean(x):
        x = x.copy()
        if prob_block is not None:
            x[prob_block] = simplex_projection(x[prob_block])
        return x

    def bump(x, i, delta):
        y = x.copy()
        y[i] += delta
        return clean(y)

    x = clean(np.asarray(x0, dtype=float))
    best = objective(x)
    for sweep in range(cfg.max_sweeps):
        before = best
        for i in range(len(x)):
            if i in frozen:
                continue
            up, down = objective(bump(x, i, +FD_STEP)), objective(bump(x, i, -FD_STEP))
            # Only an exact tie is skipped: a cutoff on |g| sits near one ulp
            # of the objective divided by 2 FD_STEP, where rounding decides.
            if up == down:
                continue
            direction = 1.0 if up > down else -1.0
            # Halve the move until one pays, down to FD_STEP, then repeat it while it pays.
            step, moved = STEP0, False
            while step >= FD_STEP:
                cand = bump(x, i, direction * step)
                val = objective(cand)
                if val > best + 1e-15:
                    x, best, moved = cand, val, True
                elif moved:
                    break
                else:
                    step *= 0.5
        if best - before < ASCENT_TOL:
            return AscentResult(x, best, True, sweep + 1)
    return AscentResult(x, best, False, cfg.max_sweeps)


# ----------------------------------------------------------------------------
# Holevo quantity maximization (no-feedback, single channel use).


def _pure_outputs(channel: QuantumChannel, vecs: np.ndarray) -> np.ndarray:
    """Channel outputs of the pure inputs along the rows of a (B, d_in) array; a row of norm below 1e-12 is |0>.

    Rows are divided by their own ``np.linalg.norm``, as in ``pure_state``; the axis=1 norm rounds differently.
    """
    norms = np.array([np.linalg.norm(v) for v in vecs])
    small = norms < 1e-12
    vecs = np.where(small[:, None], np.eye(1, vecs.shape[1]), vecs)
    v = vecs / np.where(small, 1.0, norms)[:, None]
    return channel_output(channel, v[:, :, None] * v.conj()[:, None, :])


def _output_ensemble(channel: QuantumChannel, num_states: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, outputs) of the input ensemble encoded in ``x``: weights, then state vectors.

    Weights below 1e-12 are dropped and the rest renormalized.
    """
    d = channel.in_dim
    keep = x[:num_states] >= 1e-12
    w = x[:num_states][keep]
    vecs = x[num_states:].reshape(num_states, 2 * d)[keep]
    return w / w.sum(), _pure_outputs(channel, vecs[:, :d] + 1j * vecs[:, d:])


@dataclass
class HolevoResult:
    value: float
    ensemble: Ensemble
    converged: bool
    start_values: tuple[float, ...]


def holevo_capacity(channel: QuantumChannel, config: OptimizerConfig | None = None) -> HolevoResult:
    """Maximize the Holevo quantity over ensembles of up to d^2 pure inputs."""
    cfg = config or OptimizerConfig()
    d = channel.in_dim
    if d > 4:
        raise ValidationError("holevo_capacity supports input dimension <= 4")
    num = d * d
    prob_block = slice(0, num)

    def objective(x):
        w, outputs = _output_ensemble(channel, num, x)
        return float(holevo_chis(w[None], np.arange(len(w))[None], outputs)[0])

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.starts)
    best: AscentResult | None = None
    values = []
    for s, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        x0 = np.empty(num + 2 * d * num)
        x0[prob_block] = 1.0 / num
        if s == 0:
            # Canonical start: computational basis padded with random unit vectors.
            pad = [raw / np.linalg.norm(raw) for raw in rng.standard_normal((num - d, 2 * d))]
            x0[num:] = np.concatenate([np.eye(d, 2 * d), *pad], axis=None)
        else:
            x0[prob_block] = simplex_projection(rng.dirichlet(np.ones(num)))
            x0[num:] = rng.standard_normal(2 * d * num)
        res = coordinate_ascent(objective, x0, prob_block, cfg)
        values.append(res.value)
        if best is None or res.value > best.value:
            best = res

    w, outputs = _output_ensemble(channel, num, best.x)
    ensemble = Ensemble(tuple((p, DensityMatrix(rho, (channel.out_dim,))) for p, rho in zip(w, outputs)))
    return HolevoResult(best.value, ensemble, best.converged, tuple(values))


def grid_search_chi(channel: QuantumChannel) -> float:
    """Dense-grid oracle: best chi over two-state Bloch-sphere ensembles.

    Covers every unordered pair of the GRID_THETAS * GRID_PHIS grid outputs
    at each interior weight of the GRID_PROBS grid (4,410 mixtures), including
    the exact poles and the balanced mixture, as one ``holevo_chis``.
    """
    if channel.in_dim != 2:
        raise ValidationError("grid oracle is for qubit channels")
    thetas = np.linspace(0.0, np.pi, GRID_THETAS)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_PHIS, endpoint=False)
    probs = np.linspace(0.0, 1.0, GRID_PROBS)[1:-1]
    outputs = _pure_outputs(channel, np.array([bloch_vector(t, f) for t in thetas for f in phis]))
    i, j = np.triu_indices(len(outputs))
    pairs = np.repeat(np.stack([i, j], axis=1), len(probs), axis=0)
    p = np.tile(probs, len(i))
    chis = holevo_chis(np.stack([p, 1.0 - p], axis=1), pairs, outputs)
    return float(max(0.0, chis.max(initial=0.0)))


# ----------------------------------------------------------------------------
# Feedback-code optimization: directed information over a parametrized family.


def default_words(n: int) -> tuple[tuple[int, ...], ...]:
    """Binary codebook: all words for n <= 2, the even-parity half for n = 3."""
    words = []
    for k in range(2**n):
        w = tuple(int(b) for b in format(k, f"0{n}b"))
        if n < 3 or sum(w) % 2 == 0:
            words.append(w)
    return tuple(words)


@dataclass
class FeedbackCodeFamily:
    """Parameter layout for the optimizer's code family.

    probs (N) | letter Bloch angles (2 per letter) | intermediate measurement
    angles (2 per round 1..n-1) | feedback Euler angles (3 per register per
    outcome for rounds 2..n-1, from ``fb_start``).  Codeword states are
    per-letter pure products over a binary alphabet; intermediate
    measurements are rotated projective measurements on the freshest
    output; feedback maps, carried by the measurement they follow, are
    outcome-indexed unitaries on the not-yet-transmitted registers.
    """

    channel: QuantumChannel
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.channel.in_dim != 2:
            raise ValidationError("the feedback code family is parametrized for qubits")
        self.n = len(self.words[0])
        self.book = Codebook(2, self.n, self.words)
        # (round m, outcome k, register r)
        self.fb_slots = [(m, k, r) for m in range(2, self.n) for k in range(2) for r in range(m, self.n)]
        self.prob_block = slice(0, len(self.words))
        self.fb_start = len(self.words) + 4 + 2 * (self.n - 1)
        self.size = self.fb_start + 3 * len(self.fb_slots)
        self._parts: dict = {}  # the last codeword states and each last M_t, with the bytes each was made from

    def initial(self, rng: np.random.Generator | None = None) -> np.ndarray:
        x = np.zeros(self.size)
        base = len(self.words)
        x[self.prob_block] = 1.0 / base
        x[base + 2] = np.pi  # letter 1 at the opposite pole
        if rng is not None:
            x[self.prob_block] = simplex_projection(rng.dirichlet(np.ones(base)))
            x[base:] = rng.uniform(0.0, np.pi, self.size - base)
        return x

    def build(self, x: np.ndarray) -> FeedbackCode:
        """The code at ``x``, its M_n None (the objective never reads it), reusing each part whose bytes stayed."""
        n, parts = self.n, self._parts
        probs = simplex_projection(x[self.prob_block])
        base = len(self.words)
        key = x[base : base + 4].tobytes()  # the letter angles
        if parts.get("states", (None,))[0] != key:
            letters = [bloch_state(x[base + 2 * a], x[base + 2 * a + 1]) for a in range(2)]
            parts["states"] = key, product_states(letters, self.words)
        fbase = self.fb_start
        fb: dict = {}  # M_t's feedback: per outcome, one unitary per register t+1..n-1, in register order
        for idx, (m, k, _) in enumerate(self.fb_slots):
            fb.setdefault(m - 1, {}).setdefault(k, []).append(euler_unitary(*x[fbase + 3 * idx : fbase + 3 * idx + 3]))
        mbase = base + 4
        for t in range(1, n):
            feedback = {k: (kron_all(us),) for k, us in fb.get(t, {}).items()}
            angles = x[mbase + 2 * t - 2 : mbase + 2 * t]
            key = angles.tobytes() + b"".join(u.tobytes() for (u,) in feedback.values())
            if parts.get(t, (None,))[0] != key:
                parts[t] = key, on_freshest(rotated_qubit_povm(*angles), t, feedback)
        measurements = tuple(parts[t][1] for t in range(1, n)) + (None,)
        return FeedbackCode(self.book, self.channel, probs, parts["states"][1], measurements)


@dataclass
class FeedbackCapacityResult:
    code: FeedbackCode
    rate: float
    converged: bool
    start_values: tuple[float, ...]
    no_feedback_rate: float


def estimate_feedback_capacity(
    channel: QuantumChannel,
    n: int,
    config: OptimizerConfig | None = None,
) -> FeedbackCapacityResult:
    """Best found (1/n) * directed information over the parametrized family on ``default_words(n)``.

    A lower bound on the fixed-n optimum.  Each start first climbs with the
    feedback parameters frozen, then (if feedback is enabled) continues from
    that point with them free, so enabling feedback can never report a lower
    rate than the no-feedback run under the same seed.
    """
    cfg = config or OptimizerConfig()
    check_count(n, "block length n", 1)
    if channel.in_dim != 2:
        raise ValidationError("feedback capacity estimation is parametrized for qubits")
    if channel.in_dim**n > 8:
        raise ValidationError("dimension budget allows n <= 3 for qubit channels")
    family = FeedbackCodeFamily(channel, default_words(n))
    last = [None, None, None, None]  # the last shape's key, its _ehs_by_law pair, states and term plan by keep masks

    def objective(x):
        # directed_information_total(family.build(x)) / n.  The walk reads no codeword probability, so a move that
        # keeps the non-probability coordinates (the key) reuses it, and the states and term plan of its keep masks.
        key = x[family.prob_block.stop :].tobytes()
        if key != last[0]:
            code = family.build(x)
            last[:] = key, *_ehs_by_law(code, list(_walk(code, family.words))), {}
        _, law, make, plans = last
        kept = law(simplex_projection(x[family.prob_block]))  # the probabilities as build makes them
        masks = tuple(keep.tobytes() for keep, _ in kept)
        if masks not in plans:
            states = make(kept)
            plans[masks] = states, _cmi_plan(_term_requests(states))
        states, plan = plans[masks]
        return float(sum(plan({state: weights for state, (_, weights) in zip(states, kept)}))) / family.n

    fb_coords = set(range(family.fb_start, family.size))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.starts)
    best_x, best_val, best_converged = None, -1.0, False
    no_fb_best = -1.0
    values = []
    for s, seq in enumerate(seeds):
        rng = None if s == 0 else np.random.default_rng(seq)
        x0 = family.initial(rng)
        stage1 = coordinate_ascent(objective, x0, family.prob_block, cfg, frozen=fb_coords)
        no_fb_best = max(no_fb_best, stage1.value)
        res = stage1
        if cfg.feedback and fb_coords:
            stage2 = coordinate_ascent(objective, stage1.x, family.prob_block, cfg)
            if stage2.value >= stage1.value:
                res = stage2
        values.append(res.value)
        if res.value > best_val:
            best_x, best_val, best_converged = res.x, res.value, res.converged
    code = family.build(best_x)
    weights = [max(p, 1e-12) for p in code.probs]
    total = sum(weights)
    code = with_pgm_decoder(code, [w / total for w in weights])
    return FeedbackCapacityResult(code, float(best_val), best_converged, tuple(values), float(no_fb_best))
