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

from .directed import directed_information_total
from .linalg import kron_all
from .protocol import Codebook, FeedbackCode, on_freshest, product_states, with_pgm_decoder
from .quantum import (
    DensityMatrix,
    Ensemble,
    QuantumChannel,
    ValidationError,
    apply_channel,
    bloch_state,
    euler_unitary,
    holevo_chi,
    holevo_chis,
    pure_state,
    rotated_qubit_povm,
)


FD_STEP = 1e-4  # central-difference probe width
ASCENT_TOL = 1e-8  # a sweep gaining less than this has converged
STEP0 = 0.3  # first trial move along a coordinate, halved until it pays


@dataclass
class OptimizerConfig:
    starts: int = 8
    seed: int = 0
    max_sweeps: int = 200
    feedback: bool = True


@dataclass
class AscentResult:
    x: np.ndarray
    value: float
    converged: bool
    sweeps: int


def simplex_projection(c: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    n = len(c)
    a = -np.sort(-c)
    lam = (np.cumsum(a) - 1.0) / np.arange(1, n + 1)
    for k in range(n - 1, -1, -1):
        if a[k] > lam[k]:
            return np.maximum(c - lam[k], 0.0)
    return np.full(n, 1.0 / n)


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
    that improve the objective are accepted, so the trajectory is monotone.
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
    h = FD_STEP
    sweeps_used = 0
    for sweep in range(cfg.max_sweeps):
        sweeps_used = sweep + 1
        before = best
        for i in range(len(x)):
            if i in frozen:
                continue
            up, down = objective(bump(x, i, +h)), objective(bump(x, i, -h))
            # Only an exact tie is skipped: a cutoff on |g| sits near one ulp
            # of the objective divided by 2h, where rounding decides.
            if up == down:
                continue
            direction = 1.0 if up > down else -1.0
            step = STEP0
            while step > 1e-10:
                cand = bump(x, i, direction * step)
                val = objective(cand)
                if val > best + 1e-15:
                    x, best = cand, val
                    # Greedy extension while the same move keeps paying.
                    while True:
                        cand = bump(x, i, direction * step)
                        val = objective(cand)
                        if val > best + 1e-15:
                            x, best = cand, val
                        else:
                            break
                    break
                step *= 0.5
        if best - before < ASCENT_TOL:
            return AscentResult(x, best, True, sweeps_used)
    return AscentResult(x, best, False, sweeps_used)


# ----------------------------------------------------------------------------
# Holevo quantity maximization (no-feedback, single channel use).


def _vec_to_state(vec: np.ndarray, dim: int) -> DensityMatrix:
    v = vec[:dim] + 1j * vec[dim:]
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
    else:
        v = v / norm
    return pure_state(v)


def _output_ensemble(channel: QuantumChannel, num_states: int, x: np.ndarray) -> Ensemble:
    """Channel outputs of the input ensemble encoded in ``x``: weights, then state vectors.

    Weights below 1e-12 are dropped and the rest renormalized.
    """
    d = channel.in_dim
    items = []
    for k in range(num_states):
        if x[k] < 1e-12:
            continue
        vec = x[num_states + 2 * d * k : num_states + 2 * d * (k + 1)]
        items.append((float(x[k]), apply_channel(channel, _vec_to_state(vec, d))))
    total = sum(p for p, _ in items)
    return Ensemble(tuple((p / total, rho) for p, rho in items))


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
        return holevo_chi(_output_ensemble(channel, num, x))

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.starts)
    best: AscentResult | None = None
    values = []
    for s, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        x0 = np.empty(num + 2 * d * num)
        x0[prob_block] = 1.0 / num
        if s == 0:
            # Canonical start: computational basis padded with random vectors.
            for k in range(num):
                vec = np.zeros(2 * d)
                if k < d:
                    vec[k] = 1.0
                else:
                    raw = rng.standard_normal(2 * d)
                    vec = raw / np.linalg.norm(raw)
                x0[num + 2 * d * k : num + 2 * d * (k + 1)] = vec
        else:
            x0[prob_block] = simplex_projection(rng.dirichlet(np.ones(num)))
            raw = rng.standard_normal(2 * d * num)
            x0[num:] = raw
        res = coordinate_ascent(objective, x0, prob_block, cfg)
        values.append(res.value)
        if best is None or res.value > best.value:
            best = res

    return HolevoResult(best.value, _output_ensemble(channel, num, best.x), best.converged, tuple(values))


def grid_search_chi(
    channel: QuantumChannel,
    n_theta: int = 7,
    n_phi: int = 5,
    n_prob: int = 9,
) -> float:
    """Dense-grid oracle: best chi over two-state Bloch-sphere ensembles.

    Covers every unordered pair of the n_theta * n_phi grid outputs at each
    interior weight of the n_prob grid (4,410 mixtures at the defaults),
    including the exact poles and the balanced mixture, as one ``holevo_chis``.
    """
    if channel.in_dim != 2:
        raise ValidationError("grid oracle is for qubit channels")
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    probs = np.linspace(0.0, 1.0, n_prob)
    probs = probs[(probs >= 1e-12) & (probs <= 1 - 1e-12)]
    outputs = np.array([apply_channel(channel, bloch_state(t, f)).mat for t in thetas for f in phis])
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
    outcome for rounds 2..n-1).  Codeword states are per-letter pure products;
    intermediate measurements are rotated projective measurements on the
    freshest output; feedback maps are outcome-indexed unitaries on the
    not-yet-transmitted registers.
    """

    channel: QuantumChannel
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.channel.in_dim != 2:
            raise ValidationError("the feedback code family is parametrized for qubits")
        self.n = len(self.words[0])
        self.alphabet = 2
        self.num_words = len(self.words)
        self.meas_rounds = self.n - 1
        self.fb_slots = []  # (round m, outcome k, register r)
        for m in range(2, self.n):
            for k in range(2):
                for r in range(m, self.n):
                    self.fb_slots.append((m, k, r))
        self.prob_block = slice(0, self.num_words)
        self.size = self.num_words + 2 * self.alphabet + 2 * self.meas_rounds + 3 * len(self.fb_slots)

    def feedback_coords(self) -> set[int]:
        start = self.num_words + 2 * self.alphabet + 2 * self.meas_rounds
        return set(range(start, self.size))

    def initial(self, rng: np.random.Generator | None = None) -> np.ndarray:
        x = np.zeros(self.size)
        x[self.prob_block] = 1.0 / self.num_words
        base = self.num_words
        x[base + 2] = np.pi  # letter 1 at the opposite pole
        if rng is not None:
            x[self.prob_block] = simplex_projection(rng.dirichlet(np.ones(self.num_words)))
            x[base:] = rng.uniform(0.0, np.pi, self.size - base)
        return x

    def build(self, x: np.ndarray, with_decoder: bool = False) -> FeedbackCode:
        """The code at ``x``. M_n is None unless ``with_decoder``: the objective never reads it."""
        n = self.n
        probs = simplex_projection(x[self.prob_block])
        base = self.num_words
        letters = [bloch_state(x[base + 2 * a], x[base + 2 * a + 1]) for a in range(self.alphabet)]
        states = product_states(letters, self.words)
        mbase = base + 2 * self.alphabet
        measurements = [
            on_freshest(rotated_qubit_povm(x[mbase + 2 * (t - 1)], x[mbase + 2 * (t - 1) + 1]), t)
            for t in range(1, n)
        ]
        fbase = mbase + 2 * self.meas_rounds
        fb: dict = {}
        for idx, (m, k, r) in enumerate(self.fb_slots):
            a, b, c = x[fbase + 3 * idx : fbase + 3 * idx + 3]
            fb.setdefault(m, {}).setdefault(k, {})[r] = euler_unitary(a, b, c)
        feedback = {
            m: {k: (kron_all(regs[r] for r in range(m, n)),) for k, regs in per.items()}
            for m, per in fb.items()
        }

        book = Codebook(self.alphabet, n, self.words)
        probs_t = tuple(float(p) for p in probs)
        partial = FeedbackCode(book, self.channel, probs_t, states, tuple(measurements) + (None,), feedback)
        if not with_decoder:
            return partial
        weights = [max(p, 1e-12) for p in probs_t]
        total = sum(weights)
        return with_pgm_decoder(partial, [w / total for w in weights])


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
    if channel.in_dim != 2:
        raise ValidationError("feedback capacity estimation is parametrized for qubits")
    if channel.in_dim**n > 8:
        raise ValidationError("dimension budget allows n <= 3 for qubit channels")
    family = FeedbackCodeFamily(channel, default_words(n))

    def objective(x):
        return directed_information_total(family.build(x)) / family.n

    fb_coords = family.feedback_coords()
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
    code = family.build(best_x, with_decoder=True)
    return FeedbackCapacityResult(code, float(best_val), best_converged, tuple(values), float(no_fb_best))
