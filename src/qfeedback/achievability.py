"""Constructive decoding toolbox: typicality, square-root measurements,
double-blocked codes, and the numerical checks behind the error estimates.

The double-blocked construction runs l independent copies of an n-block
feedback code interleaved letter by letter (flat register k*l + j-1 carries
copy j's letter k+1) and inserts an entangling "global round" measurement on
the received prefix after each letter block, built from typical projectors of
the posterior ensembles via the square-root recipe.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    PSD_TOL,
    LinalgError,
    embed_operator,
    herm_eigvals,
    identity,
    kron_all,
    partial_trace,
    permute_registers,
    pinv_sqrt,
    psd_sqrt,
    trace_norm,
)
from .protocol import (
    CapExceededError,
    Codebook,
    FeedbackCode,
    product_states,
    _branch,
    _start,
    _updated,
    _walk,
)
from .quantum import (
    ER,
    PROB_FLOOR,
    TRACE_TOL,
    DensityMatrix,
    Povm,
    SubPovm,  # noqa: F401  (re-exported: the effect form lives next to Povm)
    ValidationError,
    entropy,
    square_root_measurement,
)

PROJECTOR_CAP = 4096
STRING_CAP = 2**20
DIM_BUDGET = 512  # qubits: n*l <= 9


@dataclass(frozen=True)
class TypicalityParams:
    """Width delta, exponent constant c, and block copies l for epsilon_t."""

    delta: float
    c: float = 1.0
    l: int = 1

    def __post_init__(self):
        # Written "not (... > 0)" so that a NaN parameter is rejected too.
        if not (self.delta > 0 and self.c > 0 and self.l >= 1):
            raise ValidationError("typicality parameters must be positive")

    def epsilon(self, t: int) -> float:
        """2^(-t l c delta^2), strictly decreasing in t."""
        if t < 1:
            raise ValidationError("round index must be >= 1")
        return float(2.0 ** (-t * self.l * self.c * self.delta**2))


def _typical_types(p, n: int, delta: float):
    """The types (letter-count vectors) of ``typical_set`` and their multiplicities.

    A string is typical iff its type c has lo <= c <= hi letter by letter, so
    the kept types are the c with sum(c) = n inside that box, listed in
    lexicographic order; type c holds the multinomial n! / prod c_x! strings.
    Rejects what it cannot read as a distribution: a non-finite entry, one
    below -PSD_TOL, a sum more than TRACE_TOL from 1, or an n that is not a
    non-negative int.  Each check is written "not (...)" so that NaN fails it.
    """
    if not delta > 0:
        raise ValidationError(f"typicality width delta must be positive, got {delta}")
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValidationError(f"block length n must be a non-negative int, got {n!r}")
    p = np.asarray(list(p), dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(p >= -PSD_TOL) and abs(p.sum() - 1.0) <= TRACE_TOL):
        raise ValidationError(f"typical_set needs a probability vector, got {p.tolist()}")
    lo = np.ceil(n * p - n * delta - 1e-12)
    hi = np.floor(n * p + n * delta + 1e-12)
    hi[p <= 1e-12] = 0.0
    lo = [max(int(x), 0) for x in lo]
    hi = [min(int(x), n) for x in hi]
    types = [()]
    for x in range(len(p)):
        # Keep a prefix only if the letters after x can still make up the rest of n.
        rest_lo, rest_hi = sum(lo[x + 1 :]), sum(hi[x + 1 :])
        types = [
            c + (cx,)
            for c in types
            for cx in range(lo[x], hi[x] + 1)
            if rest_lo <= n - sum(c) - cx <= rest_hi
        ]
    mults = [math.factorial(n) // math.prod(math.factorial(cx) for cx in c) for c in types]
    return tuple(types), tuple(mults)


def _strings_of_type(counts) -> list[tuple[int, ...]]:
    """Every string in which letter x appears counts[x] times."""
    out = []
    s = [0] * sum(counts)

    def place(x, free):
        if x == len(counts) - 1:
            for i in free:
                s[i] = x
            out.append(tuple(s))
            return
        for chosen in itertools.combinations(free, counts[x]):
            for i in chosen:
                s[i] = x
            taken = set(chosen)
            place(x + 1, [i for i in free if i not in taken])

    place(0, range(len(s)))
    return out


def typical_set(p, n: int, delta: float) -> set[tuple[int, ...]]:
    """Strings whose letter counts all satisfy |N(x) - n p(x)| <= n delta.

    Letters of probability zero are excluded outright (the standard strong
    typicality convention), whatever the width.  The width must be positive
    (NaN included in the rejection): a width <= 0 keeps at most the
    exact-count strings, and every decoder built on such a set is useless.
    Only the kept types are expanded, so the work follows the size of the
    set, which STRING_CAP bounds before any string is built.
    """
    types, mults = _typical_types(p, n, delta)
    if sum(mults) > STRING_CAP:
        raise CapExceededError(f"{sum(mults)} typical strings exceed the enumeration cap")
    return {s for c in types for s in _strings_of_type(c)}


@dataclass(frozen=True)
class TypicalProjectorData:
    """Lazy form: eigenbasis of rho plus the kept types and how many strings each holds."""

    eigvals: np.ndarray
    eigvecs: np.ndarray
    n: int
    types: tuple
    multiplicities: tuple

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)

    def compressed_eigenvalues(self) -> np.ndarray:
        """The distinct eigenvalues prod_x p_x^(c_x) of Pi rho^(x)n Pi, one per kept type."""
        types = np.asarray(self.types, dtype=int).reshape(-1, len(self.eigvals))
        return np.prod(self.eigvals**types, axis=1)

    def overlap(self) -> float:
        """tr(rho^(x)n Pi): each type's eigenvalue times its multiplicity."""
        return math.fsum(float(v) * m for v, m in zip(self.compressed_eigenvalues(), self.multiplicities))

    def matrix(self) -> np.ndarray:
        d = len(self.eigvals)
        if d**self.n > PROJECTOR_CAP:
            raise CapExceededError("materialized projector exceeds the cap")
        diag = np.zeros(d**self.n)
        for c in self.types:
            for s in _strings_of_type(c):
                idx = 0
                for x in s:
                    idx = idx * d + x
                diag[idx] = 1.0
        v = kron_all([self.eigvecs] * self.n)
        return (v * diag) @ v.conj().T


def typical_projector_data(rho: DensityMatrix, n: int, delta: float) -> TypicalProjectorData:
    w, v = rho.eig()
    return TypicalProjectorData(w, v, n, *_typical_types(w, n, delta))


def typical_projector(rho: DensityMatrix, n: int, delta: float) -> np.ndarray:
    """Projector onto the delta-typical eigenstrings of rho^(x)n, as a dense matrix.

    Above PROJECTOR_CAP use the lazy form, ``typical_projector_data``.
    """
    return typical_projector_data(rho, n, delta).matrix()


def cond_typical_projector(states: dict, word, delta: float) -> np.ndarray:
    """Conditionally typical projector for a labeled word.

    Positions carrying the same label are grouped, each group receives the
    typical projector of its state on that many copies, and the group
    projectors are placed back at their positions.
    """
    word = tuple(word)
    dims = []
    for u in word:
        if u not in states:
            raise ValidationError(f"no state supplied for label {u!r}")
        dims.append(states[u].dim)
    total = 1
    for d in dims:
        total *= d
    if total > PROJECTOR_CAP:
        raise CapExceededError("conditional projector exceeds the cap")
    out = identity(total)
    for u in sorted(set(word), key=repr):
        positions = [i for i, x in enumerate(word) if x == u]
        block = typical_projector(states[u], len(positions), delta)
        out = out @ embed_operator(block, dims, positions)
    return out


def gamma_operator(avg_proj: np.ndarray, cond_proj: np.ndarray) -> np.ndarray:
    """Pi_avg Pi_cond Pi_avg: PSD and at most the identity."""
    if avg_proj.shape != cond_proj.shape:
        raise LinalgError("projector dimensions differ")
    g = avg_proj @ cond_proj @ avg_proj
    return 0.5 * (g + g.conj().T)


@dataclass(frozen=True)
class GentleReport:
    overlap: float
    epsilon: float
    distance: float
    bound: float
    hypothesis_ok: bool
    passed: bool


def gentle_measurement_check(rho: DensityMatrix, effect: np.ndarray, eps: float) -> GentleReport:
    """Winter-style tender measurement bound sqrt(24 eps) + 6 eps.

    Hypothesis: tr(rho R) >= 1 - 3 eps; reported rather than raised when it
    fails.  The distance is between rho and its renormalized post-measurement
    state sqrt(R) rho sqrt(R) / tr(rho R).
    """
    overlap = float(np.trace(rho.mat @ effect).real)
    root = psd_sqrt(effect)
    post = root @ rho.mat @ root
    distance = trace_norm(rho.mat - post / overlap) if overlap > PROB_FLOOR else 2.0
    bound = cumulative_disturbance_bound([eps])
    return GentleReport(
        overlap=overlap,
        epsilon=eps,
        distance=float(distance),
        bound=bound,
        hypothesis_ok=overlap >= 1.0 - 3.0 * eps - 1e-12,
        passed=distance <= bound + 1e-9,
    )


def hayashi_nagaoka_check(s: np.ndarray, t: np.ndarray):
    """Operator inequality I - (S+T)^(-1/2) S (S+T)^(-1/2) <= 2(I-S) + 4T.

    Requires 0 <= S <= I and T >= 0.  Returns (violation, passed) where the
    violation is the largest eigenvalue of LHS - RHS (negative when the
    inequality holds strictly); it passes up to 1e-9.
    """
    s = 0.5 * (s + s.conj().T)
    t = 0.5 * (t + t.conj().T)
    ws = herm_eigvals(s)
    wt = herm_eigvals(t)
    if ws[-1] < -1e-9 or ws[0] > 1.0 + 1e-9 or wt[-1] < -1e-9:
        raise ValidationError("hayashi_nagaoka_check needs 0 <= S <= I and T >= 0")
    violation = _hn_violation(s, t, 2.0)
    return violation, violation <= 1e-9


def _hn_violation(s: np.ndarray, t: np.ndarray, c: float) -> float:
    """The violation of ``hayashi_nagaoka_check`` with c (I - S) in place of 2 (I - S); the self-test weakens c."""
    w = pinv_sqrt(s + t)
    lhs = identity(s.shape[0]) - w @ s @ w
    rhs = c * (identity(s.shape[0]) - s) + 4.0 * t
    diff = rhs - lhs
    return -float(herm_eigvals(0.5 * (diff + diff.conj().T))[-1])


@dataclass(frozen=True)
class TypicalityReport:
    overlap: float
    overlap_bound: float
    max_compressed: float
    eigen_cap: float
    rank: int
    overlap_ok: bool
    eigen_ok: bool


def typicality_bounds_check(rho: DensityMatrix, n: int, delta: float, c: float = 1.0) -> TypicalityReport:
    """Measured typicality quantities against the standard bounds.

    Checks tr(rho^n Pi) >= 1 - 2 |spec| exp(-2 n delta^2) and that every
    Pi-compressed eigenvalue is at most 2^(-n (S(rho) - c delta)).  Both
    measured values and bounds are reported; the eigenvalue cap only holds
    when c is at least the spread of |log2 lambda| across the spectrum, so a
    too-small c yields an honest failing report.
    """
    data = typical_projector_data(rho, n, delta)
    comp = data.compressed_eigenvalues()
    overlap = data.overlap()
    d = rho.dim
    overlap_bound = 1.0 - 2.0 * d * float(np.exp(-2.0 * n * delta * delta))
    max_comp = float(comp.max()) if comp.size else 0.0
    cap = float(2.0 ** (-n * (entropy(rho) - c * delta)))
    return TypicalityReport(
        overlap=overlap,
        overlap_bound=overlap_bound,
        max_compressed=max_comp,
        eigen_cap=cap,
        rank=data.rank,
        overlap_ok=overlap >= overlap_bound - 1e-12,
        eigen_ok=max_comp <= cap + 1e-15,
    )


def error_recursion(per_round) -> list[float]:
    """Cumulative error E(P_t) = E(P_{t-1}) + p_t (1 - E(P_{t-1}))."""
    acc = 0.0
    out = []
    for p in per_round:
        p = float(p)
        if not 0.0 <= p <= 1.0 + 1e-12:
            raise ValidationError(f"conditional error {p} outside [0,1]")
        acc = acc + p * (1.0 - acc)
        out.append(acc)
    return out


def disturbance_accumulator(params: TypicalityParams, t: int) -> float:
    """sum_{s<=t} (sqrt(24 eps_s) + 6 eps_s) for eps_s = 2^(-s l c delta^2)."""
    if t < 1:
        raise ValidationError("round index must be >= 1")
    return cumulative_disturbance_bound(params.epsilon(s) for s in range(1, t + 1))


def cumulative_disturbance_bound(eps_values) -> float:
    return float(sum(np.sqrt(24.0 * e) + 6.0 * e for e in eps_values))


# ----------------------------------------------------------------------------
# Double-blocked codes.


def _interleave(group, n: int, l: int) -> tuple[int, ...]:
    # flat letter at k*l + (j-1) is copy j's letter k+1
    return tuple(group[q % l][q // l] for q in range(n * l))


def _copy_to_flat_perm(n: int, l: int) -> list[int]:
    """permutation with new (flat, letter-major) register i = old (copy-major) register perm[i]."""
    return [(f % l) * n + f // l for f in range(n * l)]


def base_prefix_tables(code: FeedbackCode) -> list[dict]:
    """For t = 0..n-1: (word, k_1^t) -> (P(k_1^t | word), omega^t)."""
    tables: list[dict] = [dict() for _ in range(code.n)]
    for t, front in _walk(code, code.codebook.words):
        for w, history, p_path, omega in zip(front.word, front.history, front.prob, front.states):
            tables[t][(code.codebook.words[w], history)] = (float(p_path), DensityMatrix(omega, code.dims))
    return tables


def _slot_components(q: int, n: int, l: int):
    """(base copy j and measurement index k, or None; global round t, or None)."""
    j = (q % l) + 1
    k = (q + 1 - j) // l
    base_comp = (j, k) if 1 <= k <= n - 1 else None
    glob = q // l if (q % l == 0 and 1 <= q // l <= n) else None
    return base_comp, glob


def _base_slot_povm(base: FeedbackCode, q: int, l: int) -> Povm | None:
    """Copy j's base measurement M_k on the first q flat registers, if slot q has one."""
    base_comp, _ = _slot_components(q, base.n, l)
    if base_comp is None:
        return None
    j, k = base_comp
    dims = (base.channel.in_dim,) * q
    targets = [s * l + (j - 1) for s in range(k)]
    # base schedules are fixed Povms
    return Povm(tuple((lab, embed_operator(f, dims, targets)) for lab, f in base.measurement(k).elements))


def _label_parts(q: int, n: int, l: int, lab):
    """(global outcome or None, base outcome or None) of slot q's label.

    A slot with both a global round and a base measurement is labelled
    (global, base); any other slot carries a bare label.
    """
    base_comp, glob = _slot_components(q, n, l)
    if base_comp and glob is not None:
        return lab[0], lab[1]
    return (lab if glob is not None else None), (lab if base_comp else None)


def _posterior(groups, gprobs, table, r_blocks, k_hists) -> dict:
    """Joint posterior over groups given prior global outcomes and base outcomes.

    ``table`` is the base prefix table of the current round; a prior 'er'
    block matches no group, so the posterior is then empty.  Groups are
    summed in sorted order, so the order of the blocked codebook is moot.
    """
    post = {}
    for g, pg in sorted(zip(groups, gprobs)):
        if any(tuple(w[s] for w in g) != block for s, block in enumerate(r_blocks)):
            continue
        like = pg
        for w, k_hist in zip(g, k_hists):
            like *= table.get((w, k_hist), (0.0,))[0]
        if like > 0.0:
            post[g] = like
    total = sum(post.values())
    return {g: p / total for g, p in post.items()}


def _global_gammas(table, post, t: int, r_blocks, k_hists, delta: float) -> dict:
    """Gamma operators of global round t on the flat received prefix, by candidate block."""
    l = len(k_hists)
    marg = [{} for _ in range(l)]
    for g, p in post.items():
        for j in range(l):
            marg[j][g[j]] = marg[j].get(g[j], 0.0) + p

    def avg_state(j, restrict=None):
        # Every candidate letter comes from a group of positive posterior weight,
        # so each average has at least one term; sorted, so the sum is order-free.
        acc, tot = None, 0.0
        for w, p in sorted(marg[j].items()):
            if restrict is not None and w[t - 1] != restrict:
                continue
            _, omega = table[(w, k_hists[j])]
            sigma = partial_trace(omega.mat, omega.dims, keep=range(t))
            acc = p * sigma if acc is None else acc + p * sigma
            tot += p
        return DensityMatrix(acc / tot, omega.dims[:t])

    labels = []
    avg_states = {}
    for j in range(l):
        lab = (tuple(b[j] for b in r_blocks), k_hists[j])
        labels.append(lab)
        if lab not in avg_states:
            avg_states[lab] = avg_state(j)
    dims = avg_states[labels[0]].dims * l
    perm = _copy_to_flat_perm(t, l)
    pi_avg = permute_registers(cond_typical_projector(avg_states, labels, delta), dims, perm)
    out = {}
    for r in sorted({tuple(g[j][t - 1] for j in range(l)) for g in post}):
        cond_states = {}
        cond_labels = []
        for j in range(l):
            lab = (labels[j], r[j])
            cond_labels.append(lab)
            if lab not in cond_states:
                cond_states[lab] = avg_state(j, restrict=r[j])
        pi_r = cond_typical_projector(cond_states, cond_labels, delta)
        out[r] = gamma_operator(pi_avg, permute_registers(pi_r, dims, perm))
    return out


def build_double_blocked_code(
    base: FeedbackCode,
    l: int,
    delta: float = 0.3,
    groups=None,
) -> FeedbackCode:
    """Interleave l copies of ``base`` with square-root global-round decoding.

    ``groups`` selects which l-tuples of base codewords form the blocked
    codebook (default: all combinations, with product probabilities); the
    implied per-round rate split is reported by ``rate_split``.  The result
    is an ordinary FeedbackCode: global-round measurements are tabulated per
    outcome history (``{history: Povm}``), and the final measurement emits
    flat codewords (or 'er').
    """
    n, d = base.n, base.channel.in_dim
    nl = n * l
    if d**nl > DIM_BUDGET:
        raise CapExceededError(f"dimension {d ** nl} exceeds the budget {DIM_BUDGET}")
    if groups is None:
        groups = list(itertools.product(base.codebook.words, repeat=l))
    else:
        groups = [tuple(tuple(w) for w in g) for g in groups]
    gprobs = np.array(
        [np.prod([base.probs[base.word_index(w)] for w in g]) for g in groups], dtype=float
    )
    gprobs = gprobs / gprobs.sum()

    flat_words = tuple(_interleave(g, n, l) for g in groups)
    book = Codebook(base.codebook.alphabet, nl, flat_words)
    perm = _copy_to_flat_perm(n, l)
    flat_states = tuple(
        DensityMatrix(permute_registers(s.mat, s.dims, perm), s.dims)
        for s in product_states(dict(zip(base.codebook.words, base.states)), groups)
    )

    tables = base_prefix_tables(base)
    slots: list[dict] = []
    feedback: dict = {}
    # Each open history carries its prior global blocks and per-copy base outcomes.
    histories = {(): ((), ((),) * l)}
    for q in range(1, nl + 1):
        base_comp, t = _slot_components(q, n, l)
        base_povm = _base_slot_povm(base, q, l)
        c = q % l  # copy j - 1, whose base outcomes slot q extends
        slot, following, base_outcome = {}, {}, {}
        for history, (r_blocks, k_hists) in histories.items():
            if t is None:
                # Slots before copy l's first letter measure nothing; each has one history.
                povm = base_povm or Povm(((0, identity(d**q)),))
            else:
                post = _posterior(groups, gprobs, tables[t - 1], r_blocks, k_hists)
                roots = ((ER, identity(d**q)),)
                if post:
                    gammas = _global_gammas(tables[t - 1], post, t, r_blocks, k_hists, delta)
                    roots = square_root_measurement(gammas).roots()
                if t == n:
                    # The last global outcome names the flat codeword: all blocks in order.
                    roots = [(sum(r_blocks, ()) + lab if lab != ER else ER, m) for lab, m in roots]
                if base_povm is not None:
                    roots = [((r, b), f @ m) for r, m in roots for b, f in base_povm.elements]
                povm = Povm(tuple(roots))
            slot[history] = povm
            for lab in povm.labels:
                r, kb = _label_parts(q, n, l, lab)
                base_outcome[lab] = kb
                ks = k_hists if kb is None else k_hists[:c] + (k_hists[c] + (kb,),) + k_hists[c + 1 :]
                following[history + (lab,)] = (r_blocks if r is None else r_blocks + (r,), ks)
        slots.append(slot)
        histories = following
        if base_comp is None:
            continue
        # Copy j's round-(k+1) feedback on its registers k+1..n-1, placed once
        # per base outcome and keyed by every flat label carrying that outcome.
        j, k = base_comp
        targets = [s * l + (j - 1) - (q + 1) for s in range(k + 1, n)]
        kraus = {b: base.feedback_kraus(k + 1, b) for b in base_povm.labels} if targets else {}
        placed = {
            b: tuple(embed_operator(mk, (d,) * (nl - q - 1), targets) for mk in ops)
            for b, ops in kraus.items()
            if ops is not None
        }
        per = {lab: placed[b] for lab, b in base_outcome.items() if b in placed}
        if per:
            feedback[q + 1] = per

    # A slot whose every history shares one Povm object is a fixed measurement.
    measurements = tuple(
        next(iter(tab.values())) if len({id(p) for p in tab.values()}) == 1 else tab
        for tab in slots
    )
    probs = tuple(float(p) for p in gprobs)
    return FeedbackCode(book, base.channel, probs, flat_states, measurements, feedback)


def rate_split(code: FeedbackCode, l: int) -> tuple[float, ...]:
    """Per-global-round rates R(t) = log2(N_t) / l from the blocked codebook.

    N_t counts the distinct letter-t blocks labelling the round-t measurement;
    the splits sum to log2(N)/l when the codebook is a full product.
    """
    n = code.codebook.n // l
    out = []
    for t in range(1, n + 1):
        blocks = {tuple(w[(t - 1) * l : t * l]) for w in code.codebook.words}
        out.append(float(np.log2(len(blocks))) / l)
    return tuple(out)


@dataclass(frozen=True)
class DisturbanceRecord:
    """One correct-decoding branch at one global round of a blocked code."""

    group: tuple
    outcomes: tuple
    round: int
    probability: float
    distance: float
    bound: float
    epsilons: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.distance <= self.bound + 1e-9


def _reference_code(base: FeedbackCode, flat: FeedbackCode, l: int) -> FeedbackCode:
    """``flat`` as independent copies, without its global rounds.

    Slot q measures copy j's base M_k alone (``_base_slot_povm``) or
    nothing, and the feedback is ``flat``'s, keyed by the base outcome of
    each flat label.
    """
    n, d = base.n, base.channel.in_dim
    measurements = tuple(
        _base_slot_povm(base, q, l) or Povm(((None, identity(d**q)),)) for q in range(1, n * l + 1)
    )
    feedback = {
        m: {_label_parts(m - 1, n, l, lab)[1]: ops for lab, ops in per.items()}
        for m, per in flat.feedback.items()
    }
    return replace(flat, measurements=measurements, feedback=feedback)


def cumulative_disturbance_report(
    base: FeedbackCode,
    l: int,
    delta: float = 0.3,
    groups=None,
) -> list[DisturbanceRecord]:
    """Measured cumulative disturbance of the global-round measurements.

    Follows every correct-decoding branch of the double-blocked code,
    comparing the joint state (with global-round back-action) against the
    tensor product of the independently evolved copies conditioned on the
    same base outcomes.  Round s contributes a gentle-measurement allowance
    of sqrt(24 eps_s) + 6 eps_s with eps_s measured as (1 - tr(omega R)) / 3
    on that branch; the trace distance must stay below the running total at
    every global round.
    """
    flat = build_double_blocked_code(base, l, delta=delta, groups=groups)
    ref = _reference_code(base, flat, l)
    n = base.n
    records: list[DisturbanceRecord] = []

    for word in flat.codebook.words:
        group = tuple(word[j::l] for j in range(l))
        start = _start(flat, [word])
        branches = [(1.0, start, start, ())]
        for q in range(1, n * l + 1):
            glob = _slot_components(q, n, l)[1]
            if glob is not None:
                correct_r = word if glob == n else word[(glob - 1) * l : glob * l]
            new = []
            for p_path, front_f, front_r, eps in branches:
                # Slot q is update q+1 of both codes (channel on register q, M_q,
                # feedback); the last slot is the final measurement alone.
                povm = flat.measurement(q, front_f.history[0])
                if glob is not None:
                    correct = [lab for lab in povm.labels if _label_parts(q, n, l, lab)[0] == correct_r]
                    if not correct:
                        continue  # correct outcome unreachable on this branch
                    seen = _updated(flat, q + 1, povm, front_r)
                    overlap = sum(p for h, p in zip(seen.history, seen.prob.tolist()) if h[-1] in correct)
                    eps = eps + (max((1.0 - overlap) / 3.0, 0.0),)
                kids_r = _updated(ref, q + 1, ref.measurement(q), front_r)
                refs = {h[-1]: b for b, h in enumerate(kids_r.history)}
                kids_f = _updated(flat, q + 1, povm, front_f)
                for b, (outcomes, p_flat) in enumerate(zip(kids_f.history, kids_f.prob.tolist())):
                    r_lab, b_lab = _label_parts(q, n, l, outcomes[-1])
                    if (glob is not None and r_lab != correct_r) or b_lab not in refs:
                        continue
                    rho_f, rho_r = kids_f.states[b], kids_r.states[refs[b_lab]]
                    if glob is not None:
                        distance = float(trace_norm(rho_f - rho_r))
                        bound = cumulative_disturbance_bound(eps)
                        prob = p_path * p_flat
                        records.append(DisturbanceRecord(group, outcomes, glob, prob, distance, bound, eps))
                    new.append((p_path * p_flat, _branch(kids_f, b), _branch(kids_r, refs[b_lab]), eps))
            branches = new
    return records
