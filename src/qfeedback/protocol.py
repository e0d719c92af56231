"""n-block feedback-code protocol engine.

A feedback code transmits one codeword letter per channel use.  Round 1
prepares omega^0 by sending the first letter; update m (2 <= m <= n) sends
letter m, measures M_{m-1} on the received prefix and applies the
outcome-conditioned post-processing map on the letters still to be sent.
After update n the final measurement M_n produces the decoding outcome.
Every register therefore passes through the channel exactly once, and the
outcome of M_{m-1} can only influence registers m+1..n (1-indexed), matching
the domain of the post-processing maps.

One update is ``_update`` (channel, then measurement) followed by
``_post_process`` (the feedback map); ``_walk`` expands it over all outcomes
of one codeword, and transcripts, EHS states, averaged final states, prefix
tables and error probabilities are all read off that walk.  Codes are
assembled here too: letter-product codeword states (``product_states``),
measurements on the freshest register (``on_freshest``) and the PGM final
measurement (``with_pgm_decoder``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Hashable

import numpy as np

from .cqstate import CqState, prune_branches
from .linalg import herm_eigvals, identity, kron, kron_all
from .quantum import (
    COMPLETENESS_TOL,
    ER,
    PROB_FLOOR,
    DensityMatrix,
    Povm,
    QuantumChannel,
    ValidationError,
    apply_channel_at,
    apply_kraus,
    completeness_defect,
    leading_block_rest,
    measure,
    measure_probabilities,
    random_density_matrix,
    random_povm,
    random_unitary,
    square_root_measurement,
)

ENUM_CAP = 10**6


class CapExceededError(Exception):
    """An exact enumeration would exceed the configured branch budget."""


@dataclass(frozen=True)
class Codebook:
    """Classical code: distinct length-n strings over a finite alphabet."""

    alphabet: int
    n: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        words = tuple(tuple(int(x) for x in w) for w in self.words)
        object.__setattr__(self, "words", words)
        if len(set(words)) != len(words):
            raise ValidationError("codebook words are not distinct")
        for w in words:
            if len(w) != self.n:
                raise ValidationError(f"word {w} does not have length {self.n}")
            if any(not 0 <= x < self.alphabet for x in w):
                raise ValidationError(f"word {w} uses letters outside the alphabet")

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class FeedbackCode:
    """The code quadruple plus the channel it is built for.

    measurements[j-1] is M_j, acting on the first j registers: a Povm, or an
    adaptive ``{history: Povm}`` dict keyed by the tuple of earlier outcomes.
    feedback[m] maps the outcome of M_{m-1} to a Kraus family on registers
    m..n-1 (0-indexed); missing entries mean "do nothing".  The decoded
    message is the outcome of M_n.
    """

    codebook: Codebook
    channel: QuantumChannel
    probs: tuple[float, ...]
    states: tuple[DensityMatrix, ...]
    measurements: tuple
    feedback: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "measurements", tuple(self.measurements))
        object.__setattr__(self, "feedback", dict(self.feedback))

    @property
    def n(self) -> int:
        return self.codebook.n

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.channel.in_dim,) * self.codebook.n

    def word_index(self, word) -> int:
        word = tuple(int(x) for x in word)
        try:
            return self.codebook.words.index(word)
        except ValueError:
            raise ValidationError(f"unknown codeword {word}") from None

    def measurement(self, j: int, history: tuple = ()) -> Povm:
        """M_j (resolved on ``history``), checked to act on the first j registers."""
        povm = self.measurements[j - 1]
        if isinstance(povm, dict):
            try:
                povm = povm[tuple(history)]
            except KeyError:
                raise ValidationError(f"no measurement tabulated for history {history!r}") from None
        leading_block_rest(povm.dim, self.dims, j)
        return povm

    def outcome_labels(self, j: int) -> tuple[Hashable, ...]:
        """Labels of M_j, over every history of an adaptive M_j in first-seen order."""
        m = self.measurements[j - 1]
        povms = m.values() if isinstance(m, dict) else (m,)
        return tuple(dict.fromkeys(lab for povm in povms for lab in povm.labels))

    def feedback_kraus(self, m: int, outcome):
        per_round = self.feedback.get(m)
        if not per_round:
            return None
        return per_round.get(outcome)


@dataclass(frozen=True)
class ProtocolTranscript:
    word: tuple[int, ...]
    outcomes: tuple
    probability: float
    states: tuple[DensityMatrix, ...]  # omega^0 .. omega^{n-1}

    @property
    def decoded(self) -> Hashable:
        """The decoded message: the outcome of the final measurement."""
        return self.outcomes[-1]


@dataclass
class CodeReport:
    violations: list[tuple[str, float]] = field(default_factory=list)

    def add(self, name: str, magnitude: float = float("nan")):
        self.violations.append((name, magnitude))

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_code(code: FeedbackCode) -> CodeReport:
    """Check every structural invariant; returns a report, never raises."""
    rep = CodeReport()
    book = code.codebook
    n = book.n
    d = code.channel.in_dim

    if code.channel.in_dim != code.channel.out_dim:
        rep.add("channel: not square", abs(code.channel.in_dim - code.channel.out_dim))
    if len(code.probs) != book.size or len(code.states) != book.size:
        rep.add("ensemble: arity mismatch with codebook", 0.0)
        return rep
    psum = sum(code.probs)
    if not abs(psum - 1.0) <= 1e-12:
        rep.add("ensemble: probabilities do not sum to 1", abs(psum - 1.0))
    if not all(p >= -1e-12 for p in code.probs):
        rep.add("ensemble: negative probability", min(code.probs))
    for i, rho in enumerate(code.states):
        if rho.dims != (d,) * n:
            rep.add(f"ensemble: state {i} has shape {rho.dims}", 0.0)
            continue
        try:
            rho.validate()
        except ValidationError:
            rep.add(f"ensemble: state {i} is not PSD", float(herm_eigvals(rho.mat)[-1]))

    if len(code.measurements) != n:
        rep.add(f"measurements: expected {n}, got {len(code.measurements)}", 0.0)
        return rep
    for j in range(1, n + 1):
        meas = code.measurements[j - 1]
        entries = meas.items() if isinstance(meas, dict) else [((), meas)]
        for hist, povm in entries:
            if povm.dim != d**j:
                rep.add(f"M_{j}: dimension {povm.dim} != {d ** j}", 0.0)
                continue
            defect = povm.completeness_defect()
            if not defect <= COMPLETENESS_TOL:
                rep.add(f"M_{j}: completeness defect (history={hist!r})", defect)
    final_labels = set(code.outcome_labels(n))
    allowed = set(book.words) | {ER}
    if not final_labels <= allowed:
        rep.add("M_n: outcomes are not codewords plus 'er'", float(len(final_labels - allowed)))

    for m, per_outcome in sorted(code.feedback.items()):
        suffix = (d,) * (n - m)
        if m < 2 or m > n:
            rep.add(f"feedback round {m}: out of range", 0.0)
            continue
        if not suffix:
            rep.add(f"feedback round {m}: acts on an empty register set", 0.0)
            continue
        d_suf = d ** (n - m)
        for outcome, kraus in per_outcome.items():
            mats = [np.asarray(k, dtype=complex) for k in kraus]
            if any(k.shape != (d_suf, d_suf) for k in mats):
                rep.add(f"feedback round {m} outcome {outcome!r}: wrong shape", 0.0)
                continue
            defect = completeness_defect(mats)
            if not defect <= COMPLETENESS_TOL:
                rep.add(f"feedback round {m} outcome {outcome!r}: completeness", defect)
    return rep


def _padded_povm(povm: Povm, dims, j: int) -> Povm:
    """Pad a measurement on the first j registers with identity on the rest."""
    pad = identity(leading_block_rest(povm.dim, dims, j))
    if j == len(dims):
        return povm
    return Povm(tuple((lab, kron(f, pad)) for lab, f in povm.elements))


def round_zero(code: FeedbackCode, word) -> DensityMatrix:
    """omega^0: the codeword state with the channel applied on register 0."""
    idx = code.word_index(word)
    return apply_channel_at(code.channel, code.states[idx], 0)


def _update(code: FeedbackCode, state: DensityMatrix, m: int, history: tuple) -> dict:
    """Update m up to the measurement: channel on register m-1, then M_{m-1} on the prefix.

    ``state`` is omega^{m-2}; returns outcome -> (probability, post-state)
    before post-processing.
    """
    sigma = apply_channel_at(code.channel, state, m - 1)
    return measure(code.measurement(m - 1, history), sigma)


def _post_process(code: FeedbackCode, m: int, outcome, post: DensityMatrix) -> DensityMatrix:
    """Apply the outcome's feedback Kraus family on the registers still to be sent."""
    kraus = code.feedback_kraus(m, outcome)
    if kraus is not None and m < code.n:
        post = apply_kraus(kraus, post, registers=range(m, code.n))
    return post


def round_update(
    code: FeedbackCode,
    state: DensityMatrix,
    m: int,
    outcome,
    history: tuple = (),
) -> tuple[float, DensityMatrix]:
    """One protocol update: channel on register m-1, measure M_{m-1}, post-process.

    ``state`` is omega^{m-2}; returns the conditional probability of
    ``outcome`` and omega^{m-1}.  ``history`` carries earlier outcomes for
    adaptive measurement schedules.
    """
    n = code.n
    if not 2 <= m <= n:
        raise ValidationError(f"round {m} out of range 2..{n}")
    branches = _update(code, state, m, history)
    if outcome not in branches:
        raise ValidationError(f"outcome {outcome!r} has probability below the floor")
    p, post = branches[outcome]
    return p, _post_process(code, m, outcome, post)


def _walk(code: FeedbackCode, word, cap: int = ENUM_CAP) -> list[list]:
    """Branch frontiers of one codeword for t = 0..n-1.

    Frontier t lists (outcomes of M_1..M_t, their probability given the
    word, omega^0..omega^t).  Branches whose path probability falls below
    PROB_FLOOR are dropped; a frontier larger than ``cap`` raises.
    """
    frontiers = [[((), 1.0, (round_zero(code, word),))]]
    for m in range(2, code.n + 1):
        new = []
        for history, p_path, states in frontiers[-1]:
            for outcome, (p, post) in _update(code, states[-1], m, history).items():
                if p_path * p < PROB_FLOOR:
                    continue
                post = _post_process(code, m, outcome, post)
                new.append((history + (outcome,), p_path * p, states + (post,)))
            if len(new) > cap:
                raise CapExceededError(f"transcript enumeration exceeded {cap} branches")
        frontiers.append(new)
    return frontiers


def _transcripts(code: FeedbackCode, word, frontiers, cap: int = ENUM_CAP) -> list[ProtocolTranscript]:
    """Final measurement on the last frontier of ``_walk``."""
    out = []
    for history, p_path, states in frontiers[-1]:
        final = code.measurement(code.n, history)
        for k_n, p in measure_probabilities(final, states[-1]).items():
            prob = p_path * p
            if prob < PROB_FLOOR:
                continue
            out.append(ProtocolTranscript(word, history + (k_n,), prob, states))
            if len(out) > cap:
                raise CapExceededError(f"transcript enumeration exceeded {cap} branches")
    return out


def enumerate_transcripts(code: FeedbackCode, word, cap: int = ENUM_CAP) -> list[ProtocolTranscript]:
    """Exact expansion of the round recursion over all outcome sequences."""
    word = tuple(int(x) for x in word)
    return _transcripts(code, word, _walk(code, word, cap), cap)


def _draw(probs: dict, rng):
    labels = list(probs)
    weights = np.array([probs[k] for k in labels])
    return labels[int(rng.choice(len(labels), p=weights / weights.sum()))]


def sample_transcript(code: FeedbackCode, word, rng) -> ProtocolTranscript:
    """Draw one transcript; reproducible for a seeded generator."""
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    word = tuple(int(x) for x in word)
    history: tuple = ()
    states = (round_zero(code, word),)
    prob = 1.0
    for m in range(2, code.n + 1):
        branches = _update(code, states[-1], m, history)
        pick = _draw({k: b[0] for k, b in branches.items()}, rng)
        p, post = branches[pick]
        history += (pick,)
        states += (_post_process(code, m, pick, post),)
        prob *= p
    finals = measure_probabilities(code.measurement(code.n, history), states[-1])
    pick = _draw(finals, rng)
    prob *= finals[pick]
    return ProtocolTranscript(word, history + (pick,), prob, states)


def _average_state(code: FeedbackCode, frontier) -> DensityMatrix:
    acc = None
    for _history, p_path, states in frontier:
        acc = p_path * states[-1].mat if acc is None else acc + p_path * states[-1].mat
    return DensityMatrix(acc / np.trace(acc).real, code.dims)


def _ehs_states(code: FeedbackCode, walks: dict) -> list[CqState]:
    """EHS states for t = 0..n-1 from the ``_walk`` frontiers of each word."""
    n = code.n
    labels = [code.outcome_labels(j) for j in range(1, n)]
    regs = tuple((f"A{i + 1}", code.codebook.alphabet) for i in range(n)) + tuple(
        (f"X{j + 1}", len(labels[j]) + 1) for j in range(n - 1)
    )

    def labelled(word, history):
        xs = [labels[j].index(k) + 1 for j, k in enumerate(history)]
        xs += [0] * (n - 1 - len(xs))
        return word + tuple(xs)

    per_time: list[list] = [[] for _ in range(n)]
    for idx, word in enumerate(code.codebook.words):
        p_word = code.probs[idx]
        if p_word < PROB_FLOOR:
            continue
        for t in range(n):
            for history, p_path, states in walks[word][t]:
                per_time[t].append((labelled(word, history), p_word * p_path, states[-1]))
    return [CqState(regs, code.dims, prune_branches(b)) for b in per_time]


def ehs_states(code: FeedbackCode) -> list[CqState]:
    """EHS states for t = 0..n-1 from one walk per codeword.

    Classical registers: A_1..A_n holding the codeword letters and
    X_1..X_{n-1} holding recorded outcomes (0 = not yet recorded, outcome k
    of M_j stored as its index + 1).  The quantum part of state t is
    omega^t, in which registers 0..t have passed through the channel.
    """
    walks = {
        word: _walk(code, word)
        for idx, word in enumerate(code.codebook.words)
        if code.probs[idx] >= PROB_FLOOR
    }
    return _ehs_states(code, walks)


def ehs_state(code: FeedbackCode, t: int) -> CqState:
    """Joint classical-quantum state after t measured rounds (see ehs_states)."""
    if not 0 <= t <= code.n - 1:
        raise ValidationError(f"EHS time {t} out of range 0..{code.n - 1}")
    return ehs_states(code)[t]


def outcome_chain(code: FeedbackCode) -> dict:
    """Joint distribution over (codeword, full outcome tuple)."""
    chain: dict = {}
    for idx, word in enumerate(code.codebook.words):
        p_word = code.probs[idx]
        if p_word < PROB_FLOOR:
            continue
        for tr in enumerate_transcripts(code, word):
            chain[(word, tr.outcomes)] = chain.get((word, tr.outcomes), 0.0) + p_word * tr.probability
    return chain


def _p_correct(transcripts, word) -> float:
    p_correct = 0.0
    for tr in transcripts:
        if tr.decoded == word:
            p_correct += tr.probability
    return p_correct


def _error_figures(code: FeedbackCode, p_correct) -> tuple[float, float]:
    """(average, maximal) error from each codeword's probability of correct decoding."""
    worst = 0.0
    avg = 0.0
    for prob, p in zip(code.probs, p_correct):
        err = 1.0 - p
        worst = max(worst, err)
        avg += prob * err
    return avg, worst


def error_probability(code: FeedbackCode) -> tuple[float, float]:
    """(average error, maximal error) over codewords, decoding by the final outcome."""
    words = code.codebook.words
    return _error_figures(code, (_p_correct(enumerate_transcripts(code, w), w) for w in words))


# ----------------------------------------------------------------------------
# Code assembly: how codeword states, measurements and decoders are put together.


def product_states(letters, words) -> tuple[DensityMatrix, ...]:
    """Codeword states: the tensor product of ``letters[a]`` along each word."""
    return tuple(
        DensityMatrix(kron_all(letters[a].mat for a in w), sum((letters[a].dims for a in w), ()))
        for w in words
    )


def on_freshest(single: Povm, j: int) -> Povm:
    """M_j measuring ``single`` on register j-1, identity on the j-1 registers before it."""
    pad = identity(single.dim ** (j - 1))
    return Povm(tuple((lab, kron(pad, f)) for lab, f in single.elements))


def pgm_decoder(states: list[DensityMatrix], weights, labels) -> Povm:
    """Pretty-good-measurement decoder as a complete Povm.

    The square-root measurement of the weighted states p_w rho_w, in label
    order, with the defect from completeness routed to the 'er' outcome.
    """
    gammas = {lab: p * rho.mat for lab, p, rho in zip(labels, weights, states)}
    return square_root_measurement(gammas).as_complete_povm()


def with_pgm_decoder(code: FeedbackCode, weights) -> FeedbackCode:
    """``code`` with M_n replaced by the PGM over its averaged final states.

    ``code``'s own M_n is never read (callers leave it None); ``weights``
    weigh the codewords as in ``pgm_decoder``.
    """
    words = code.codebook.words
    finals = [_average_state(code, _walk(code, w)[-1]) for w in words]
    decoder = pgm_decoder(finals, weights, list(words))
    return replace(code, measurements=code.measurements[:-1] + (decoder,))


def random_feedback_code(
    rng: np.random.Generator,
    channel: QuantumChannel,
    n: int,
    num_words: int = 2,
    feedback: bool = True,
    projective: bool = True,
) -> FeedbackCode:
    """Random n-block feedback code over a binary alphabet of mixed letter states.

    Codeword states are letter products.  Intermediate measurements act on
    the freshest channel output only (two-outcome when not ``projective``),
    and post-processing maps are products of unitaries drawn for every
    outcome of the preceding measurement, so the directed data-processing
    inequality holds for every draw.  With
    ``projective`` the intermediate measurements are rank-1 rotated basis
    projectors; their outcome stays recoverable from the post-measurement
    state, which additionally makes I(M:K_1^n) <= I(M:Z_1^n) hold on every
    draw.  Non-projective measurement operators can dump information into
    the classical record that the disturbed state no longer carries.
    """
    d = channel.in_dim
    all_words = list(itertools.product(range(2), repeat=n))
    if num_words > len(all_words):
        raise ValidationError("more codewords than strings")
    order = rng.permutation(len(all_words))
    words = tuple(all_words[i] for i in order[:num_words])
    book = Codebook(2, n, words)

    probs = rng.dirichlet(np.ones(num_words)) * 0.8 + 0.2 / num_words
    probs = tuple(float(p) for p in probs / probs.sum())

    states = product_states([random_density_matrix(rng, d) for _ in range(2)], words)

    measurements = []
    for j in range(1, n):
        if projective:
            u = random_unitary(rng, d)
            single = Povm(tuple((k, np.outer(u[:, k], u[:, k].conj())) for k in range(d)))
        else:
            single = random_povm(rng, d)
        measurements.append(on_freshest(single, j))

    fb: dict = {}
    if feedback:
        for m in range(2, n):
            labels = measurements[m - 2].labels
            fb[m] = {k: (kron_all(random_unitary(rng, d) for _ in range(m, n)),) for k in labels}

    # Final decoder: PGM over the average pre-decode outputs per word.
    partial = FeedbackCode(book, channel, probs, states, tuple(measurements) + (None,), fb)
    return with_pgm_decoder(partial, probs)
