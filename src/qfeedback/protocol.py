"""n-block feedback-code protocol engine.

A feedback code transmits one codeword letter per channel use.  Round 1
prepares omega^0 by sending the first letter; update m (2 <= m <= n) sends
letter m, measures M_{m-1} on the received prefix and applies the
outcome-conditioned post-processing map on the letters still to be sent.
After update n the final measurement M_n produces the decoding outcome.
Every register therefore passes through the channel exactly once, and the
outcome of M_{m-1} can only influence registers m+1..n (1-indexed), matching
the domain of the post-processing maps.

``_walk`` expands the updates over all outcomes of a batch of codewords at
once: its pieces (``Frontier``) are (B, D, D) stacks of branch states with
the word index, outcome history and path probability of each branch, and
``_updated`` is the one update step.  Transcripts, EHS states, averaged
final states, prefix tables and error probabilities are all read off that
walk.  ``sample_transcript`` draws through its (word index, history) nodes,
each expanded by one ``_updated`` when a draw first reaches it and kept with its
draw law in the code's private table, bounded by the nodes drawn (``replace``
starts it empty); a draw is one uniform and one bisect, equal to ``Generator.choice``'s.
Codes are assembled here too: letter-product codeword states (``product_states``),
measurements on the freshest register (``on_freshest``) and the PGM final
measurement (``with_pgm_decoder``).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field, replace
from typing import Hashable

import numpy as np

from .cqstate import CqState, _pruned
from .linalg import herm_eigvals, identity, kron, kron_all
from .quantum import (
    COMPLETENESS_TOL,
    ER,
    STACK_BYTES,
    DensityMatrix,
    Povm,
    QuantumChannel,
    ValidationError,
    _kept,
    channel_at,
    check_count,
    check_law,
    check_states,
    completeness_defect,
    kraus_at,
    law_defects,
    leading_block_rest,
    outcome_probabilities,
    random_density_matrix,
    random_unitary,
    sandwich,
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

    measurements[j-1] is M_j, acting on a leading block of at most j registers:
    a Povm, or an adaptive ``{history: Povm}`` dict keyed by earlier outcomes.
    Each Povm carries its outcomes' feedback (``Povm.feedback``); an outcome
    without a family is followed by no post-processing.  The decoded message
    is the outcome of M_n.
    """

    codebook: Codebook
    channel: QuantumChannel
    probs: tuple[float, ...]
    states: tuple[DensityMatrix, ...]
    measurements: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "measurements", tuple(self.measurements))
        object.__setattr__(self, "_nodes", {})  # sample_transcript's (word index, history) -> node

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
        """M_j (resolved on ``history``), checked to act on a leading block of at most j registers."""
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

    def add(self, name: str, magnitude: float):
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
    for name, magnitude in law_defects(code.probs, ""):
        rep.add(f"ensemble: {name}", magnitude)
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
    histories = [()]  # every outcome history M_1..M_{j-1} can produce
    final_labels = set()  # M_n's outcomes, over its measurements
    for j in range(1, n + 1):
        meas = code.measurements[j - 1]
        table = meas if isinstance(meas, dict) else dict.fromkeys(histories, meas)
        for hist in (h for h in histories if h not in table):
            rep.add(f"M_{j}: no measurement tabulated for history {hist!r}", 0.0)
        histories = [h + (lab,) for h in histories if isinstance(table.get(h), Povm) for lab in table[h].labels]
        entries = meas.items() if isinstance(meas, dict) else [((), meas)]
        for hist, povm in entries:
            if not isinstance(povm, Povm):
                rep.add(f"M_{j}: not a measurement (history={hist!r})", 0.0)
                continue
            if j == n:
                final_labels.update(povm.labels)
            if povm.dim not in {d**i for i in range(1, j + 1)}:
                rep.add(f"M_{j}: dimension {povm.dim} != {d ** j}", 0.0)
            elif not (defect := povm.completeness_defect()) <= COMPLETENESS_TOL:
                rep.add(f"M_{j}: completeness defect (history={hist!r})", defect)
            if povm.feedback and j >= n - 1:
                rest = "out of range" if j == n else "acts on an empty register set"
                rep.add(f"feedback round {j + 1}: {rest}", 0.0)
                continue
            for outcome, kraus in povm.feedback.items():
                where = f"feedback round {j + 1} outcome {outcome!r}"
                if outcome not in povm.labels:
                    rep.add(f"{where}: not an outcome of M_{j}", 0.0)
                elif any(k.shape != (d ** (n - j - 1),) * 2 for k in kraus):
                    rep.add(f"{where}: wrong shape", 0.0)
                elif not (defect := completeness_defect(kraus)) <= COMPLETENESS_TOL:
                    rep.add(f"{where}: completeness", defect)
    allowed = set(book.words) | {ER}
    if not final_labels <= allowed:
        rep.add("M_n: outcomes are not codewords plus 'er'", float(len(final_labels - allowed)))
    return rep


def _padded_povm(povm: Povm, dims, j: int) -> Povm:
    """Pad a measurement on at most the first j registers with identity on the rest; its feedback is kept."""
    pad = identity(leading_block_rest(povm.dim, dims, j))
    if len(pad) == 1:
        return povm
    return Povm(tuple((lab, kron(f, pad)) for lab, f in povm.elements), povm.feedback)


@dataclass(frozen=True)
class Frontier:
    """Consecutive branches of a walk after t measured rounds, as arrays.

    Branch b is codeword ``code.codebook.words[word[b]]`` with outcomes
    ``history[b]`` of M_1..M_t, probability ``prob[b]`` given the word and
    omega^t in ``states[b]``.
    """

    word: np.ndarray
    history: tuple
    prob: np.ndarray
    states: np.ndarray


def _start(code: FeedbackCode, words) -> Frontier:
    """Piece 0 of ``words``: each codeword state with the channel on register 0, checked."""
    word = np.array([code.word_index(w) for w in words], dtype=int)
    stack = channel_at(code.channel, np.array([code.states[i].mat for i in word]), code.dims, 0)
    check_states(stack)
    return Frontier(word, ((),) * len(word), np.ones(len(word)), stack)


def round_zero(code: FeedbackCode, word) -> DensityMatrix:
    """omega^0: the codeword state with the channel applied on register 0."""
    return DensityMatrix(_start(code, [word]).states[0], code.dims)


def _branch(front: Frontier, b: int) -> Frontier:
    """Branch b of ``front`` alone with probability 1, so an update floors only its own outcomes."""
    return Frontier(front.word[b : b + 1], front.history[b : b + 1], np.ones(1), front.states[b : b + 1])


def _runs(code: FeedbackCode, j: int, front: Frontier) -> list:
    """(M_j, slice) per run of consecutive branches that share M_j, each of at most STACK_BYTES of states."""
    if not len(front.word):
        return []  # every child of the run that made this piece fell below PROB_FLOOR
    step = max(1, STACK_BYTES // front.states[0].nbytes)
    if isinstance(code.measurements[j - 1], dict):
        povms = [code.measurement(j, h) for h in front.history]
    else:
        povms = [code.measurement(j)] * len(front.word)
    runs, start = [], 0
    for b in range(1, len(povms) + 1):
        if b == len(povms) or povms[b] is not povms[start] or b - start == step:
            runs.append((povms[start], slice(start, b)))
            start = b
    return runs


def _updated(code: FeedbackCode, m: int, povm: Povm, front: Frontier) -> Frontier:
    """Update m on branches whose M_{m-1} is ``povm``: their kept children, by branch, then element.

    The channel on register m-1 (update n+1 is M_n alone), the measurement
    batched over its elements, then each outcome's feedback family on its
    branches; the children's states get one ``check_states``.
    """
    states = channel_at(code.channel, front.states, code.dims, m - 1) if m <= code.n else front.states
    posts = sandwich([f for _, f in povm.elements], states, 1)
    p = np.trace(posts, axis1=2, axis2=3).real.T
    prob = front.prob[:, None] * p
    r, e, labels = _kept(p, prob, povm.labels)
    with np.errstate(invalid="ignore"):  # dividing by a NaN p: check_states below rejects its state
        states = posts[e, r] / p[r, e, None, None]
    for lab in dict.fromkeys(labels) if m < code.n else ():
        kraus = povm.feedback.get(lab)
        if kraus is not None:
            rows = [i for i, x in enumerate(labels) if x == lab]
            states[rows] = kraus_at(kraus, states[rows], code.dims, range(m, code.n))
    check_states(states)
    history = tuple(front.history[b] + (lab,) for b, lab in zip(r, labels))
    return Frontier(front.word[r], history, prob[r, e], states)


def _walk(code: FeedbackCode, words):
    """Yield (t, piece) for the branches of ``words`` after t = 0..n-1 measured rounds.

    Words are walked in batches whose codeword states fit STACK_BYTES
    together, each from its piece 0 (``_start``).  Each run of a piece
    (``_runs``) makes one piece at t + 1, which is walked to the end before
    the next run, so the pieces of each t come in branch order and a walk
    holds one piece per round.  Branches whose path probability falls below
    PROB_FLOOR are dropped and a codeword with more than ENUM_CAP branches
    after t rounds raises.
    """
    return _decoding_walk(code, words, {})


def _decoding_walk(code: FeedbackCode, words, reach: dict):
    """``_walk`` dropping each child whose codeword is not in ``reach[history]``; a history not in ``reach`` is kept."""
    size = max(1, STACK_BYTES // code.states[0].mat.nbytes)
    for i in range(0, len(words), size):
        counts = np.zeros((code.n, code.codebook.size), dtype=int)
        yield from _expanded(code, 0, _start(code, words[i : i + size]), counts, reach)


def _expanded(code: FeedbackCode, t: int, front: Frontier, counts: np.ndarray, reach: dict):
    """Yield a piece after t rounds, then each piece its runs make less the children ``reach`` drops, depth first."""
    yield t, front
    for povm, part in _runs(code, t + 1, front) if t + 1 < code.n else ():
        run = Frontier(front.word[part], front.history[part], front.prob[part], front.states[part])
        piece = _updated(code, t + 2, povm, run)
        if reach:
            live = [b for b, h in enumerate(piece.history) if h not in reach or code.codebook.words[piece.word[b]] in reach[h]]
            piece = Frontier(piece.word[live], tuple(piece.history[b] for b in live), piece.prob[live], piece.states[live])
        counts[t + 1] += np.bincount(piece.word, minlength=counts.shape[1])
        _capped(counts[t + 1].max())
        yield from _expanded(code, t + 1, piece, counts, reach)


def _capped(count: int) -> None:
    if count > ENUM_CAP:
        raise CapExceededError(f"transcript enumeration exceeded {ENUM_CAP} branches")


def _transcripts(code: FeedbackCode, pieces) -> dict:
    """Each walked codeword's transcripts as (outcomes, probability) pairs, from the final measurement.

    Outcome probabilities come from ``outcome_probabilities``, batched over
    elements and the branches of each run; transcripts below PROB_FLOOR are
    dropped, in branch, then element order.
    """
    out: dict = {}
    for last in (piece for t, piece in pieces if t == code.n - 1):
        for w in last.word:
            out.setdefault(code.codebook.words[w], [])
        for povm, part in _runs(code, code.n, last):
            p = outcome_probabilities(povm, last.states[part], code.dims)
            prob = last.prob[part, None] * p
            r, e, labels = _kept(p, prob, povm.labels)
            for b, k_n, p_tr in zip(r + part.start, labels, prob[r, e].tolist()):
                trs = out[code.codebook.words[last.word[b]]]
                trs.append((last.history[b] + (k_n,), p_tr))
                _capped(len(trs))
    return out


def enumerate_transcripts(code: FeedbackCode, word) -> list[ProtocolTranscript]:
    """Exact expansion of the round recursion over all outcome sequences."""
    word = tuple(int(x) for x in word)
    pieces = list(_walk(code, [word]))
    states = {h: DensityMatrix(s, code.dims) for _, f in pieces for h, s in zip(f.history, f.states)}
    return [
        ProtocolTranscript(word, outcomes, prob, tuple(states[outcomes[:t]] for t in range(code.n)))
        for outcomes, prob in _transcripts(code, pieces)[word]
    ]


def _law(weights: np.ndarray) -> list:
    """The cumulative law ``Generator.choice(len(w), p=w / w.sum())`` forms, which ``_draw`` bisects at its uniform."""
    cdf = np.cumsum(weights / weights.sum())
    return (cdf / cdf[-1]).tolist()


def _draw(cdf: list, rng) -> int:
    return bisect.bisect_right(cdf, rng.random())


def _node(code: FeedbackCode, front: Frontier) -> tuple:
    """(omega^t, draw weights, their ``_law``, labels, children) of the one-branch piece ``front``; raises as walks do.

    The children are ``_updated``'s piece; at t = n-1 they are None and the weights M_n's kept outcome probabilities."""
    front.states.setflags(write=False)
    state, t = DensityMatrix(front.states[0], code.dims), len(front.history[0])
    povm = code.measurement(t + 1, front.history[0])
    if t + 1 < code.n:
        kids = _updated(code, t + 2, povm, front)
        kids.states.setflags(write=False)
        weights, labels = kids.prob, [h[-1] for h in kids.history]
    else:
        kids, p = None, outcome_probabilities(povm, front.states, code.dims)
        _, e, labels = _kept(p, p, povm.labels)
        weights = p[0, e]
    weights.setflags(write=False)
    return state, weights, _law(weights), labels, kids


def sample_transcript(code: FeedbackCode, word, rng) -> ProtocolTranscript:
    """Draw one transcript through the code's node table; reproducible for a seeded generator.

    The first draw to reach a (word index, history) node expands it (``_node``) and stores it once its checks
    pass.  Each round draws among its outcomes above PROB_FLOOR, weighted by their probabilities given the
    branch; M_n draws from ``outcome_probabilities`` as ``_transcripts`` reads them.  A node stores its draw law
    (``_law``), so a draw is one ``rng.random()`` and one bisect, bit-identical to ``Generator.choice``.
    """
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    word = tuple(int(x) for x in word)
    key, prob, states, kids, b = (code.word_index(word), ()), 1.0, (), None, 0
    while True:
        node = code._nodes.get(key)
        if node is None:
            node = code._nodes[key] = _node(code, _branch(kids, b) if key[1] else _start(code, [word]))
        state, weights, cdf, labels, kids = node
        states += (state,)
        b = _draw(cdf, rng)
        prob *= float(weights[b])
        key = (key[0], key[1] + (labels[b],))
        if kids is None:
            return ProtocolTranscript(word, key[1], prob, states)


def _average_states(code: FeedbackCode, pieces) -> dict:
    """Each walked codeword's final state, averaged over its branches in branch order."""
    acc: dict = {}
    for t, last in pieces:
        for w, p, state in zip(last.word, last.prob, last.states) if t == code.n - 1 else ():
            acc[w] = acc.get(w, 0) + p * state
    stack = np.array(list(acc.values()))
    stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
    check_states(stack)
    return {code.codebook.words[w]: a for w, a in zip(acc, stack)}


def _ehs_by_law(code: FeedbackCode, pieces):
    """EHS states for t = 0..n-1 on every branch of ``_walk``'s pieces, weighed by ``law(code.probs)``, and ``law``,
    the one place a codeword law meets a walk: ``law(probs)`` is each t's branch weights, ``_pruned``, so every branch
    of a word below PROB_FLOOR weighs 0.  Raises unless ``code.probs`` is a law (``check_law``)."""
    check_law(code.probs, "codeword ")
    n = code.n
    marks = [{lab: i + 1 for i, lab in enumerate(code.outcome_labels(j))} for j in range(1, n)]
    regs = tuple((f"A{i + 1}", code.codebook.alphabet) for i in range(n)) + tuple(
        (f"X{j + 1}", len(marks[j]) + 1) for j in range(n - 1)
    )
    letters = np.array(code.codebook.words, dtype=int).reshape(code.codebook.size, n)
    steps = []
    for t in range(n):
        fronts = [f for t_f, f in pieces if t_f == t]
        word = np.concatenate([f.word for f in fronts])
        xs = [[marks[j][k] for j, k in enumerate(h)] + [0] * (n - 1 - t) for f in fronts for h in f.history]
        labels = np.concatenate([letters[word], np.array(xs, dtype=int).reshape(len(word), n - 1)], axis=1)
        prob, states = np.concatenate([f.prob for f in fronts]), np.concatenate([f.states for f in fronts])
        steps.append((labels, word, prob, states))

    def law(probs) -> list[np.ndarray]:
        p_word = np.array(probs)
        return [_pruned(p_word[word] * prob) for _, word, prob, _ in steps]

    return [CqState(regs, code.dims, lab, w, st) for (lab, _, _, st), w in zip(steps, law(code.probs))], law


def ehs_states(code: FeedbackCode) -> list[CqState]:
    """EHS states for t = 0..n-1 from one walk of the codewords, their branches of weight 0 dropped.

    Classical registers: A_1..A_n holding the codeword letters and
    X_1..X_{n-1} holding recorded outcomes (0 = not yet recorded, outcome k
    of M_j stored as its index + 1).  The quantum part of state t is
    omega^t, in which registers 0..t have passed through the channel.
    """
    out = []
    for s in _ehs_by_law(code, list(_walk(code, code.codebook.words)))[0]:
        k = s.weights > 0  # the branches the law keeps
        out.append(CqState(s.classical_registers, s.quantum_dims, s.labels[k], s.weights[k], s.states[k]))
    return out


def ehs_state(code: FeedbackCode, t: int) -> CqState:
    """Joint classical-quantum state after t measured rounds (see ehs_states)."""
    if not 0 <= t <= code.n - 1:
        raise ValidationError(f"EHS time {t} out of range 0..{code.n - 1}")
    return ehs_states(code)[t]


def _p_correct(transcripts, word) -> float:
    """Probability that ``word`` decodes to itself, from its (outcomes, probability) pairs."""
    return sum((prob for outcomes, prob in transcripts if outcomes[-1] == word), 0.0)


def _error_figures(code: FeedbackCode, laws) -> tuple[float, float]:
    """(average, maximal) error from each codeword's transcript law; a word with no transcript never decodes.

    Raises unless ``code.probs`` is a law (``check_law``)."""
    check_law(code.probs, "codeword ")
    errors = [1.0 - _p_correct(laws.get(w, ()), w) for w in code.codebook.words]
    return sum((prob * err for prob, err in zip(code.probs, errors)), 0.0), max([0.0, *errors])


def _decodable(code: FeedbackCode) -> dict:
    """Each prefix of an M_n table's histories, mapped to the labels of every M_n keyed by its extensions; empty for a fixed M_n."""
    final, reach = code.measurements[-1], {}
    for (history, povm), t in itertools.product(final.items() if isinstance(final, dict) else (), range(1, code.n)):
        reach.setdefault(history[:t], set()).update(povm.labels)
    return reach


def error_probability(code: FeedbackCode) -> tuple[float, float]:
    """(average error, maximal error) over codewords, decoding by the final outcome.

    Walks only the branches that can still decode to their word (``_decodable``), and ENUM_CAP counts only those;
    a dropped branch is an error, not pruned mass, so on every code ``validate_code`` accepts both figures equal
    the full walk's bit for bit."""
    return _error_figures(code, _transcripts(code, _decoding_walk(code, code.codebook.words, _decodable(code))))


# ----------------------------------------------------------------------------
# Code assembly: how codeword states, measurements and decoders are put together.


def product_states(letters, words) -> tuple[DensityMatrix, ...]:
    """Codeword states: the tensor product of ``letters[a]`` along each word."""
    return tuple(
        DensityMatrix(kron_all(letters[a].mat for a in w), sum((letters[a].dims for a in w), ()))
        for w in words
    )


def on_freshest(single: Povm, j: int, feedback: dict) -> Povm:
    """M_j measuring ``single`` on register j-1, identity on the j-1 registers before it, with ``feedback``."""
    pad = identity(single.dim ** (j - 1))
    return Povm(tuple((lab, kron(pad, f)) for lab, f in single.elements), feedback)


def pgm_decoder(states, weights, labels) -> Povm:
    """Pretty-good-measurement decoder as a complete Povm.

    The square-root measurement of the weighted state matrices p_w rho_w, in
    label order, with the defect from completeness routed to the 'er' outcome.
    """
    return square_root_measurement({lab: p * rho for lab, p, rho in zip(labels, weights, states)})


def with_pgm_decoder(code: FeedbackCode, weights) -> FeedbackCode:
    """``code`` with M_n replaced by the PGM over its averaged final states.

    ``code``'s own M_n is never read (callers leave it None); ``weights``
    weigh the codewords as in ``pgm_decoder``.
    """
    words = code.codebook.words
    finals = _average_states(code, _walk(code, words))
    decoder = pgm_decoder([finals[w] for w in words], weights, list(words))
    return replace(code, measurements=code.measurements[:-1] + (decoder,))


def random_feedback_code(rng: np.random.Generator, channel: QuantumChannel, n: int, num_words: int = 2) -> FeedbackCode:
    """Random n-block feedback code over a binary alphabet of mixed letter states.

    Codeword states are letter products.  Intermediate measurements are
    rank-1 rotated basis projectors on the freshest channel output, and
    post-processing maps are products of unitaries drawn for every outcome
    of the preceding measurement, so the directed data-processing inequality
    holds for every draw.  A projector's outcome stays recoverable from the
    post-measurement state, which additionally makes I(M:K_1^n) <= I(M:Z_1^n)
    hold on every draw.  Raises unless ``n`` is an int >= 1 and ``num_words`` an int in 1..2^n.
    """
    check_count(n, "block length n", 1)
    d = channel.in_dim
    all_words = list(itertools.product(range(2), repeat=n))
    check_count(num_words, "num_words", 1)
    if num_words > len(all_words):
        raise ValidationError("more codewords than strings")
    order = rng.permutation(len(all_words))
    words = tuple(all_words[i] for i in order[:num_words])
    book = Codebook(2, n, words)

    probs = rng.dirichlet(np.ones(num_words)) * 0.8 + 0.2 / num_words
    probs = tuple(float(p) for p in probs / probs.sum())

    states = product_states([random_density_matrix(rng, d) for _ in range(2)], words)

    singles = []
    for _ in range(1, n):
        u = random_unitary(rng, d)
        singles.append(Povm(tuple((k, np.outer(u[:, k], u[:, k].conj())) for k in range(d))))
    # Feedback after M_j on registers j+1..n-1, drawn once every measurement is.
    fb = {
        j: {k: (kron_all(random_unitary(rng, d) for _ in range(j + 1, n)),) for k in range(d)} for j in range(1, n - 1)
    }
    measurements = tuple(on_freshest(single, j, fb.get(j, {})) for j, single in enumerate(singles, start=1))

    # Final decoder: PGM over the average pre-decode outputs per word.
    partial = FeedbackCode(book, channel, probs, states, measurements + (None,))
    return with_pgm_decoder(partial, probs)
