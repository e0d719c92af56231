"""Quantum directed information and the converse-bound chain.

The t-th term I_t(A_1^t : Z_t | Z_1^{t-1}) is evaluated on the joint state in
which the t-th channel output is fresh: t registers have passed through the
channel and the first t-1 intermediate measurements have been recorded
(``ehs_state(code, t-1)``).  The related single-state variant evaluates every
term on the final pre-decoding state instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cqstate import conditional_mutual_informations
from .protocol import (
    FeedbackCode,
    _average_states,
    _ehs_states,
    _error_figures,
    _p_correct,
    _transcripts,
    _walk,
    ehs_state,
    ehs_states,
)
from .quantum import TRACE_TOL, ValidationError, holevo_chis, shannon


@dataclass(frozen=True)
class RateReport:
    """Converse-chain numbers for one feedback code."""

    n: int
    num_messages: int
    per_round: tuple[float, ...]
    directed_total: float
    directed_final: float
    i_message_quantum: float  # I(M : Z_1^n)
    i_message_classical: float  # I(M : K_1^n)
    rate: float  # log2(N) / n
    avg_error: float
    max_error: float
    epsilon_n: float  # (1 + P_e n R) / n
    fano_bound: float  # epsilon_n + I(M:K_1^n)/n
    h_message_rate: float  # H(M) / n

    def check(self) -> None:
        if any(x < -1e-9 for x in self.per_round):
            raise ValidationError("negative per-round information term")
        if abs(self.directed_total - sum(self.per_round)) > 1e-12:
            raise ValidationError("directed total does not match its terms")


def _directed_parts(t: int):
    part_a = tuple(f"A{i}" for i in range(1, t + 1))
    part_b = (t - 1,)
    part_c = tuple(range(t - 1))
    return part_a, part_b, part_c


def _terms(runs) -> list[list[float]]:
    """Per run of states, term t on its t-th state; the terms of every run come from one entropy pass."""
    requests = [(state, *_directed_parts(t)) for run in runs for t, state in enumerate(run, start=1)]
    values = iter(conditional_mutual_informations(requests))
    return [[next(values) for _ in run] for run in runs]


def directed_terms(code: FeedbackCode) -> list[float]:
    """Per-round terms, each on its own protocol-time state (the EHS state at time t-1)."""
    return _terms([ehs_states(code)])[0]


def directed_information_total(code: FeedbackCode) -> float:
    return float(sum(directed_terms(code)))


def directed_information_final(code: FeedbackCode) -> float:
    """All terms evaluated on the final pre-decoding state."""
    return float(sum(_terms([[ehs_state(code, code.n - 1)] * code.n])[0]))


def _message_table(code: FeedbackCode, message_map, message_probs):
    if message_map is None:
        message_map = {i: w for i, w in enumerate(code.codebook.words)}
    message_map = {m: tuple(int(x) for x in w) for m, w in message_map.items()}
    for w in message_map.values():
        code.word_index(w)
    msgs = sorted(message_map)
    if message_probs is None:
        probs = {m: code.probs[code.word_index(message_map[m])] for m in msgs}
        total = sum(probs.values())
        probs = {m: p / total for m, p in probs.items()}
    else:
        try:
            probs = {m: float(message_probs[m]) for m in msgs}
        except (KeyError, IndexError) as exc:
            raise ValidationError(f"no probability given for message {exc}") from None
        # "not <=" / "not >=" so that a NaN fails too; TRACE_TOL, as the average state gets the trace check.
        if not abs(sum(probs.values()) - 1.0) <= TRACE_TOL:
            raise ValidationError("message probabilities do not sum to 1")
        if not all(p >= 0.0 for p in probs.values()):
            raise ValidationError("message probabilities must be non-negative")
    return message_map, msgs, probs


def _walked(code: FeedbackCode, message_map, message_probs):
    """The message table, then the pieces of one walk of the codewords (``protocol._walk``)."""
    return _message_table(code, message_map, message_probs), list(_walk(code, code.codebook.words))


def _holevo_term(code: FeedbackCode, table, pieces) -> float:
    """I(M : Z_1^n): the Holevo quantity of the messages' averaged final states (``holevo_chis``)."""
    message_map, msgs, probs = table
    averages = _average_states(code, pieces)
    states = np.array([averages[message_map[m]] for m in msgs])
    weights = np.array([[probs[m] for m in msgs]])
    i_mz = float(holevo_chis(weights, np.arange(len(msgs))[None], states)[0])
    return max(i_mz, 0.0) if abs(i_mz) < 1e-14 else i_mz


def _classical_term(table, laws) -> float:
    """I(M : K_1^n): Shannon mutual information of the message-outcome joint law."""
    message_map, msgs, probs = table
    cond = {}
    for w, pairs in laws.items():
        law: dict = {}
        for outcomes, prob in pairs:
            law[outcomes] = law.get(outcomes, 0.0) + prob
        cond[w] = law
    h_k_given_m = sum(probs[m] * shannon(cond[message_map[m]].values()) for m in msgs)
    marginal: dict = {}
    for m in msgs:
        for k, p in cond[message_map[m]].items():
            marginal[k] = marginal.get(k, 0.0) + probs[m] * p
    return float(shannon(marginal.values()) - h_k_given_m)


def message_information(
    code: FeedbackCode,
    message_map: dict | None = None,
    message_probs=None,
) -> tuple[float, float]:
    """(I(M : Z_1^n), I(M : K_1^n)) for a message-to-codeword assignment.

    The quantum term is the Holevo information of the ensemble of averaged
    final states; the classical term is Shannon mutual information of the
    message-outcome joint law.
    """
    table, pieces = _walked(code, message_map, message_probs)
    return _holevo_term(code, table, pieces), _classical_term(table, _transcripts(code, pieces))


def verify_ddpi(code: FeedbackCode, message_map: dict | None = None, message_probs=None):
    """Directed data-processing inequality: I(M:Z_1^n) <= I(A_1^n -> Z_1^n).

    Returns (lhs, rhs, slack); the inequality holds when slack >= 0 up to
    numerical tolerance.  Defaults to one message per codeword, weighted by
    the input ensemble so both sides describe the same joint state.  Both
    sides come from ``_converse``'s one walk: the right-hand side is the rate
    report's ``directed_total``.
    """
    report, lhs = _converse(code, message_map, message_probs, True)
    return lhs, report.directed_total, report.directed_total - lhs


def fano_bound(code: FeedbackCode, message_map: dict | None = None, message_probs=None) -> float:
    """epsilon_n + I(M:K_1^n)/n in bits, the converse's outer bound.

    epsilon_n = (1 + P_e n R)/n with R = log2(#messages)/n, as in ``rate_report``.
    """
    table, pieces = _walked(code, message_map, message_probs)
    laws = _transcripts(code, pieces)
    return float(_fano(code.n, table, laws, _classical_term(table, laws))[2])


def _fano(n: int, table, laws, i_mk: float) -> tuple[float, float, float]:
    """(R, epsilon_n, Fano bound) of a message table, for ``fano_bound`` and ``rate_report``."""
    message_map, msgs, probs = table
    rate = float(np.log2(len(msgs)) / n) if len(msgs) > 1 else 0.0
    p_err = sum(probs[m] * (1.0 - _p_correct(laws[w], w)) for m, w in message_map.items())
    eps = (1.0 + p_err * n * rate) / n
    return rate, eps, eps + i_mk / n


def rate_report(code: FeedbackCode, uniform_messages: bool = True) -> RateReport:
    """Full converse-chain report for one code, from one walk of the codewords.

    Messages default to one per codeword with a uniform law (the source model
    used for the error exponent); set ``uniform_messages=False`` to weight
    messages by the input ensemble instead.
    """
    return _converse(code, None, None, uniform_messages)[0]


def _converse(code: FeedbackCode, message_map, message_probs, uniform_messages: bool):
    """``rate_report``'s report and ``verify_ddpi``'s I(M:Z_1^n) under its message law, from one walk.

    One entropy pass gives the directed terms on the protocol-time and the final states.
    """
    n = code.n
    words = code.codebook.words
    num = len(words)
    ddpi_table = _message_table(code, message_map, message_probs)
    table, pieces = _walked(code, None, {i: 1.0 / num for i in range(num)} if uniform_messages else None)
    laws = _transcripts(code, pieces)
    states = _ehs_states(code, pieces)
    terms, final_terms = _terms([states, [states[-1]] * n])
    i_mz, lhs = _holevo_term(code, table, pieces), _holevo_term(code, ddpi_table, pieces)
    i_mk = _classical_term(table, laws)
    avg_err, max_err = _error_figures(code, (_p_correct(laws[w], w) for w in words))
    rate, eps, fano = _fano(n, table, laws, i_mk)
    report = RateReport(
        n=n,
        num_messages=num,
        per_round=tuple(float(x) for x in terms),
        directed_total=float(sum(terms)),
        directed_final=float(sum(final_terms)),
        i_message_quantum=float(i_mz),
        i_message_classical=float(i_mk),
        rate=rate,
        avg_error=float(avg_err),
        max_error=float(max_err),
        epsilon_n=float(eps),
        fano_bound=float(fano),
        h_message_rate=float(shannon(table[2].values()) / n),
    )
    report.check()
    return report, lhs
