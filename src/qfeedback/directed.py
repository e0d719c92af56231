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

from .cqstate import _cmi_plan, conditional_mutual_informations
from .protocol import (
    FeedbackCode,
    _average_states,
    _ehs_by_law,
    _error_figures,
    _p_correct,
    _transcripts,
    _walk,
)
from .quantum import ValidationError, holevo_chis, shannon


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


def _term_requests(run) -> list:
    """Term t's ``conditional_mutual_informations`` request on the t-th state of ``run``."""
    return [(state, *_directed_parts(t)) for t, state in enumerate(run, start=1)]


def _terms_by_law(code: FeedbackCode):
    """``terms(probs)``, the per-round terms of ``code`` under the codeword law ``probs``: one walk and one plan on
    ``_ehs_by_law``'s states, which cover every walked branch (a branch below PROB_FLOOR weighs 0), serve every law."""
    states, law = _ehs_by_law(code, list(_walk(code, code.codebook.words)))
    plan = _cmi_plan(_term_requests(states))
    return lambda probs: plan(dict(zip(states, law(probs))))


def directed_terms(code: FeedbackCode) -> list[float]:
    """Per-round terms, each on its own protocol-time state (the EHS state at time t-1)."""
    return _terms_by_law(code)(code.probs)


def directed_information_total(code: FeedbackCode) -> float:
    return float(sum(directed_terms(code)))


def directed_information_final(code: FeedbackCode) -> float:
    """All terms evaluated on the final pre-decoding state."""
    return _converse(code)[0].directed_final


def _holevo_terms(code: FeedbackCode, message_laws, pieces) -> list[float]:
    """I(M : Z_1^n) under each message law: one ``holevo_chis`` call on the messages' averaged final states."""
    averages = _average_states(code, pieces)
    states = np.array([averages[w] for w in code.codebook.words])
    index = np.tile(np.arange(len(states)), (len(message_laws), 1))
    chis = [float(x) for x in holevo_chis(np.array(message_laws), index, states)]
    return [max(x, 0.0) if abs(x) < 1e-14 else x for x in chis]


def _classical_term(code: FeedbackCode, law, laws) -> float:
    """I(M : K_1^n): Shannon mutual information of the message-outcome joint law; a word's transcripts have
    distinct outcomes, so its pairs are its conditional law."""
    sent = [(p_m, dict(laws[w])) for p_m, w in zip(law, code.codebook.words)]
    h_k_given_m = sum(p_m * shannon(cond.values()) for p_m, cond in sent)
    marginal: dict = {}
    for p_m, cond in sent:
        for k, p in cond.items():
            marginal[k] = marginal.get(k, 0.0) + p_m * p
    return float(shannon(marginal.values()) - h_k_given_m)


def message_information(code: FeedbackCode) -> tuple[float, float]:
    """(I(M : Z_1^n), I(M : K_1^n)) with message i sent as codeword i, under the ensemble law.

    The quantum term is the Holevo information of the ensemble of averaged
    final states; the classical term is Shannon mutual information of the
    message-outcome joint law.
    """
    return _converse(code)[1][:2]


def verify_ddpi(code: FeedbackCode):
    """Directed data-processing inequality: I(M:Z_1^n) <= I(A_1^n -> Z_1^n).

    Returns (lhs, rhs, slack); the inequality holds when slack >= 0 up to
    numerical tolerance.  One message per codeword, weighted by the input
    ensemble so both sides describe the same joint state; the right-hand
    side is the rate report's ``directed_total``.
    """
    report, (lhs, _, _) = _converse(code)
    return lhs, report.directed_total, report.directed_total - lhs


def fano_bound(code: FeedbackCode) -> float:
    """epsilon_n + I(M:K_1^n)/n in bits under the ensemble law, the converse's outer bound.

    epsilon_n = (1 + P_e n R)/n with R = log2(#messages)/n, as in ``rate_report``.
    """
    return _converse(code)[1][2]


def _fano(code: FeedbackCode, law, laws, i_mk: float) -> tuple[float, float, float]:
    """(R, epsilon_n, Fano bound) under a message law."""
    n, words = code.n, code.codebook.words
    rate = float(np.log2(len(words)) / n) if len(words) > 1 else 0.0
    p_err = sum(p_m * (1.0 - _p_correct(laws[w], w)) for p_m, w in zip(law, words))
    eps = (1.0 + p_err * n * rate) / n
    return rate, eps, eps + i_mk / n


def rate_report(code: FeedbackCode) -> RateReport:
    """Full converse-chain report for one code, from one walk of the codewords.

    Messages are one per codeword with a uniform law, the source model of
    the rate and the error exponent.
    """
    return _converse(code)[0]


def _converse(code: FeedbackCode) -> tuple[RateReport, tuple[float, float, float]]:
    """The converse chain from one walk, the one body of every converse number: ``rate_report``'s report (uniform
    message law) and (I(M:Z_1^n), I(M:K_1^n), Fano bound) under the ensemble law, message i sent as codeword i.

    ``_ehs_by_law`` checks the codeword law before any message law is formed; one entropy pass gives the directed
    terms on the protocol-time and the final states.
    """
    n, words = code.n, code.codebook.words
    pieces = list(_walk(code, words))
    states, _ = _ehs_by_law(code, pieces)
    num, total = len(words), sum(code.probs)
    uniform, ensemble = [1.0 / num] * num, [p / total for p in code.probs]
    laws = _transcripts(code, pieces)
    values = conditional_mutual_informations(_term_requests(states) + _term_requests([states[-1]] * n))
    terms, final_terms = values[:n], values[n:]
    i_mz, lhs = _holevo_terms(code, [uniform, ensemble], pieces)
    i_mk, ens_mk = _classical_term(code, uniform, laws), _classical_term(code, ensemble, laws)
    avg_err, max_err = _error_figures(code, laws)
    rate, eps, fano = _fano(code, uniform, laws, i_mk)
    report = RateReport(
        n=n,
        num_messages=len(words),
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
        h_message_rate=float(shannon(uniform) / n),
    )
    report.check()
    return report, (lhs, ens_mk, float(_fano(code, ensemble, laws, ens_mk)[2]))
