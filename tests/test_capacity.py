import numpy as np
import pytest

from oracles import classical_channels
from qfeedback import capacity
from qfeedback.capacity import (
    FeedbackCodeFamily,
    OptimizerConfig,
    coordinate_ascent,
    default_words,
    estimate_feedback_capacity,
    grid_search_chi,
    holevo_capacity,
    simplex_projection,
)
from qfeedback.config import code_from_spec
from qfeedback.directed import directed_information_total
from qfeedback.protocol import random_feedback_code, validate_code, with_pgm_decoder
from qfeedback.quantum import (
    Povm,
    ValidationError,
    amplitude_damping_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    holevo_chi,
    identity_channel,
)


def small_cfg(**kw):
    base = dict(starts=4, seed=0, max_sweeps=40)
    base.update(kw)
    return OptimizerConfig(**base)


def test_simplex_projection_basic():
    p = simplex_projection(np.array([0.2, 0.5, 0.3]))
    assert np.allclose(p, [0.2, 0.5, 0.3])
    p = simplex_projection(np.array([1.4, -0.2, 0.1]))
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()
    p = simplex_projection(np.array([5.0, 0.0]))
    assert np.allclose(p, [1.0, 0.0])


def test_coordinate_ascent_quadratic():
    # max of -(x-1)^2 - (y+2)^2
    f = lambda v: -((v[0] - 1.0) ** 2) - (v[1] + 2.0) ** 2
    res = coordinate_ascent(f, np.zeros(2), None, small_cfg(max_sweeps=100))
    assert res.converged
    assert abs(res.x[0] - 1.0) < 1e-3 and abs(res.x[1] + 2.0) < 1e-3


def test_coordinate_ascent_follows_tiny_slope_and_skips_exact_tie():
    # Slope 5e-13 along x at the start: below any |g| cutoff near 1e-12, but
    # the probes differ, so the coordinate must move.  Along y the probes are
    # mirror images and tie exactly, so y is skipped.
    f = lambda v: -2.5e-13 * (v[0] - 1.0) ** 2 - v[1] ** 2
    res = coordinate_ascent(f, np.zeros(2), None, small_cfg(max_sweeps=1))
    assert res.x[0] > 0.5
    assert res.x[1] == 0.0
    assert res.value > f(np.zeros(2))


def test_coordinate_ascent_stops_halving_at_the_probe_width():
    # The probes at 0 +- FD_STEP differ, so the ladder runs, but no move
    # pays: the start sits 1e-12 from the peak.  It tries STEP0 / 2^k for
    # k = 0..11, down to 1.46e-4, the last rung not shorter than FD_STEP.
    f = lambda v: -1e6 * (v[0] - 1e-12) ** 2
    points = []

    def recorded(v):
        points.append(v[0])
        return f(v)

    res = coordinate_ascent(recorded, np.zeros(1), None, small_cfg(max_sweeps=1))
    assert len(points) == 1 + 2 + 12
    assert res.x[0] == 0.0
    assert min(abs(x) for x in points[1:]) == capacity.FD_STEP
    assert points[3:] == [capacity.STEP0 * 0.5**k for k in range(12)]


@pytest.mark.parametrize(
    "sweeps, evals, rate",
    [(1, 184, 0.7135464340741215), (3, 634, 0.7136030428406647)],
)
def test_n3_objective_evaluation_budget(monkeypatch, sweeps, evals, rate):
    # The objective is a closure of estimate_feedback_capacity, so it is
    # counted where it enters coordinate_ascent.  Rungs shorter than the
    # FD_STEP probe would add evaluations that gain at rounding level only.
    count = [0]
    original = capacity.coordinate_ascent

    def counted_ascent(objective, *args, **kwargs):
        def counted(x):
            count[0] += 1
            return objective(x)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(capacity, "coordinate_ascent", counted_ascent)
    res = estimate_feedback_capacity(depolarizing_channel(0.1), 3, OptimizerConfig(starts=1, seed=0, max_sweeps=sweeps))
    assert count[0] == evals
    assert abs(res.rate - rate) <= 1e-12


def test_n3_one_sweep_rates_pinned():
    # The family's start is stationary; one sweep escapes it only if a
    # near-zero but nonzero probe difference is followed.
    cfg = OptimizerConfig(starts=1, seed=0, max_sweeps=1)
    res = estimate_feedback_capacity(depolarizing_channel(0.1), 3, cfg)
    assert abs(res.rate - 0.7135464) <= 1e-6
    assert abs(res.no_feedback_rate - 0.7005103) <= 1e-6


def test_feedback_rates_stay_below_the_shannon_capacity_of_classical_channels():
    # Shannon: feedback does not raise the capacity of a memoryless classical
    # channel, so no n-block directed-information rate may exceed C(W).
    cfg = OptimizerConfig(starts=1, seed=0, max_sweeps=1)
    for channel, _, c in classical_channels():
        for n in (1, 2, 3):
            rate = estimate_feedback_capacity(channel, n, cfg).rate
            assert rate <= c + 1e-9, (channel.label, n, rate, c)
            if channel.label == "bsc(0.1)" and n < 3:
                assert abs(rate - c) <= 1e-12, (n, rate, c)


def test_holevo_identity_qubit():
    res = holevo_capacity(identity_channel(2), small_cfg())
    assert res.value >= 1.0 - 1e-6
    assert res.value <= 1.0 + 1e-9


def test_holevo_fully_depolarizing():
    res = holevo_capacity(fully_depolarizing_channel(), small_cfg(starts=2, max_sweeps=8))
    assert abs(res.value) < 1e-9


def test_holevo_amplitude_damping_vs_grid(monkeypatch):
    res = holevo_capacity(amplitude_damping_channel(0.3), small_cfg(starts=6, max_sweeps=60))
    # A finer grid than the oracle's own: 13 polar angles and 11 weights.
    monkeypatch.setattr(capacity, "GRID_THETAS", 13)
    monkeypatch.setattr(capacity, "GRID_PROBS", 11)
    oracle = grid_search_chi(amplitude_damping_channel(0.3))
    assert res.value >= oracle - 1e-3


def test_holevo_deterministic_under_seed():
    a = holevo_capacity(depolarizing_channel(0.2), small_cfg(starts=2, max_sweeps=10))
    b = holevo_capacity(depolarizing_channel(0.2), small_cfg(starts=2, max_sweeps=10))
    assert a.value == b.value
    assert a.start_values == b.start_values


def test_holevo_ensemble_is_the_one_the_value_was_computed_on():
    res = holevo_capacity(amplitude_damping_channel(0.3), small_cfg(starts=2, max_sweeps=3))
    assert holevo_chi(res.ensemble) == res.value


def test_default_words():
    assert default_words(1) == ((0,), (1,))
    assert default_words(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert default_words(3) == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_family_build_valid_code():
    fam = FeedbackCodeFamily(depolarizing_channel(0.2), default_words(2))
    x = fam.initial()
    partial = fam.build(x)
    code = with_pgm_decoder(partial, partial.probs)
    rep = validate_code(code)
    assert rep.ok, rep.violations


def test_feedback_capacity_identity_qubit():
    res = estimate_feedback_capacity(identity_channel(2), 1, small_cfg())
    assert res.rate >= 0.99


def test_feedback_capacity_fully_depolarizing():
    res = estimate_feedback_capacity(fully_depolarizing_channel(), 1, small_cfg(starts=2, max_sweeps=5))
    assert res.rate <= 1e-6


def test_feedback_capacity_matches_grid_oracle_n1():
    for p in (0.1, 0.2):
        res = estimate_feedback_capacity(depolarizing_channel(p), 1, small_cfg(starts=4, max_sweeps=60))
        oracle = grid_search_chi(depolarizing_channel(p))
        assert abs(res.rate - oracle) <= 1e-3, (p, res.rate, oracle)


def test_feedback_on_off_identical_at_n1():
    on = estimate_feedback_capacity(depolarizing_channel(0.2), 1, small_cfg(starts=2, max_sweeps=20))
    off_cfg = small_cfg(starts=2, max_sweeps=20)
    off_cfg.feedback = False
    off = estimate_feedback_capacity(depolarizing_channel(0.2), 1, off_cfg)
    assert abs(on.rate - off.rate) <= 1e-6
    assert abs(on.rate - on.no_feedback_rate) <= 1e-12


def test_feedback_never_below_no_feedback():
    for n, sweeps in ((2, 4), (3, 2)):
        cfg = small_cfg(starts=2, max_sweeps=sweeps)
        res = estimate_feedback_capacity(depolarizing_channel(0.3), n, cfg)
        assert res.rate >= res.no_feedback_rate - 1e-12


def test_returned_code_reproduces_rate():
    res = estimate_feedback_capacity(depolarizing_channel(0.2), 1, small_cfg(starts=2, max_sweeps=30))
    assert abs(directed_information_total(res.code) / 1 - res.rate) < 1e-9


def test_dimension_budget_enforced():
    from qfeedback.quantum import ValidationError

    with pytest.raises(ValidationError):
        estimate_feedback_capacity(identity_channel(2), 4, small_cfg())


def test_feedback_capacity_n1_matches_holevo():
    # With one use and trivial feedback the directed objective is the Holevo
    # quantity, so the two optimizers must agree.
    cfg = small_cfg(starts=4, max_sweeps=60)
    chan = depolarizing_channel(0.2)
    fb = estimate_feedback_capacity(chan, 1, cfg)
    hol = holevo_capacity(chan, cfg)
    assert abs(fb.rate - hol.value) <= 1e-3


def test_holevo_amplitude_damping_two_sided_grid_agreement():
    # The channel is covariant under phase rotations, so a dense meridian
    # grid of two-state ensembles brackets the optimum tightly; optimizer
    # and oracle must agree to 1e-3 from both sides.
    from qfeedback.quantum import Ensemble, apply_channel, bloch_state, holevo_chi

    chan = amplitude_damping_channel(0.3)
    res = holevo_capacity(chan, small_cfg(starts=6, max_sweeps=80))
    thetas = np.linspace(0.0, np.pi, 41)
    outs = [apply_channel(chan, bloch_state(t, phi)) for t in thetas for phi in (0.0, np.pi)]
    best = 0.0
    probs = np.linspace(0.05, 0.95, 15)
    for i, r1 in enumerate(outs):
        for r2 in outs[i + 1 :]:
            for p in probs:
                chi = holevo_chi(Ensemble(((float(p), r1), (float(1.0 - p), r2))))
                if chi > best:
                    best = chi
    assert abs(res.value - best) <= 1e-3, (res.value, best)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_code_from_spec_matches_family_build(n):
    # The same angles through the config schema and through the optimizer's
    # parametrization assemble the same code.
    channel = depolarizing_channel(0.2)
    fam = FeedbackCodeFamily(channel, default_words(n))
    x = fam.initial(np.random.default_rng(n))
    built = fam.build(x)
    angles = [float(v) for v in x[len(fam.words) :]]
    fbase = fam.fb_start - len(fam.words)
    feedback: dict = {}
    for idx, (m, k, _r) in enumerate(fam.fb_slots):  # one register per (m, k) at n <= 3
        feedback.setdefault(str(m), {})[str(k)] = angles[fbase + 3 * idx : fbase + 3 * idx + 3]
    spec = {
        "n": n,
        "words": [list(w) for w in fam.words],
        "probs": list(built.probs),
        "letter_states": [angles[0:2], angles[2:4]],
        "measurements": [angles[4 + 2 * t : 6 + 2 * t] for t in range(n - 1)],
        "feedback": feedback,
    }
    parsed = code_from_spec(spec, channel)
    for a, b in zip(built.states, parsed.states, strict=True):
        assert a.dims == b.dims and np.array_equal(a.mat, b.mat)
    for j in range(1, n):
        got, want = parsed.measurement(j), built.measurement(j)
        assert got.labels == want.labels
        assert all(np.array_equal(f, g) for (_, f), (_, g) in zip(got.elements, want.elements))
        assert got.feedback.keys() == want.feedback.keys()
        for k, kraus in want.feedback.items():
            assert all(np.array_equal(u, v) for u, v in zip(kraus, got.feedback[k], strict=True))


def test_each_intermediate_measurement_is_made_once_with_its_feedback(monkeypatch):
    # The optimizer builds the family's code once per objective evaluation. At
    # n=3 that is two rotated qubit measurements and the two M_j made from
    # them, M_1 carrying its feedback; the random generator adds the decoder.
    made = []
    init = Povm.__post_init__
    monkeypatch.setattr(Povm, "__post_init__", lambda self: (made.append(self), init(self)))
    fam = FeedbackCodeFamily(depolarizing_channel(0.1), default_words(3))
    code = fam.build(fam.initial(np.random.default_rng(0)))
    assert len(made) == 4
    assert sorted(code.measurements[0].feedback) == [0, 1] and not code.measurements[1].feedback
    made.clear()
    random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=3)
    assert len(made) == 5


@pytest.mark.parametrize(
    "bad",
    [dict(starts=0), dict(starts=-2), dict(max_sweeps=-1), dict(starts=1.5), dict(seed=-1), dict(seed=1.5)],
)
def test_optimizer_config_rejects_bad_counts(bad):
    # Unchecked, starts=0 makes estimate_feedback_capacity raise TypeError
    # and holevo_capacity AttributeError, so the config refuses it; a bad
    # seed would fail later, inside SeedSequence.
    with pytest.raises(ValidationError):
        OptimizerConfig(**bad)
    assert OptimizerConfig(starts=1, max_sweeps=0).max_sweeps == 0


@pytest.mark.parametrize("n", [0, -1, 2.0])
def test_feedback_capacity_rejects_a_bad_block_length(n):
    # Unchecked, n=0 reported rate 0.0 and n=2.0 raised TypeError.
    with pytest.raises(ValidationError, match="block length n must be an int >= 1"):
        estimate_feedback_capacity(depolarizing_channel(0.1), n, small_cfg(starts=1, max_sweeps=0))
