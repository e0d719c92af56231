import numpy as np
import pytest

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
from qfeedback.protocol import validate_code
from qfeedback.quantum import (
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


def test_n3_one_sweep_rates_pinned():
    # The family's start is stationary; one sweep escapes it only if a
    # near-zero but nonzero probe difference is followed.
    cfg = OptimizerConfig(starts=1, seed=0, max_sweeps=1)
    res = estimate_feedback_capacity(depolarizing_channel(0.1), 3, cfg)
    assert abs(res.rate - 0.7135464) <= 1e-6
    assert abs(res.no_feedback_rate - 0.7005103) <= 1e-6


def test_holevo_identity_qubit():
    res = holevo_capacity(identity_channel(2), small_cfg())
    assert res.value >= 1.0 - 1e-6
    assert res.value <= 1.0 + 1e-9


def test_holevo_fully_depolarizing():
    res = holevo_capacity(fully_depolarizing_channel(), small_cfg(starts=2, max_sweeps=8))
    assert abs(res.value) < 1e-9


def test_holevo_amplitude_damping_vs_grid():
    res = holevo_capacity(amplitude_damping_channel(0.3), small_cfg(starts=6, max_sweeps=60))
    oracle = grid_search_chi(amplitude_damping_channel(0.3), n_theta=13, n_phi=5, n_prob=11)
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
    code = fam.build(x, with_decoder=True)
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
    angles = [float(v) for v in x[fam.num_words :]]
    fbase = 2 * fam.alphabet + 2 * fam.meas_rounds
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
        got, want = parsed.measurement(j).elements, built.measurement(j).elements
        assert [lab for lab, _ in got] == [lab for lab, _ in want]
        assert all(np.array_equal(f, g) for (_, f), (_, g) in zip(got, want))
    assert parsed.feedback.keys() == built.feedback.keys()
    for m, per in built.feedback.items():
        for k, kraus in per.items():
            assert all(np.array_equal(u, v) for u, v in zip(kraus, parsed.feedback[m][k], strict=True))
