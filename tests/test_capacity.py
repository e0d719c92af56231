import numpy as np
import pytest

from oracles import classical_channel, classical_channels, oracle_blahut_arimoto
from qfeedback import capacity, directed
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
from qfeedback.cqstate import CqState
from qfeedback.directed import directed_information_total
from qfeedback.protocol import random_feedback_code, validate_code, with_pgm_decoder
from qfeedback.quantum import (
    PROB_FLOOR,
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


def fresh_build(family, x):
    """``family.build(x)`` on a copy of the family with no parts to reuse."""
    return FeedbackCodeFamily(family.channel, family.words).build(x)


def test_simplex_projection_basic():
    p = simplex_projection(np.array([0.2, 0.5, 0.3]))
    assert np.allclose(p, [0.2, 0.5, 0.3])
    p = simplex_projection(np.array([1.4, -0.2, 0.1]))
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()
    p = simplex_projection(np.array([5.0, 0.0]))
    assert np.allclose(p, [1.0, 0.0])


@pytest.mark.parametrize(
    "c", [[np.inf, 0.0], [np.inf, np.inf, 1.0], [-np.inf, 0.3], [np.nan, 0.5], [0.2, np.nan, 0.8]], ids=str
)
def test_simplex_projection_rejects_non_finite_input(c):
    with pytest.raises(ValidationError, match="not finite"):
        simplex_projection(np.array(c))


@pytest.mark.parametrize("big", [1e16, 1e17, -1e16, 2.0**53])
def test_simplex_projection_rejects_magnitudes_from_2_to_the_53(big):
    # There c[0] - 1.0 rounds to c[0], so not even k = 0 qualifies: [1e16, 0] came back as [0, 0], not a law.
    with pytest.raises(ValidationError, match="reaches 2\\^53"):
        simplex_projection(np.array([big, 0.0]))
    below = np.nextafter(2.0**53, 0.0)
    assert simplex_projection(np.array([below, 0.0])).tolist() == [1.0, 0.0]


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
    # Only a call that moves a non-probability coordinate walks the code
    # (_terms_by_law); the others reuse the last walk.  Each walk builds its n
    # EHS states and compiles its directed-term plan once, never per call.
    count, walks, walked, compiled, built = [0], [0], [0], [0], [0]
    original, by_law = capacity.coordinate_ascent, capacity._terms_by_law
    walk, plan = directed._walk, directed._cmi_plan
    post_init = CqState.__post_init__

    def counted(counter, f):
        def call(*args):
            counter[0] += 1
            return f(*args)

        return call

    def counted_ascent(objective, *args, **kwargs):
        return original(counted(count, objective), *args, **kwargs)

    monkeypatch.setattr(capacity, "coordinate_ascent", counted_ascent)
    monkeypatch.setattr(capacity, "_terms_by_law", counted(walks, by_law))
    monkeypatch.setattr(directed, "_walk", counted(walked, walk))
    monkeypatch.setattr(directed, "_cmi_plan", counted(compiled, plan))
    monkeypatch.setattr(CqState, "__post_init__", counted(built, post_init))
    res = estimate_feedback_capacity(depolarizing_channel(0.1), 3, OptimizerConfig(starts=1, seed=0, max_sweeps=sweeps))
    assert count[0] == evals
    assert walks[0] == walked[0] == compiled[0] == {1: 72, 3: 314}[sweeps]
    assert built[0] == 3 * walked[0]
    assert abs(res.rate - rate) <= 1e-12


def test_a_build_remakes_only_the_parts_whose_inputs_moved(monkeypatch):
    # One sweep at n=3 builds the code 72 times in the objective and once at
    # the end.  With the family's part table emptied before each build, the
    # builds make 73 codeword-state tuples and 293 Povms (4 per build plus the
    # decoder); reusing the parts whose inputs did not move, 29 and 103 (the
    # final build reuses the codeword states and one M_t of the objective's
    # last build), for the same bits.
    build = FeedbackCodeFamily.build
    made = {}

    def run(reuse):
        count = dict(states=0, povms=0)

        def counted(name, f):
            return lambda *args: count.update({name: count[name] + 1}) or f(*args)

        monkeypatch.setattr(capacity, "product_states", counted("states", capacity.product_states))
        monkeypatch.setattr(Povm, "__post_init__", counted("povms", Povm.__post_init__))
        if not reuse:
            monkeypatch.setattr(FeedbackCodeFamily, "build", lambda self, x: self._parts.clear() or build(self, x))
        res = estimate_feedback_capacity(depolarizing_channel(0.1), 3, OptimizerConfig(starts=1, seed=0, max_sweeps=1))
        monkeypatch.undo()
        made[reuse] = count["states"], count["povms"]
        return res

    reused, rebuilt = run(True), run(False)
    assert made == {True: (29, 103), False: (73, 293)}
    assert (reused.rate, reused.no_feedback_rate) == (rebuilt.rate, rebuilt.no_feedback_rate)
    assert np.array(reused.code.probs).tobytes() == np.array(rebuilt.code.probs).tobytes()


def test_walk_reuse_is_bit_identical_to_the_plain_objective(monkeypatch):
    # The objective reuses its last walk when a call keeps every
    # non-probability coordinate, whichever words sit below PROB_FLOOR.  An
    # ascent driven by directed_information_total(fresh_build(family, x)) / n
    # must see the same value at every point and report the same bits.
    channel, cfg = depolarizing_channel(0.1), OptimizerConfig(starts=2, seed=0, max_sweeps=1)
    original = capacity.coordinate_ascent
    below_floor = []
    for n in (1, 2, 3):
        family = FeedbackCodeFamily(channel, default_words(n))
        plain = lambda x: directed_information_total(fresh_build(family, x)) / n
        values, objectives = {}, []

        def run(driver):
            seen = values.setdefault(driver, [])

            def ascent(objective, *args, **kwargs):
                objectives.append(objective)

                def recorded(x):
                    below_floor.append(simplex_projection(x[family.prob_block]).min() < PROB_FLOOR)
                    seen.append(plain(x) if driver == "plain" else objective(x))
                    return seen[-1]

                return original(recorded, *args, **kwargs)

            monkeypatch.setattr(capacity, "coordinate_ascent", ascent)
            return estimate_feedback_capacity(channel, n, cfg)

        reused, reference = run("reused"), run("plain")
        assert values["reused"] == values["plain"]
        assert reused.rate == reference.rate
        assert reused.no_feedback_rate == reference.no_feedback_rate
        assert reused.start_values == reference.start_values
        assert np.array(reused.code.probs).tobytes() == np.array(reference.code.probs).tobytes()
        # One shape met with one word above the floor, then every word, then one again: the reused walk must
        # give the plain value at each.
        x = family.initial(None)
        one_live = x.copy()
        one_live[family.prob_block] = np.eye(len(family.words))[0]
        for point in (one_live, x, one_live):
            assert objectives[0](point) == plain(point)
    # Some evaluated point drops a codeword below the floor, so the weight floor is exercised on a reused walk.
    assert any(below_floor)


def test_a_move_below_the_floor_reuses_the_walk(monkeypatch):
    # A probability move that sends codewords below PROB_FLOOR keeps every
    # non-probability coordinate, so it reuses the stored walk of every word
    # and its plan: those words' branches weigh 0.  Neither the move nor the
    # move back compiles a plan.
    channel, n = depolarizing_channel(0.1), 2
    family = FeedbackCodeFamily(channel, default_words(n))
    objectives, walked, compiled, original = [], [0], [0], capacity.coordinate_ascent
    walk, plan = directed._walk, directed._cmi_plan

    def recorded_ascent(objective, *args, **kwargs):
        objectives.append(objective)
        return original(objective, *args, **kwargs)

    def counted_walk(*args):
        walked[0] += 1
        return walk(*args)

    def counted_plan(requests):
        compiled[0] += 1
        return plan(requests)

    monkeypatch.setattr(capacity, "coordinate_ascent", recorded_ascent)
    monkeypatch.setattr(directed, "_walk", counted_walk)
    monkeypatch.setattr(directed, "_cmi_plan", counted_plan)
    # No sweep: each stage evaluates the family's start alone, one shape walked once.
    estimate_feedback_capacity(channel, n, OptimizerConfig(starts=1, seed=0, max_sweeps=0))
    assert walked[0] == compiled[0] == 1
    x = family.initial(None)
    low = x.copy()
    low[family.prob_block] = [0.5, 0.5, PROB_FLOOR / 2, 0.0]
    values = [objectives[0](point) for point in (x, low, x)]
    assert walked[0] == compiled[0] == 1
    assert values == [directed_information_total(fresh_build(family, point)) / n for point in (x, low, x)]
    assert values[1] != values[0]


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


def test_blahut_arimoto_oracle_meets_the_closed_forms():
    for channel, w, c in classical_channels():
        assert abs(oracle_blahut_arimoto(w) - c) <= 1e-9, channel.label


def test_feedback_rates_stay_below_the_blahut_arimoto_capacity():
    # Shannon's feedback theorem on a seeded asymmetric binary channel: its
    # Blahut-Arimoto capacity bounds every n-block rate.
    e0, e1 = np.random.default_rng(0).uniform(0.0, 0.5, 2)
    w = [[1 - e0, e0], [e1, 1 - e1]]
    c = oracle_blahut_arimoto(w)
    cfg = OptimizerConfig(starts=1, seed=0, max_sweeps=1)
    for n in (1, 2, 3):
        rate = estimate_feedback_capacity(classical_channel(w, "asymmetric"), n, cfg).rate
        assert rate <= c + 1e-9, (n, rate, c)


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
    x = fam.initial(None)
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
    # A family's first build makes, at n=3, two rotated qubit
    # measurements and the two M_j made from them, M_1 carrying its feedback;
    # the random generator adds the decoder.
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


def test_capture_optimize_digest():
    # tests/capture_optimize.py: every ascent stage, rate and probability of
    # two starts and one sweep at n = 1-3 on two channels, as one digest.
    from capture_optimize import digest

    assert digest(lambda line: None) == "c1a9ba222f3ed900d6542b6ef5d5d9521dea61b04a3ddbf783e1820e4da6af15"
