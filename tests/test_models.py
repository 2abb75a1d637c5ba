"""Tests for observation models, profiles, and information numbers."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import oracles
from oracles import llr_increment
from seqgap import (
    BERNOULLI,
    GAUSSIAN_MEAN,
    StreamModel,
    StreamProfile,
    eta,
)


def gaussian_model(theta=0.5):
    return StreamModel(family=GAUSSIAN_MEAN, null=0.0, alt=theta)


def test_gaussian_llr_increment_value():
    """log f1/f0 at x=1 for a unit-variance mean shift of 0.5."""
    model = gaussian_model(0.5)
    assert llr_increment(model, 1.0) == pytest.approx(0.375, abs=1e-12)
    # affine form: slope * x + offset
    assert model.llr_slope == pytest.approx(0.5)
    assert model.llr_offset == pytest.approx(-0.125)


def test_bernoulli_llr_increment_values():
    model = StreamModel(family=BERNOULLI, null=0.4, alt=0.6)
    assert llr_increment(model, 1.0) == pytest.approx(math.log(1.5), abs=1e-12)
    assert llr_increment(model, 0.0) == pytest.approx(math.log(4 / 6), abs=1e-12)


def test_bernoulli_increment_rejects_non_binary():
    model = StreamModel(family=BERNOULLI, null=0.4, alt=0.6)
    with pytest.raises(ValueError):
        llr_increment(model, 0.5)


def test_equal_parameters_rejected():
    with pytest.raises(ValueError):
        StreamModel(family=GAUSSIAN_MEAN, null=0.3, alt=0.3)
    with pytest.raises(ValueError):
        StreamModel(family=BERNOULLI, null=0.5, alt=0.5)


def test_bernoulli_parameter_range():
    with pytest.raises(ValueError):
        StreamModel(family=BERNOULLI, null=0.0, alt=0.5)
    with pytest.raises(ValueError):
        StreamModel(family=BERNOULLI, null=0.4, alt=1.0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        StreamModel(family="poisson", null=1.0, alt=2.0)


def test_gaussian_info_numbers_closed_form():
    """Mean-shift KL divergence is theta^2/2 each way, LLR variance theta^2."""
    info = gaussian_model(0.5).info_numbers()
    assert info.i0 == pytest.approx(0.125, abs=1e-12)
    assert info.i1 == pytest.approx(0.125, abs=1e-12)
    assert info.v0 == pytest.approx(0.25, abs=1e-12)
    assert info.v1 == pytest.approx(0.25, abs=1e-12)


def test_bernoulli_info_numbers_closed_form():
    model = StreamModel(family=BERNOULLI, null=0.4, alt=0.6)
    info = model.info_numbers()
    expected_i1 = 0.6 * math.log(0.6 / 0.4) + 0.4 * math.log(0.4 / 0.6)
    assert info.i1 == pytest.approx(expected_i1, abs=1e-9)
    assert info.i1 == pytest.approx(0.081093, abs=1e-6)
    # symmetric parameters make the two divergences equal here
    assert info.i0 == pytest.approx(expected_i1, abs=1e-9)


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
def test_gaussian_info_matches_numeric_integration(theta):
    """I1 = E_alt[llr], I0 = -E_null[llr], v = Var[llr]; integrate them."""
    model = gaussian_model(theta)

    def llr(x):
        return stats.norm.logpdf(x, loc=theta) - stats.norm.logpdf(x, loc=0.0)

    i1, _ = integrate.quad(lambda x: llr(x) * stats.norm.pdf(x, loc=theta), -12, 12)
    i0, _ = integrate.quad(lambda x: -llr(x) * stats.norm.pdf(x, loc=0.0), -12, 12)
    m2_alt, _ = integrate.quad(
        lambda x: llr(x) ** 2 * stats.norm.pdf(x, loc=theta), -12, 12
    )
    info = model.info_numbers()
    assert info.i1 == pytest.approx(i1, rel=1e-6)
    assert info.i0 == pytest.approx(i0, rel=1e-6)
    assert info.v1 == pytest.approx(m2_alt - i1 * i1, rel=1e-6)


@pytest.mark.parametrize("p0,p1", [(0.4, 0.6), (0.1, 0.35), (0.7, 0.2)])
def test_bernoulli_info_matches_direct_expectation(p0, p1):
    """Two-point expectations of the increment and its square."""
    model = StreamModel(family=BERNOULLI, null=p0, alt=p1)
    llr1 = math.log(p1 / p0)
    llr0 = math.log((1 - p1) / (1 - p0))
    i1 = p1 * llr1 + (1 - p1) * llr0
    i0 = -(p0 * llr1 + (1 - p0) * llr0)
    v1 = p1 * llr1**2 + (1 - p1) * llr0**2 - i1**2
    v0 = p0 * llr1**2 + (1 - p0) * llr0**2 - i0**2
    info = model.info_numbers()
    assert info.i1 == pytest.approx(i1, rel=1e-9)
    assert info.i0 == pytest.approx(i0, rel=1e-9)
    assert info.v1 == pytest.approx(v1, rel=1e-9)
    assert info.v0 == pytest.approx(v0, rel=1e-9)


def test_increment_mean_matches_info_numbers_monte_carlo():
    """Law of large numbers: sample mean of increments approaches +-I."""
    rng = np.random.default_rng(20260816)
    n = 200_000
    for model in (gaussian_model(0.5), StreamModel(family=BERNOULLI, null=0.4, alt=0.6)):
        info = model.info_numbers()
        profile = StreamProfile.homogeneous(model, 2)
        # stream 1 draws under the alternative, stream 2 under the null
        x = profile.sample_block(profile.signal_mask({1}), n, rng)
        means = profile.increments(x).mean(axis=0)
        assert abs(means[0] - info.i1) < 4 * math.sqrt(info.v1 / n)
        assert abs(means[1] + info.i0) < 4 * math.sqrt(info.v0 / n)


def test_empirical_means_of_draws():
    """Null draws average near 0, alt draws near theta (CLT bound)."""
    profile = StreamProfile.homogeneous(gaussian_model(0.5), 2)
    n = 1_000_000
    x = profile.sample_block(profile.signal_mask({2}), n, np.random.default_rng(7))
    # reference arithmetic; the model must agree with it pointwise
    u = np.random.default_rng(7).random((100, 2))
    np.testing.assert_allclose(
        x[:100], np.array([0.0, 0.5]) + stats.norm.ppf(u), rtol=0, atol=1e-12
    )
    assert abs(x[:, 0].mean()) < 0.004
    assert abs(x[:, 1].mean() - 0.5) < 0.004


def test_profile_requires_two_streams():
    with pytest.raises(ValueError):
        StreamProfile(models=(gaussian_model(),))


class _HalfUniforms:
    """Generator stand-in whose every uniform is exactly 0.5, the median."""

    def random(self, size):
        return np.full(size, 0.5)


def test_profile_signal_mask_and_state_params():
    profile = StreamProfile.homogeneous(gaussian_model(0.5), 4)
    mask = profile.signal_mask(frozenset({2, 4}))
    np.testing.assert_array_equal(mask, [False, True, False, True])
    assert mask.dtype == bool and not mask.flags.writeable
    # At the median uniform every observation is its stream's active mean.
    params = profile.sample_block(mask, 1, _HalfUniforms())[0]
    np.testing.assert_array_equal(params, [0.0, 0.5, 0.0, 0.5])


@pytest.mark.parametrize(
    "signal",
    [frozenset({1, 2}), np.zeros(3, dtype=bool), np.zeros(4, dtype=int)],
    ids=["label set", "short mask", "int mask"],
)
def test_sample_block_rejects_anything_but_a_signal_mask(signal):
    profile = StreamProfile.homogeneous(gaussian_model(0.5), 4)
    with pytest.raises(ValueError, match=r"\(4,\) bool signal mask"):
        profile.sample_block(signal, 1, np.random.default_rng(0))


def test_validate_signal_set_rejects_out_of_range():
    profile = StreamProfile.homogeneous(gaussian_model(), 4)
    with pytest.raises(ValueError):
        profile.validate_signal_set({0})
    with pytest.raises(ValueError):
        profile.validate_signal_set({5})
    assert profile.validate_signal_set({1, 4}) == frozenset({1, 4})


def test_sample_block_consumes_uniforms_row_major():
    """One uniform per (time, stream) cell, rows first, inverse-CDF mapped."""
    profile = StreamProfile.homogeneous(gaussian_model(0.5), 3)
    seed = 99
    signal = profile.signal_mask({1})
    block = profile.sample_block(signal, 5, np.random.default_rng(seed))
    u = np.random.default_rng(seed).random((5, 3))
    expected = np.array([0.5, 0.0, 0.0])[None, :] + stats.norm.ppf(u)
    np.testing.assert_allclose(block, expected, atol=1e-12)


def test_sample_block_bernoulli_protocol():
    model = StreamModel(family=BERNOULLI, null=0.3, alt=0.7)
    profile = StreamProfile.homogeneous(model, 2)
    seed = 4242
    signal = profile.signal_mask({2})
    block = profile.sample_block(signal, 8, np.random.default_rng(seed))
    u = np.random.default_rng(seed).random((8, 2))
    expected = (u < np.array([0.3, 0.7])[None, :]).astype(float)
    np.testing.assert_array_equal(block, expected)


class _ZeroUniforms:
    """Generator stand-in whose every uniform is exactly 0.0."""

    def random(self, size):
        return np.zeros(size)


def test_sample_block_zero_uniform_gives_finite_observations():
    """random() may return 0.0, where the normal inverse CDF is -inf."""
    profile = StreamProfile(
        (gaussian_model(0.5), StreamModel(family=BERNOULLI, null=0.3, alt=0.7))
    )
    block = profile.sample_block(profile.signal_mask({1}), 3, _ZeroUniforms())
    assert np.all(np.isfinite(block))
    assert np.all(np.isfinite(profile.increments(block)))


_FAMILIES = (GAUSSIAN_MEAN, BERNOULLI)


@st.composite
def _profile_blocks(draw):
    """An all-gaussian, mixed or all-bernoulli profile, a signal mask, a
    row count and a uniform source: a seeded generator or all zeros."""
    j = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["gaussian", "mixed", "bernoulli"]))
    families = {
        "gaussian": [GAUSSIAN_MEAN] * j,
        "bernoulli": [BERNOULLI] * j,
        "mixed": [GAUSSIAN_MEAN, BERNOULLI]
        + draw(st.lists(st.sampled_from(_FAMILIES), min_size=j - 2, max_size=j - 2)),
    }[kind]
    models = []
    for family in draw(st.permutations(families)):
        low, high = (-3.0, 3.0) if family == GAUSSIAN_MEAN else (0.01, 0.99)
        pair = st.floats(low, high, allow_subnormal=False)
        null, alt = draw(
            st.tuples(pair, pair).filter(lambda params: params[0] != params[1])
        )
        models.append(StreamModel(family=family, null=null, alt=alt))
    signal = np.array(draw(st.lists(st.booleans(), min_size=j, max_size=j)))
    steps = draw(st.integers(1, 70))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return StreamProfile(tuple(models)), signal, steps, seed


def _uniforms(seed):
    return _ZeroUniforms() if seed is None else np.random.default_rng(seed)


@settings(max_examples=300, deadline=None)
@given(_profile_blocks())
def test_sample_block_matches_the_column_oracle(case):
    """The in-place block equals the gather-and-scatter form bit for bit,
    and so do its increments written over it."""
    profile, signal, steps, seed = case
    block = profile.sample_block(signal, steps, _uniforms(seed))
    expected = oracles.sample_block(profile, signal, steps, _uniforms(seed))
    assert block.shape == expected.shape == (steps, profile.j)
    assert block.tobytes() == expected.tobytes()
    increments = profile.increments(block)
    assert profile.increments(block, out=block) is block
    assert block.tobytes() == increments.tobytes()


def test_profile_increments_matches_scalar_llr():
    models = (
        gaussian_model(0.5),
        gaussian_model(1.0),
        StreamModel(family=BERNOULLI, null=0.3, alt=0.6),
    )
    profile = StreamProfile(models=models)
    x = np.array([0.7, -1.2, 1.0])
    got = profile.increments(x)
    expected = [llr_increment(m, xi) for m, xi in zip(models, x)]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_eta_worst_case_over_both_sides():
    """eta0 is the minimum noise-stream I0, eta1 the minimum signal I1."""
    weak = gaussian_model(0.25)
    strong = gaussian_model(1.0)
    profile = StreamProfile(models=(weak, strong, weak, strong))
    info = eta(profile, frozenset({2, 4}))  # signals are the strong pair
    assert info.eta1 == pytest.approx(0.5, abs=1e-12)  # 1.0^2/2
    assert info.eta0 == pytest.approx(0.03125, abs=1e-12)  # 0.25^2/2
    assert math.isfinite(info.eta0) and math.isfinite(info.eta1)


def test_eta_homogeneous_case():
    profile = StreamProfile.homogeneous(gaussian_model(0.5), 10)
    info = eta(profile, frozenset(range(1, 6)))
    assert info.eta0 == pytest.approx(0.125)
    assert info.eta1 == pytest.approx(0.125)


def test_eta_empty_sides():
    """No signals: eta1 is undefined (infinite); no noise: eta0 is."""
    profile = StreamProfile.homogeneous(gaussian_model(0.5), 4)
    no_signals = eta(profile, frozenset())
    assert math.isinf(no_signals.eta1)
    assert math.isfinite(no_signals.eta0)
    all_signals = eta(profile, frozenset({1, 2, 3, 4}))
    assert math.isinf(all_signals.eta0)


def mixed_profile():
    return StreamProfile(
        models=(
            StreamModel(GAUSSIAN_MEAN, null=0.0, alt=0.5),
            StreamModel(GAUSSIAN_MEAN, null=1.0, alt=0.2),
            StreamModel(BERNOULLI, null=0.3, alt=0.6),
        )
    )


def test_columns_give_each_stream_its_own_increments():
    """Gaussian streams with alt above and below the null and a bernoulli
    stream each map observations through their own model's LLR."""
    profile = mixed_profile()
    x = np.array([[0.7, -1.3, 1.0], [2.5, 0.4, 0.0]])
    got = profile.increments(x)
    for row in range(x.shape[0]):
        for k, model in enumerate(profile.models):
            assert got[row, k] == llr_increment(model, x[row, k])


def test_columns_give_eta_the_per_model_minimum():
    profile = mixed_profile()
    infos = [model.info_numbers() for model in profile.models]
    for truth in (frozenset(), frozenset({2}), frozenset({1, 3}), frozenset({1, 2, 3})):
        info = eta(profile, truth)
        noise = [infos[k].i0 for k in range(3) if k + 1 not in truth]
        signal = [infos[k].i1 for k in range(3) if k + 1 in truth]
        assert info.eta0 == (min(noise) if noise else math.inf)
        assert info.eta1 == (min(signal) if signal else math.inf)
        defined = (math.isfinite(info.eta0), math.isfinite(info.eta1))
        assert defined == (bool(noise), bool(signal))


def test_columns_are_read_only_and_outside_the_fields():
    profile = mixed_profile()
    columns = ("null", "alt", "llr_slope", "llr_offset", "i0", "i1")
    for name in (*columns, "gaussian_columns", "bernoulli_columns"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(profile, name)[0] = 0
    np.testing.assert_array_equal(profile.gaussian_columns, [0, 1])
    np.testing.assert_array_equal(profile.bernoulli_columns, [2])
    assert profile == mixed_profile()
    assert repr(profile) == f"StreamProfile(models={profile.models!r})"


def test_pickled_profile_rebuilds_read_only_columns():
    """Pool workers get the profile by pickle; the copy equals the
    original and its columns are read-only too."""
    profile = mixed_profile()
    copy = pickle.loads(pickle.dumps(profile))
    assert copy == profile
    np.testing.assert_array_equal(copy.llr_slope, profile.llr_slope)
    with pytest.raises(ValueError, match="read-only"):
        copy.llr_slope[0] = 0.0


def test_alternating_masks_map_as_fresh_profiles_do():
    """A profile that meets one signal mask after another maps each block
    as a fresh profile does, gaussian and bernoulli streams alike, and
    keeps only the last mask's parameter column."""
    profile = mixed_profile()
    masks = [profile.signal_mask(truth) for truth in ({1}, {2, 3}, set(), {1, 3})]
    rng = np.random.default_rng(11)
    for mask in masks * 3 + masks[::-1]:
        u = rng.random((4, profile.j))
        want = mixed_profile().from_uniforms(u.copy(), mask)
        assert profile.from_uniforms(u, mask).tobytes() == want.tobytes()
        key, params = profile._params
        assert key == mask.tobytes() and not params.flags.writeable
