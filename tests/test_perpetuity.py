import math

import numpy as np
import pytest

import randrefine as rr
import randrefine.perpetuity as pp


def _index_chunks_oracle(measure, depth, count, rng):
    """Reference oracle: the per-sampler index draw in chunks of
    65536 * 64 // depth rows."""
    weights = measure.weights
    rows = max(1, min(count, 65_536 * 64 // max(depth, 1)))
    done = 0
    while done < count:
        take = min(rows, count - done)
        yield rng.choice(len(weights), size=(take, depth), p=weights)
        done += take


def _draw_forward_oracle(measure, depth, count, seed):
    ls, ms = measure.scales, measure.shifts
    out = np.empty(count)
    pos = 0
    for idx in _index_chunks_oracle(measure, depth, count, pp.generator(seed)):
        prods = np.cumprod(ls[idx], axis=1)
        vals = (ms[idx] / prods).sum(axis=1)
        out[pos:pos + len(vals)] = vals
        pos += len(vals)
    return out


def _draw_backward_oracle(measure, depth, count, seed):
    ls, ms = measure.scales, measure.shifts
    out = np.empty(count)
    pos = 0
    for idx in _index_chunks_oracle(measure, depth, count, pp.generator(seed)):
        scales = ls[idx]
        prods = np.ones_like(scales)
        np.cumprod(scales[:, :-1], axis=1, out=prods[:, 1:])
        vals = -(ms[idx] * prods).sum(axis=1)
        out[pos:pos + len(vals)] = vals
        pos += len(vals)
    return out


def _charfn_full_grid_oracle(measure, xs, sample_count, depth, seed):
    """Reference oracle: the phase matrix over every grid point, negative
    frequencies included, in blocks of 65536 * 16 // sample_count points."""
    z = _draw_forward_oracle(measure, depth, sample_count, seed)
    values = np.empty(len(xs), dtype=complex)
    stderr = np.empty(len(xs))
    block = max(1, 65_536 * 16 // sample_count)
    for start in range(0, len(xs), block):
        xb = xs[start:start + block]
        phases = np.exp(1j * np.multiply.outer(xb, z))
        values[start:start + len(xb)] = phases.mean(axis=1)
        var = phases.real.var(axis=1) + phases.imag.var(axis=1)
        stderr[start:start + len(xb)] = np.sqrt(var / sample_count)
    return values, stderr


MIXED = [(2.0, 0.5, 0.5), (3.0, -1.0, 0.3), (-4.0, 1.5, 0.2)]


def ks_distance(samples, cdf):
    """Sup distance between an empirical CDF and a reference CDF callable."""
    xs = np.sort(samples)
    n = len(xs)
    ref = cdf(xs)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - ref))
    lower = np.max(np.abs(np.arange(0, n) / n - ref))
    return max(upper, lower)


class TestSamplers:
    def test_single_atom_backward_is_deterministic(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        assert rr.sample_backward_iterate(m, 3, 0) == -1.75

    def test_single_atom_forward_partial_sum(self):
        m = rr.build_measure([(2, 1, 1.0)])
        assert rr.sample_forward_series(m, 3, 0) == 0.875

    def test_zero_shift_draws_are_exactly_zero(self):
        m = rr.build_measure([(2, 0, 0.25), (3, 0, 0.75)])
        assert np.all(rr.draw_forward(m, 10, 1000, 5) == 0.0)
        assert np.all(rr.draw_backward(m, 10, 1000, 5) == 0.0)

    def test_depth_one_backward_is_negated_shift(self):
        m = rr.build_measure([(2, 1, 0.5), (3, -2, 0.5)])
        draws = rr.draw_backward(m, 1, 2000, 11)
        assert set(np.unique(draws)) == {-1.0, 2.0}

    def test_reproducible_bit_for_bit(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        a = rr.draw_forward(m, 20, 5000, 123)
        b = rr.draw_forward(m, 20, 5000, 123)
        assert np.array_equal(a, b)
        c = rr.draw_forward(m, 20, 5000, 124)
        assert not np.array_equal(a, c)

    def test_forward_uniform_limit(self):
        # binary-digit perpetuity: the forward series tends to Uniform(0, 1)
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        draws = rr.draw_forward(m, 40, 100_000, 9)
        dist = ks_distance(draws, lambda x: np.clip(x, 0.0, 1.0))
        assert dist < 0.01


class TestPathChunks:
    def test_chunking_never_changes_draws(self, monkeypatch):
        m = rr.build_measure(MIXED)
        monkeypatch.setattr(pp, "CHUNK_ELEMS", 7 * 300)
        chunks = list(pp.path_chunks(m, 7, 1000, pp.generator(3)))
        assert [(r.start, r.stop) for r, _ in chunks] == [
            (0, 300), (300, 600), (600, 900), (900, 1000)]
        whole = pp.generator(3).choice(len(m), size=(1000, 7), p=m.weights)
        assert np.array_equal(np.concatenate([idx for _, idx in chunks]), whole)

    def test_rows_from_the_chunk_constant(self):
        m = rr.build_measure(MIXED)
        (rows, idx), *rest = pp.path_chunks(m, 47, 100_000, pp.generator(1))
        assert idx.shape == (pp.CHUNK_ELEMS // 47, 47) == (rows.stop, 47)
        assert len(rest) == 2

    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_checked_at_call(self, depth):
        with pytest.raises(ValueError, match="depth"):
            pp.path_chunks(rr.build_measure(MIXED), depth, 10, pp.generator(0))

    def test_draw_budget_checked_before_drawing(self):
        m = rr.build_measure(MIXED)
        rng = pp.generator(0)
        with pytest.raises(ValueError, match="draw budget"):
            pp.path_chunks(m, 60, 10**9, rng)
        assert rng.random() == pp.generator(0).random()  # nothing drawn
        pp.path_chunks(m, 64, pp.DRAW_BUDGET // 64, rng)  # at the budget: accepted

    @pytest.mark.parametrize("sampler", [rr.draw_forward, rr.draw_backward])
    def test_samplers_refuse_over_budget_counts(self, sampler):
        with pytest.raises(ValueError, match="draw budget"):
            sampler(rr.build_measure(MIXED), 500, 10**13, 0)


@pytest.mark.parametrize("depth, count", [
    (1, 3000), (7, 3000), (8, 3000), (47, 3000),
    (47, 100_000),  # three chunks of CHUNK_ELEMS // 47 rows
    (200, 20_001),  # three chunks, the last of one row
])
@pytest.mark.parametrize("draw, oracle", [
    (rr.draw_forward, _draw_forward_oracle),
    (rr.draw_backward, _draw_backward_oracle),
], ids=["forward", "backward"])
def test_draws_match_chunk_oracle_bytes(draw, oracle, depth, count):
    m = rr.build_measure(MIXED)
    assert draw(m, depth, count, 17).tobytes() == oracle(m, depth, count, 17).tobytes()


class TestEnumeratePaths:
    def test_forward_depth_two_quarters(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        law = rr.enumerate_paths(m, 2, "forward")
        assert np.allclose(law.values, [0.0, 0.25, 0.5, 0.75])
        assert np.allclose(law.probs, 0.25)

    def test_backward_depth_one_is_negated_shifts(self):
        m = rr.build_measure([(2, 1, 0.25), (3, -1, 0.75)])
        law = rr.enumerate_paths(m, 1, "backward")
        assert np.allclose(law.values, [-1.0, 1.0])
        assert np.allclose(law.probs, [0.25, 0.75])

    def test_single_atom_backward_point(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        law = rr.enumerate_paths(m, 3, "backward")
        assert law.values.tolist() == [-1.75]
        assert law.probs.tolist() == [1.0]

    def test_cap_enforced(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        with pytest.raises(rr.EnumerationTooLarge):
            rr.enumerate_paths(m, 40, "forward")

    @pytest.mark.parametrize("atoms,depth", [
        ([(2, 0, 0.5), (2, 1, 0.5)], 8),
        ([(0.5, 0, 0.5), (0.5, -1, 0.5)], 10),
        ([(2, 1, 0.3), (3, -1, 0.3), (0.5, 2, 0.4)], 7),
        ([(2, 0, 0.25), (2, 1, 0.25), (2, 2, 0.25), (2, 3, 0.25)], 6),
    ])
    def test_sampler_matches_enumeration(self, atoms, depth):
        m = rr.build_measure(atoms)
        law = rr.enumerate_paths(m, depth, "backward")
        draws = rr.draw_backward(m, depth, 100_000, 31)
        assert ks_distance(draws, law.cdf) < 0.02
        law_f = rr.enumerate_paths(m, depth, "forward")
        draws_f = rr.draw_forward(m, depth, 100_000, 32)
        assert ks_distance(draws_f, law_f.cdf) < 0.02

    def test_forward_backward_reversal_scaling(self):
        # constant scale lam: the forward law equals the backward law
        # scaled by -lam^(-n) (path reversal)
        for atoms in ([(2, 0, 0.5), (2, 1, 0.5)], [(0.5, 1, 0.25), (0.5, -1, 0.75)]):
            m = rr.build_measure(atoms)
            lam = m.scales[0]
            for depth in (1, 3, 6):
                fwd = rr.enumerate_paths(m, depth, "forward")
                bwd = rr.enumerate_paths(m, depth, "backward").scaled(
                    -float(lam) ** -depth
                )
                assert np.allclose(fwd.values, bwd.values, atol=1e-12)
                assert np.allclose(fwd.probs, bwd.probs, atol=1e-12)


class TestCharfnEstimate:
    def test_uniform_oracle_within_stderr(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        xs = [0.5, 1.0, 2.0, 5.0]
        est = rr.estimate_charfn(m, xs, 100_000, depth=60, rng_seed=7)
        for x, v, s in zip(est.charfn_x, est.charfn_values, est.charfn_stderr):
            oracle = (np.exp(1j * x) - 1.0) / (1j * x)
            assert abs(v.real - oracle.real) <= 3 * s + 1e-3
            assert abs(v.imag - oracle.imag) <= 3 * s + 1e-3

    def test_zero_frequency_exact(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        est = rr.estimate_charfn(m, [0.0], 1000, rng_seed=1)
        assert est.charfn_values[0] == 1.0 + 0.0j
        assert est.charfn_stderr[0] == 0.0

    def test_zero_shift_charfn_is_one(self):
        m = rr.build_measure([(2, 0, 0.5), (4, 0, 0.5)])
        est = rr.estimate_charfn(m, [0.7, 3.0], 500, rng_seed=1)
        assert np.all(est.charfn_values == 1.0 + 0.0j)

    def test_hermitian_symmetry_bitwise(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        xs = np.array([-5.0, -1.0, -0.25, 0.25, 1.0, 5.0])
        est = rr.estimate_charfn(m, xs, 20_000, rng_seed=42)
        vals = est.charfn_values
        assert np.array_equal(vals[:3], np.conj(vals[:2:-1]))

    @pytest.mark.parametrize("xs", [
        rr.symmetric_grid(10.0, 201),
        np.random.default_rng(3).permutation(rr.symmetric_grid(6.0, 25)),
        np.linspace(-6.0, 6.0, 24),
        np.array([0.0]),
        np.array([-5.0, -0.5, -2.0, -0.5]),
        np.array([-3.0, 2.0]),
    ], ids=["symmetric", "shuffled", "even-linspace", "zero", "negative-only", "mixed-sign"])
    @pytest.mark.parametrize("samples", [1, 20_000])
    def test_half_grid_matches_full_grid_oracle_bytes(self, xs, samples):
        m = rr.build_measure([(2.0, 0.0, 0.5), (3.0, 1.0, 0.3), (-2.0, -0.5, 0.2)])
        est = rr.estimate_charfn(m, xs, samples, rng_seed=9)
        values, stderr = _charfn_full_grid_oracle(m, xs, samples, est.depth, 9)
        assert est.charfn_x.tobytes() == xs.tobytes()
        assert est.charfn_values.tobytes() == values.tobytes()
        assert est.charfn_stderr.tobytes() == stderr.tobytes()

    def test_modulus_bound(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        est = rr.estimate_charfn(m, np.linspace(-20, 20, 41), 5000, rng_seed=3)
        assert np.all(np.abs(est.charfn_values) <= 1.0 + 3 * est.charfn_stderr + 1e-12)

    def test_regime_gate_and_override(self):
        contractive = rr.build_measure([(0.5, 1, 1.0)])
        with pytest.raises(rr.RegimeMismatch):
            rr.estimate_charfn(contractive, [1.0], 100)
        est = rr.estimate_charfn(contractive, [1.0], 100, depth=5,
                                 allow_divergent=True)
        assert est.divergent_regime

    def test_critical_override_flagged(self):
        critical = rr.build_measure([(-1, 2, 0.5), (1, 0, 0.5)])
        with pytest.raises(rr.RegimeMismatch):
            rr.estimate_charfn(critical, [1.0], 100)
        est = rr.estimate_charfn(critical, [1.0], 100, depth=8,
                                 allow_divergent=True)
        assert est.divergent_regime


@pytest.mark.parametrize("count", [0, -3])
def test_nonpositive_sample_count_refused(count):
    expansive = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
    contractive = rr.build_measure([(0.5, 1, 1.0)])
    with pytest.raises(ValueError, match="sample count"):
        rr.estimate_charfn(expansive, [1.0], count)
    with pytest.raises(ValueError, match="sample count"):
        rr.estimate_cdf(contractive, [0.0], count)


class TestCdfEstimate:
    def test_point_mass_at_map_fixed_point(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        ts = np.linspace(-4, 0, 401)
        est = rr.estimate_cdf(m, ts, 2000, rng_seed=1)
        assert est.cdf_values[np.searchsorted(ts, -2.05)] == 0.0
        assert est.cdf_values[np.searchsorted(ts, -1.95)] == 1.0

    def test_uniform_on_0_2_against_enumeration(self):
        m = rr.build_measure([(0.5, 0, 0.5), (0.5, -1, 0.5)])
        law = rr.enumerate_paths(m, 20, "backward")
        ts = np.linspace(-0.5, 2.5, 601)
        est = rr.estimate_cdf(m, ts, 100_000, depth=20, rng_seed=3)
        assert np.max(np.abs(est.cdf_values - law.cdf(ts))) <= 0.01

    def test_zero_shift_point_mass_at_zero(self):
        m = rr.build_measure([(0.5, 0, 1.0)])
        ts = np.linspace(-1, 1, 201)
        est = rr.estimate_cdf(m, ts, 1000, rng_seed=2)
        assert np.all(est.cdf_values[ts < -0.02] == 0.0)
        assert np.all(est.cdf_values[ts > 0.02] == 1.0)

    def test_monotone_grid(self):
        m = rr.build_measure([(0.5, 0, 0.5), (0.5, -1, 0.5)])
        est = rr.estimate_cdf(m, np.linspace(-1, 3, 301), 10_000, rng_seed=4)
        assert np.all(np.diff(est.cdf_values) >= 0.0)

    def test_expansive_hard_refusal(self):
        m = rr.build_measure([(2, 1, 1.0)])
        with pytest.raises(rr.RegimeMismatch):
            rr.estimate_cdf(m, [0.0], 100)
        with pytest.raises(rr.RegimeMismatch):
            rr.estimate_cdf(m, [0.0], 100, allow_divergent=True)

    def test_default_depth_rule(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        est = rr.estimate_cdf(m, [0.0], 100, rng_seed=1)
        expected = math.ceil(math.log(1e-12) / math.log(0.5))
        assert est.depth == expected


class TestCdfIntegralIdentity:
    def test_point_mass_reduces_to_tail_integral(self):
        # limit law = point mass at -2; the identity holds iff the running
        # integral of g vanishes there
        m = rr.build_measure([(0.5, 1, 1.0)])
        ts = np.linspace(-30, 30, 4001)
        est = rr.estimate_cdf(m, ts, 4000, rng_seed=1)
        g_ok = rr.gaussian(4, 1) - rr.gaussian(7, 1)       # G(-2) = 0
        assert rr.check_cdf_integral_identity(g_ok, est, 1e-6)
        g_bad = rr.indicator(-4, -3) - rr.indicator(3, 4)  # G(-2) = 1
        assert not rr.check_cdf_integral_identity(g_bad, est, 1e-6)

    def test_cdf_saturated_on_support(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        ts = np.linspace(-10, 10, 2001)
        est = rr.estimate_cdf(m, ts, 2000, rng_seed=1)
        g = rr.indicator(5, 6) - rr.indicator(6, 7)
        assert rr.check_cdf_integral_identity(g, est, 1e-9)

    def test_window_too_small(self):
        m = rr.build_measure([(0.5, 1, 1.0)])
        est = rr.estimate_cdf(m, np.linspace(-3, 3, 301), 500, rng_seed=1)
        with pytest.raises(rr.WindowTooSmall):
            rr.check_cdf_integral_identity(rr.gaussian(0, 1), est, 1e-6)


class TestDepthRule:
    def test_geometric_bound(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        depth = rr.forward_truncation_depth(m)
        assert 2.0 ** -depth <= 1e-14
        assert depth <= 60

    def test_zero_shift_short_circuit(self):
        m = rr.build_measure([(2, 0, 1.0)])
        assert rr.forward_truncation_depth(m) == 1

    def test_mixed_scales_capped(self):
        m = rr.build_measure([(2, 1, 0.5), (0.5, 1, 0.25), (8, 0, 0.25)])
        assert rr.forward_truncation_depth(m) == 500
