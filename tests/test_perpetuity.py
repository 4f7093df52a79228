import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def _backward_terms_oracle(measure, depth, count, seed):
    """The backward terms ``M_i L_1...L_{i-1}`` of each oracle path, one row
    per draw."""
    ls, ms = measure.scales, measure.shifts
    rows = [np.empty((0, depth))]
    for idx in _index_chunks_oracle(measure, depth, count, pp.generator(seed)):
        scales = ls[idx]
        prods = np.ones_like(scales)
        np.cumprod(scales[:, :-1], axis=1, out=prods[:, 1:])
        rows.append(ms[idx] * prods)
    return np.concatenate(rows)


def _draw_backward_oracle(measure, depth, count, seed):
    """Reference oracle: the backward iterate summed directly,
    ``-sum_i M_i L_1...L_{i-1}``."""
    return -_backward_terms_oracle(measure, depth, count, seed).sum(axis=1)


def _draw_inverted_oracle(measure, depth, count, seed):
    return _draw_forward_oracle(pp._inverted(measure), depth, count, seed)


def _inversion_bound(depth, term_moduli):
    """How far the forward series of the inverted atoms may round from the
    backward iterate summed directly, given ``sum_i |M_i L_1...L_{i-1}|``.

    Term i takes 2i + 1 roundings there (i reciprocals, i - 1 products,
    ``-m/l`` and the division) against i - 1 in ``M_i * (L_1...L_{i-1})``,
    and each of the two sums of n terms adds at most n - 1 roundings of
    ``sum |terms|``.  At eps/2 per rounding that is (5n - 2) eps/2 times
    ``sum |terms|`` to first order, which 3 n eps bounds while every term
    stays a normal float."""
    return 3 * depth * np.finfo(float).eps * term_moduli


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
README = [(0.5, 1.0, 1.0)]
EXPANSIVE = [(2.0, -1.0, 0.5), (2.0, 1.0, 0.5)]  # the CLI session's kind: one scale 2


def _enumerate_paths_oracle(measure, depth, which):
    """Reference oracle: the raw walk over all ``k**depth`` atom paths, as
    each path's sum, its weight and the sum of its terms' moduli."""
    ls, ms, ps = measure.scales, measure.shifts, measure.weights
    sums = np.zeros(1)
    moduli = np.zeros(1)
    prods = np.ones(1)
    weights = np.ones(1)
    for _ in range(depth):
        if which == "forward":
            terms = ms[None, :] / (prods[:, None] * ls[None, :])
            sums = (sums[:, None] + terms).ravel()
        else:
            terms = ms[None, :] * prods[:, None]
            sums = (sums[:, None] - terms).ravel()
        moduli = (moduli[:, None] + np.abs(terms)).ravel()
        prods = np.multiply.outer(prods, ls).ravel()
        weights = np.multiply.outer(weights, ps).ravel()
    return sums, weights, moduli


def assert_same_law(measure, depth, which):
    """The merged law against the raw walk; the backward law is the forward
    walk of the inverted atoms, so its values are that walk's bytes."""
    law = rr.enumerate_paths(measure, depth, which)
    raw = measure if which == "forward" else pp._inverted(measure)
    sums, weights, _ = _enumerate_paths_oracle(raw, depth, "forward")
    oracle = rr.PathLaw(sums, weights, depth)
    assert law.values.tobytes() == oracle.values.tobytes()
    # Both sides add the weights of the paths merged into a point, and multiply
    # them along the path, in different orders: the two sums round apart by
    # up to about (paths + depth) eps of the probability.
    merged = np.unique(sums, return_counts=True)[1]
    bound = (merged + depth) * np.finfo(float).eps * oracle.probs
    assert np.all(np.abs(law.probs - oracle.probs) <= bound)


def assert_backward_law_within_inversion_bound(measure, depth):
    """Each raw path sum of the inverted atoms is within the inversion bound
    of the backward iterate summed directly along the same path, so the
    backward law's CDF lies between the direct law's CDF shifted by the
    largest path bound either way, up to the probabilities' roundings."""
    inverted, _, _ = _enumerate_paths_oracle(pp._inverted(measure), depth, "forward")
    direct, weights, moduli = _enumerate_paths_oracle(measure, depth, "backward")
    bound = _inversion_bound(depth, moduli)
    assert np.all(np.abs(inverted - direct) <= bound)
    law = rr.enumerate_paths(measure, depth, "backward")
    oracle = rr.PathLaw(direct, weights, depth)
    shift = bound.max()
    ts = np.concatenate([law.values, oracle.values])
    tol = 2 * (len(direct) + depth) * np.finfo(float).eps
    assert np.all(law.cdf(ts) <= oracle.cdf(ts + shift) + tol)
    assert np.all(law.cdf(ts) >= oracle.cdf(ts - shift) - tol)


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
        assert rr.draw_backward(m, 3, 1, 0)[0] == -1.75

    def test_single_atom_forward_partial_sum(self):
        m = rr.build_measure([(2, 1, 1.0)])
        assert rr.draw_forward(m, 3, 1, 0)[0] == 0.875

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

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 + 3, np.uint64(2**40 + 1)])
    def test_generator_is_philox_keyed_by_seed(self, seed):
        # every draw oracle calls generator itself; this pins the key
        a, b = pp.generator(seed), np.random.Generator(np.random.Philox(key=seed))
        assert a.random(16).tobytes() == b.random(16).tobytes()
        assert np.array_equal(a.choice(3, size=(8, 5), p=[0.5, 0.3, 0.2]),
                              b.choice(3, size=(8, 5), p=[0.5, 0.3, 0.2]))

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

    @pytest.mark.parametrize("sampler", [rr.draw_forward, rr.draw_backward])
    def test_negative_count_refused_by_name(self, sampler):
        # numpy's bare "negative dimensions are not allowed" escaped before
        with pytest.raises(ValueError, match="sample count must be >= 0, got -3"):
            sampler(rr.build_measure(MIXED), 5, -3, 1)
        rng = pp.generator(0)
        with pytest.raises(ValueError, match="sample count"):
            pp.path_chunks(rr.build_measure(MIXED), 5, -1, rng)
        assert rng.random() == pp.generator(0).random()  # nothing drawn

    @pytest.mark.parametrize("sampler", [rr.draw_forward, rr.draw_backward])
    def test_zero_count_gives_empty_draws(self, sampler):
        assert sampler(rr.build_measure(MIXED), 5, 0, 1).shape == (0,)

    @pytest.mark.parametrize("atoms, dtype", [
        (1, np.uint8), (64, np.uint8), (65, np.uint8), (256, np.uint8), (257, np.uint16),
    ])
    def test_index_dtype_and_choice_values_at_boundaries(self, atoms, dtype):
        # 64/65 atoms: comparisons against binary search; 256/257: uint8 against uint16
        m = rr.build_measure([(2.0, float(j), 1.0 / atoms) for j in range(atoms)])
        (_, idx), = pp.path_chunks(m, 9, 1000, pp.generator(5))
        assert idx.dtype == dtype
        assert np.array_equal(idx, pp.generator(5).choice(atoms, size=(1000, 9), p=m.weights))

    def test_one_atom_draws_no_uniforms(self):
        rng = pp.generator(2)
        chunks = list(pp.path_chunks(rr.build_measure(README), 40, 100_000, rng))
        assert all(not idx.any() for _, idx in chunks)
        assert rng.random() == pp.generator(2).random()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.floats(1e-300, 1e-12), st.floats(1e-3, 1.0)), min_size=1, max_size=300),
    st.integers(1, 40), st.integers(1, 3000), st.integers(0, 2**32),
)
def test_path_chunk_indices_equal_choice(raw, depth, count, seed):
    """Every index ``path_chunks`` draws is ``Generator.choice``'s, value for
    value, over 1-300 atoms (both index dtypes and both search routes), tiny
    weights, several chunks and uniform blocks split across rows."""
    total = math.fsum(raw)
    m = rr.build_measure([(2.0, float(j), w / total) for j, w in enumerate(raw)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pp, "CHUNK_ELEMS", 50_000)
        chunks = list(pp.path_chunks(m, depth, count, pp.generator(seed)))
    idx = np.concatenate([idx for _, idx in chunks])
    assert idx.dtype == np.min_scalar_type(len(raw) - 1)
    assert np.array_equal(idx, pp.generator(seed).choice(len(raw), size=(count, depth), p=m.weights))


def _traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestSamplerMemory:
    """Traced peak allocations: the draws go through block-sized buffers."""

    @pytest.mark.parametrize("call", [
        lambda: rr.draw_backward(rr.build_measure(README), 40, 100_000, 3),
        lambda: rr.draw_forward(rr.build_measure(EXPANSIVE), 47, 100_000, 3),
        lambda: rr.estimate_charfn(rr.build_measure(EXPANSIVE), rr.symmetric_grid(10.0, 201),
                                   100_000, rng_seed=3),
    ], ids=["backward-readme", "forward-expansive", "charfn-expansive"])
    def test_cli_sized_draws_peak_below_8_mib(self, call):
        # 77.1 and 46.9 MiB when whole chunks of int64 indices were drawn
        assert _traced_peak_mib(call) <= 8.0

    @pytest.mark.parametrize("draw, atoms, parent_mib", [
        (rr.draw_forward, EXPANSIVE, 96.7),
        (rr.draw_backward, [(0.5, 1.0, 0.5), (-0.5, -1.0, 0.5)], 128.0),
    ], ids=["forward", "backward"])
    def test_one_row_longer_than_a_block_stays_bounded(self, draw, atoms, parent_mib):
        # one path of depth 2**22: the uniforms and the gathered indices go in
        # blocks, so only the row's two float64 buffers grow with the depth
        assert _traced_peak_mib(lambda: draw(rr.build_measure(atoms), 2**22, 1, 0)) <= parent_mib


def test_forward_products_past_float_range_warn_nothing():
    # scale 2 passes 1e308 after about 1024 steps; the suite turns a
    # RuntimeWarning into an error, and the terms m / P_k round to 0 as in
    # the oracle
    m = rr.build_measure(EXPANSIVE)
    draws = rr.draw_forward(m, 2000, 500, 5)
    with np.errstate(over="ignore"):
        oracle = _draw_forward_oracle(m, 2000, 500, 5)
    assert draws.tobytes() == oracle.tobytes()
    assert np.all(np.isfinite(draws))


@pytest.mark.parametrize("depth, count", [
    (1, 3000), (7, 3000), (8, 3000), (47, 3000),
    (47, 100_000),  # three chunks of CHUNK_ELEMS // 47 rows
    (200, 20_001),  # three chunks, the last of one row
])
@pytest.mark.parametrize("draw, oracle", [
    (rr.draw_forward, _draw_forward_oracle),
    (rr.draw_backward, _draw_inverted_oracle),
], ids=["forward", "backward"])
def test_draws_match_chunk_oracle_bytes(draw, oracle, depth, count):
    m = rr.build_measure(MIXED)
    assert draw(m, depth, count, 17).tobytes() == oracle(m, depth, count, 17).tobytes()


def _normalised(atoms):
    total = sum(w for _, _, w in atoms)
    return rr.build_measure([(l, m, w / total) for l, m, w in atoms])


_SIGN = st.sampled_from([-1.0, 1.0])
# |l| on both sides of 1 and |m| off the subnormal range, so every term of a
# depth-200 path stays a normal float
_SCALES = st.builds(lambda a, s: s * a, st.floats(0.1, 10.0), _SIGN)
_SHIFTS = st.one_of(st.just(0.0), st.builds(lambda a, s: s * a, st.floats(1e-3, 10.0), _SIGN))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_SCALES, _SHIFTS, st.integers(1, 4)), min_size=1, max_size=4),
    st.integers(1, 200), st.integers(1, 300), st.integers(0, 2**32),
)
def test_backward_draws_within_inversion_bound(atoms, depth, count, seed):
    """Each backward draw, on the same path as the directly summed oracle,
    is within the inversion bound of it."""
    m = _normalised(atoms)
    terms = _backward_terms_oracle(m, depth, count, seed)
    draws = rr.draw_backward(m, depth, count, seed)
    assert draws.tobytes() == _draw_inverted_oracle(m, depth, count, seed).tobytes()
    err = np.abs(draws - _draw_backward_oracle(m, depth, count, seed))
    assert np.all(err <= _inversion_bound(depth, np.abs(terms).sum(axis=1)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-8.0, -2.0, -0.5, -0.125, 0.25, 0.5, 1.0, 2.0, 4.0]),
            st.integers(-64, 64).map(lambda j: j / 16),
            st.integers(1, 4),
        ),
        min_size=1, max_size=4,
    ),
    st.integers(1, 200), st.integers(1, 300), st.integers(0, 2**32),
)
def test_dyadic_backward_draws_keep_the_direct_bytes(atoms, depth, count, seed):
    """Powers of 2 and dyadic shifts make every term exact both ways, so the
    draws keep the directly summed oracle's bytes.  Only the sign of an
    exact zero moves: the oracle negates a +0.0 sum, the forward sum is +0.0."""
    m = _normalised(atoms)
    draws = rr.draw_backward(m, depth, count, seed)
    oracle = _draw_backward_oracle(m, depth, count, seed)
    assert (draws + 0.0).tobytes() == (oracle + 0.0).tobytes()


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

    @pytest.mark.parametrize("which", ["forward", "backward"])
    @pytest.mark.parametrize("atoms,depth", [
        ([(2, 0, 0.5), (2, 1, 0.5)], 8),
        ([(0.5, 0, 0.5), (0.5, -1, 0.5)], 10),
        ([(2, 1, 0.3), (3, -1, 0.3), (0.5, 2, 0.4)], 7),
        ([(2, 0, 0.25), (2, 1, 0.25), (2, 2, 0.25), (2, 3, 0.25)], 6),
        ([(0.5, 1, 0.25), (0.5, -1, 0.75)], 9),
        (MIXED, 7),
    ], ids=["dyadic", "half-dyadic", "mixed-3", "dyadic-4", "skewed", "negative-scale"])
    def test_merged_walk_matches_raw_oracle(self, atoms, depth, which):
        assert_same_law(rr.build_measure(atoms), depth, which)
        if which == "backward":
            assert_backward_law_within_inversion_bound(rr.build_measure(atoms), depth)

    def test_merged_dyadic_law_beyond_raw_cap(self):
        # 4**12 raw paths exceed the cap; the merged forward law is the
        # lattice j / 2**12 on [0, 3) less the two top points
        m = rr.build_measure([(2, 0, 0.25), (2, 1, 0.25), (2, 2, 0.25), (2, 3, 0.25)])
        assert 4 ** 12 > pp.ENUMERATION_CAP
        law = rr.enumerate_paths(m, 12, "forward")
        assert np.array_equal(law.values, np.arange(len(law.values)) / 2.0**12)
        assert len(law.values) == 3 * 2**12 - 2
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-12)

    def test_small_cap_refuses_before_expanding(self, monkeypatch):
        monkeypatch.setattr(pp, "ENUMERATION_CAP", 8)
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        walk = pp.state_walk(m)
        assert [len(next(walk)[0]) for _ in range(3)] == [2, 4, 8]
        with pytest.raises(rr.EnumerationTooLarge, match="8 path states x 2 atoms at depth 4"):
            next(walk)
        with pytest.raises(rr.EnumerationTooLarge):
            rr.enumerate_paths(m, 4, "backward")

    def test_cdf_refuses_nan_and_saturates_at_infinity(self):
        law = rr.enumerate_paths(rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)]), 3, "forward")
        with pytest.raises(ValueError, match="NaN"):
            law.cdf(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            law.cdf([0.0, math.nan])
        assert law.cdf(math.inf) == 1.0
        assert law.cdf(-math.inf) == 0.0

    @pytest.mark.parametrize("atoms, which, message", [
        # a 0 * inf product and inf - inf: a NaN point, and cdf(inf) read 0.99976
        ([(1e-30, 1, 0.5), (1e20, -1, 0.5)], "forward", "3 of 627"),
        # products past 1e308: two infinite points
        ([(1e30, 1, 0.5), (1e-20, -1, 0.5)], "backward", "2 of 705"),
    ], ids=["nan", "inf"])
    def test_nonfinite_support_refused_without_warnings(self, atoms, which, message):
        # the suite turns a RuntimeWarning into an error
        with pytest.raises(ValueError, match=f"{message} path sums are not finite"):
            rr.enumerate_paths(rr.build_measure(atoms), 12, which)

    def test_path_law_counts_nonfinite_values(self):
        with pytest.raises(ValueError, match="2 of 4 path sums are not finite"):
            rr.PathLaw([0.0, math.nan, -math.inf, 1.0], [0.25] * 4, 1)

    @pytest.mark.parametrize("atoms", [
        [(1e-10, 1e300, 1.0)],  # -m/l = -1e310: the draws read -inf
        [(1e-310, 1.0, 0.5), (0.5, 1.0, 0.5)],  # 1/l = 1e310: NaN draws and a warning
    ], ids=["shift-over-scale", "subnormal-scale"])
    def test_backward_refused_without_a_finite_inverse(self, atoms):
        m = rr.build_measure(atoms)
        with pytest.raises(ValueError, match="leaves the float range"):
            rr.draw_backward(m, 3, 4, 1)
        with pytest.raises(ValueError, match="leaves the float range"):
            rr.enumerate_paths(m, 3, "backward")

    @pytest.mark.parametrize("atoms, depth", [
        ([(0.5, 0.37 * i, 0.2) for i in range(5)], 3),
        ([(0.5, 0.37 * i, 1 / 7) for i in range(7)], 5),
    ], ids=["five-atoms", "seven-atoms"])
    def test_cdf_is_one_from_the_top_support_point(self, atoms, depth):
        # the float cumsum of these laws ends at 1 + 4e-16 and 1 - 3.8e-15
        law = rr.enumerate_paths(rr.build_measure(atoms), depth, "backward")
        assert law.cdf(math.inf) == 1.0
        assert law.cdf(law.values[-1]) == 1.0
        below = law.cdf(law.values[:-1])
        assert below.tobytes() == np.cumsum(law.probs)[:-1].tobytes()
        assert np.all(below <= 1.0)

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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-2.0, -0.5, 0.25, 0.5, 2.0, 3.0]),
            st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.5]),
                      st.floats(min_value=-3.0, max_value=3.0)),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=2, max_size=3,
    ),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["forward", "backward"]),
)
def test_merged_walk_matches_raw_oracle_generated(atoms, depth, which):
    assert_same_law(_normalised(atoms), depth, which)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_SCALES, _SHIFTS, st.integers(1, 4)), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=6),
)
def test_backward_law_within_inversion_bound(atoms, depth):
    assert_backward_law_within_inversion_bound(_normalised(atoms), depth)


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

    @pytest.mark.parametrize("xs, affine", [
        (rr.symmetric_grid(10.0, 201), True),
        (np.random.default_rng(3).permutation(rr.symmetric_grid(6.0, 25)), True),
        (np.linspace(-6.0, 6.0, 24), False),  # its |x| fold into 19 uneven values
        (np.array([0.0]), False),
        (np.array([-5.0, -0.5, -2.0, -0.5]), False),
        (np.array([-3.0, 2.0]), True),
    ], ids=["symmetric", "shuffled", "even-linspace", "zero", "negative-only", "mixed-sign"])
    @pytest.mark.parametrize("samples", [1, 20_000])
    def test_half_grid_matches_full_grid_oracle_bytes(self, xs, affine, samples):
        """Byte-equal to the direct phase matrix off the phase recurrence; on
        an affine |x| set the recurrence adds only a few ulps per row.  A
        contractive measure draws the backward iterate, which is the forward
        series of its inverted atoms."""
        expansive = rr.build_measure([(2.0, 0.0, 0.5), (3.0, 1.0, 0.3), (-2.0, -0.5, 0.2)])
        contractive = rr.build_measure([(0.5, 0.0, 0.5), (0.25, 1.0, 0.3), (-0.5, -0.5, 0.2)])
        for m, drawn in ((expansive, expansive), (contractive, pp._inverted(contractive))):
            est = rr.estimate_charfn(m, xs, samples, rng_seed=9)
            values, stderr = _charfn_full_grid_oracle(drawn, xs, samples, est.depth, 9)
            assert est.charfn_x.tobytes() == xs.tobytes()
            if affine:
                assert np.max(np.abs(est.charfn_values - values)) <= 1e-14
                np.testing.assert_allclose(est.charfn_stderr, stderr, rtol=1e-13, atol=0.0)
            else:
                assert est.charfn_values.tobytes() == values.tobytes()
                assert est.charfn_stderr.tobytes() == stderr.tobytes()
            assert np.all(est.charfn_stderr[xs == 0.0] == 0.0)
            if samples == 1:
                assert np.all(est.charfn_stderr == 0.0)

    def test_affine_grid_takes_recurrence_bytes(self):
        xs = rr.symmetric_grid(4.0, 9)
        m = rr.build_measure([(2.0, 0.0, 0.5), (3.0, 1.0, 0.3), (-2.0, -0.5, 0.2)])
        est = rr.estimate_charfn(m, xs, 3000, rng_seed=4)
        z = pp.draw_forward(m, est.depth, 3000, 4)
        rows = [np.exp(1j * (0.0 * z))]
        for _ in range(4):
            rows.append(rows[-1] * np.exp(1j * (1.0 * z)))
        values = np.array([row.mean() for row in rows])
        assert est.charfn_values[4:].tobytes() == values.tobytes()

    @pytest.mark.parametrize("mirror_too", [False, True], ids=["one-node", "mirror-pair"])
    def test_perturbed_node_takes_direct_route_bytes(self, mirror_too):
        xs = rr.symmetric_grid(10.0, 201)
        xs[150] += 1e-9  # far above the affine test's 4 ulps
        if mirror_too:  # the same 101 distinct |x|, one of them off the line
            xs[50] -= 1e-9
        m = rr.build_measure([(2.0, 0.0, 0.5), (3.0, 1.0, 0.3), (-2.0, -0.5, 0.2)])
        est = rr.estimate_charfn(m, xs, 3000, rng_seed=4)
        values, stderr = _charfn_full_grid_oracle(m, xs, 3000, est.depth, 4)
        assert est.charfn_values.tobytes() == values.tobytes()
        assert est.charfn_stderr.tobytes() == stderr.tobytes()

    @pytest.mark.parametrize("xs", [[1.0, np.nan], [np.inf], [-np.inf, 0.0]])
    def test_nonfinite_frequency_refused(self, xs):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        with pytest.raises(ValueError, match="finite"):
            rr.estimate_charfn(m, xs, 100)

    def test_empty_grid_gives_empty_arrays(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        est = rr.estimate_charfn(m, [], 100)
        assert est.charfn_values.shape == est.charfn_stderr.shape == (0,)

    def test_modulus_bound(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        est = rr.estimate_charfn(m, np.linspace(-20, 20, 41), 5000, rng_seed=3)
        assert np.all(np.abs(est.charfn_values) <= 1.0 + 3 * est.charfn_stderr + 1e-12)

    def test_regime_gate_and_override(self):
        # the regime picks the law: the README map's contractive limit is the
        # point mass at -2, drawn at the backward depth rule; a given depth
        # overrides the rule
        contractive = rr.build_measure(README)
        xs = np.array([1.0, 3.0])
        est = rr.estimate_charfn(contractive, xs, 100, rng_seed=1)
        assert est.depth == math.ceil(math.log(1e-12) / math.log(0.5))
        assert np.max(np.abs(est.charfn_values - np.exp(-2j * xs))) <= 1e-11
        assert np.all(est.charfn_stderr <= 1e-15)  # equal draws: only the mean's rounding
        est = rr.estimate_charfn(contractive, [1.0], 100, depth=5, rng_seed=1)
        z = pp.draw_backward(contractive, 5, 100, 1)
        assert est.depth == 5
        assert est.charfn_values[0] == np.exp(1j * z).mean()

    def test_critical_override_flagged(self):
        # E log|L| = 0 leaves no limit law: both estimates refuse by name, as
        # the solver does, and no keyword overrides the refusal
        critical = rr.build_measure([(-1, 2, 0.5), (1, 0, 0.5)])
        for estimate in (rr.estimate_charfn, rr.estimate_cdf):
            with pytest.raises(rr.CriticalRegime, match="no limit law"):
                estimate(critical, [1.0], 100, depth=8)
            with pytest.raises(TypeError):
                estimate(critical, [1.0], 100, depth=8, allow_divergent=True)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([
        [(2.0, 0.0, 0.5), (3.0, 1.0, 0.3), (-2.0, -0.5, 0.2)],
        [(1.5, 40.0, 0.5), (2.5, -7.0, 0.5)],
    ]),
    st.integers(0, 10**4), st.integers(1, 10**4), st.integers(0, 20),
    st.integers(1, 300), st.integers(1, 5000), st.integers(0, 2**32),
)
def test_affine_recurrence_within_rounding_bound(atoms, a, b, e, k, samples, seed):
    """On the affine grid ``x_j = (a + j b) / 2**e`` (exact in floats) the
    recurrence's values are within ``(max|x| max|z| + 8k) eps`` of the direct
    phase means: the phase roundings of both routes plus a few ulps a row."""
    m = rr.build_measure(atoms)
    xs = (a + b * np.arange(k)) / 2.0**e
    est = rr.estimate_charfn(m, xs, samples, rng_seed=seed)
    values, _ = _charfn_full_grid_oracle(m, xs, samples, est.depth, seed)
    z = pp.draw_forward(m, est.depth, samples, seed)
    bound = (xs.max() * np.abs(z).max() + 8 * k) * np.finfo(float).eps
    assert np.max(np.abs(est.charfn_values - values)) <= bound


# Powers of 2 and dyadic shifts keep every path sum exact in both directions,
# so each draw is a support point of the exact law.
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-4.0, -2.0, -0.5, -0.25, 0.25, 0.5, 2.0, 4.0]),
            st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.5]),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=2, max_size=3,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(0, 2**32),
)
def test_estimates_follow_the_exact_law_of_the_regime(atoms, depth, seed):
    """Both estimates of either regime against the exact law of its
    direction: the charfn within 5 standard errors, and the CDF within 5
    binomial standard errors where that normal bound applies (F in
    [0.01, 0.99]) and exactly where F is 0 or 1."""
    m = _normalised(atoms)
    regime = rr.classify_regime(m).regime
    assume(regime is not rr.Regime.CRITICAL)
    law = rr.enumerate_paths(m, depth, "forward" if regime is rr.Regime.LOG_EXPANSIVE
                             else "backward")
    n = 4000
    xs = np.linspace(-3.0, 3.0, 13)
    est = rr.estimate_charfn(m, xs, n, depth=depth, rng_seed=seed)
    exact = np.exp(1j * np.multiply.outer(xs, law.values)) @ law.probs
    assert np.all(np.abs(est.charfn_values - exact) <= 5 * est.charfn_stderr + 1e-12)

    ts = np.concatenate([[law.values[0] - 1.0], law.values, law.values[-1:] + 1.0])
    phi = law.cdf(ts)
    keep = (phi == 0.0) | (phi == 1.0) | ((phi >= 0.01) & (phi <= 0.99))
    est = rr.estimate_cdf(m, ts[keep], n, depth=depth, rng_seed=seed)
    slack = 5 * np.sqrt(phi[keep] * (1.0 - phi[keep]) / n) + 1e-12
    assert np.all(np.abs(est.cdf_values - phi[keep]) <= slack)


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

    def test_expansive_cdf_is_the_forward_law(self):
        m = rr.build_measure(EXPANSIVE)
        ts = np.linspace(-1.5, 1.5, 301)
        est = rr.estimate_cdf(m, ts, 5000, rng_seed=5)
        depth = pp.forward_truncation_depth(m)
        z = np.sort(pp.draw_forward(m, depth, 5000, 5))
        assert est.depth == depth
        assert est.cdf_values.tobytes() == (np.searchsorted(z, ts, "right") / 5000).tobytes()

    @pytest.mark.parametrize("ts", [[0.0, np.nan], [np.inf], [-np.inf, 0.0]])
    def test_nonfinite_point_refused(self, ts):
        # a NaN point read phi = 1
        m = rr.build_measure([(0.5, 1, 1.0)])
        with pytest.raises(ValueError, match="t_grid must be finite"):
            rr.estimate_cdf(m, ts, 100)

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
        depth = pp.forward_truncation_depth(m)
        assert 2.0 ** -depth <= 1e-14
        assert depth <= 60

    def test_zero_shift_short_circuit(self):
        m = rr.build_measure([(2, 0, 1.0)])
        assert pp.forward_truncation_depth(m) == 1

    def test_mixed_scales_capped(self):
        m = rr.build_measure([(2, 1, 0.5), (0.5, 1, 0.25), (8, 0, 0.25)])
        assert pp.forward_truncation_depth(m) == 500
