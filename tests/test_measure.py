import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randrefine as rr
from randrefine.measure import FIXED_POINT_RTOL


def brute_force_fixed_point_scan(measure):
    """Independent oracle for the shared-fixed-point condition: try every
    candidate c = m_i/(1 - l_i) plus c = 0 against all atoms."""
    candidates = [0.0]
    for l, m, _ in measure.atoms:
        if l != 1.0:
            candidates.append(m / (1.0 - l))

    def matches(c):
        for l, m, _ in measure.atoms:
            target = c * (1.0 - l)
            scale = max(1.0, abs(m), abs(c) * (1.0 + abs(l)))
            if abs(m - target) > FIXED_POINT_RTOL * scale:
                return False
        return True

    for c in candidates:
        if matches(c):
            return False, c
    return True, None


class TestBuildMeasure:
    def test_two_atoms(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        assert m.atoms == ((2.0, 0.0, 0.5), (2.0, 1.0, 0.5))

    def test_duplicates_merge(self):
        m = rr.build_measure([(1, 0, 0.3), (1, 0, 0.7)])
        assert m.atoms == ((1.0, 0.0, 1.0),)

    def test_zero_scale_rejected(self):
        with pytest.raises(rr.ZeroScaleAtom):
            rr.build_measure([(0, 1, 1.0)])

    @pytest.mark.parametrize("atom", [
        (math.nan, 1, 1.0), (math.inf, 1, 1.0), (-math.inf, 1, 1.0),
        (2, math.nan, 1.0), (2, math.inf, 1.0), (0.5, -math.inf, 1.0),
    ])
    def test_nonfinite_scale_or_shift_rejected(self, atom):
        with pytest.raises(rr.InvalidMeasure):
            rr.build_measure([atom])

    def test_empty_rejected(self):
        with pytest.raises(rr.EmptyMeasure):
            rr.build_measure([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(rr.NonPositiveWeight):
            rr.build_measure([(1, 0, 0.0), (2, 0, 1.0)])

    def test_unnormalized_rejected(self):
        with pytest.raises(rr.WeightsNotNormalized):
            rr.build_measure([(1, 0, 0.5), (2, 0, 0.4)])

    def test_tiny_deviation_renormalized(self):
        m = rr.build_measure([(1, 0, 0.5 + 4e-13), (2, 0, 0.5)])
        assert math.fsum(m.weights) == pytest.approx(1.0, abs=1e-15)

    def test_json_round_trip(self):
        m = rr.build_measure([(0.5, -1, 0.25), (2, 3, 0.75)])
        again = rr.measure_from_json(m.to_json())
        assert again.atoms == m.atoms


class TestMoments:
    def test_reflection_measure_log_zero(self):
        m = rr.build_measure([(-1, 0, 0.5), (1, 0, 0.5)])
        assert rr.classify_regime(m).mean_log_scale == 0.0

    def test_deterministic_doubling(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        assert rr.classify_regime(m).mean_log_scale == pytest.approx(math.log(2), abs=1e-15)

    def test_halving(self):
        m = rr.build_measure([(0.5, 0, 0.5), (0.5, 1, 0.5)])
        mom = rr.classify_regime(m)
        assert mom.mean_scale == 0.5
        assert mom.mean_log_scale == pytest.approx(-math.log(2), abs=1e-15)

    def test_unit_modulus_scales_exactly_zero(self):
        m = rr.build_measure([(-1, 2, 0.25), (1, 5, 0.75)])
        assert rr.classify_regime(m).mean_log_scale == 0.0


class TestNoCommonFixedPoint:
    def test_reflection_with_shift_fails_witness_one(self):
        m = rr.build_measure([(-1, 2, 0.5), (1, 0, 0.5)])
        holds, witness = rr.check_no_common_fixed_point(m)
        assert not holds
        assert witness == 1.0

    def test_doubling_pair_holds(self):
        m = rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)])
        holds, witness = rr.check_no_common_fixed_point(m)
        assert holds and witness is None

    def test_identity_map_fails_with_zero_witness(self):
        m = rr.build_measure([(1, 0, 1.0)])
        holds, witness = rr.check_no_common_fixed_point(m)
        assert not holds
        assert witness == 0.0

    def test_matches_brute_force_on_engineered_corpus(self):
        rng = np.random.default_rng(20240817)
        dyadic_scales = [-2.0, -1.0, -0.5, 0.5, 2.0, 4.0]
        dyadic_cs = [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]
        for _ in range(200):
            if rng.random() < 0.5:
                # engineered to fail: all atoms share the fixed structure
                c = float(rng.choice(dyadic_cs))
                ls = rng.choice(dyadic_scales, size=3)
                atoms = [(l, c * (1.0 - l), 1.0 / 3.0) for l in ls]
            else:
                ls = rng.uniform(0.3, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
                ms = rng.uniform(-2.0, 2.0, 3)
                ps = rng.uniform(0.1, 1.0, 3)
                ps = ps / ps.sum()
                atoms = list(zip(ls, ms, ps))
            m = rr.build_measure(atoms)
            expected_holds, _ = brute_force_fixed_point_scan(m)
            holds, witness = rr.check_no_common_fixed_point(m)
            assert holds == expected_holds
            if not holds:
                # the returned witness must itself satisfy every atom
                for l, mm, _ in m.atoms:
                    scale = max(1.0, abs(mm), abs(witness) * (1.0 + abs(l)))
                    assert abs(mm - witness * (1.0 - l)) <= FIXED_POINT_RTOL * scale


class TestClassifyRegime:
    def test_reflection_is_critical_and_degenerate(self):
        rep = rr.classify_regime(rr.build_measure([(-1, 0, 0.5), (1, 0, 0.5)]))
        assert rep.regime is rr.Regime.CRITICAL
        assert rep.shift_degenerate

    def test_doubling_is_expansive_nondegenerate(self):
        rep = rr.classify_regime(rr.build_measure([(2, 0, 0.5), (2, 1, 0.5)]))
        assert rep.regime is rr.Regime.LOG_EXPANSIVE
        assert rep.shift_nondegenerate
        assert rep.forward_series_condition

    def test_halving_is_contractive_and_mean_contractive(self):
        rep = rr.classify_regime(rr.build_measure([(0.5, 1, 1.0)]))
        assert rep.regime is rr.Regime.LOG_CONTRACTIVE
        assert rep.mean_contractive
        assert rep.scales_positive

    def test_exactly_one_regime(self):
        measures = [
            [(2, 0, 1.0)],
            [(0.5, 0, 1.0)],
            [(-1, 0, 0.5), (1, 1, 0.5)],
            [(2, 0, 0.5), (0.5, 0, 0.5)],
            [(3, 1, 0.25), (0.25, 0, 0.75)],
        ]
        for atoms in measures:
            rep = rr.classify_regime(rr.build_measure(atoms))
            assert rep.regime in (
                rr.Regime.LOG_EXPANSIVE, rr.Regime.LOG_CONTRACTIVE, rr.Regime.CRITICAL
            )

    def test_reciprocal_pairs_detected_critical(self):
        rep = rr.classify_regime(rr.build_measure([(2, 0, 0.5), (0.5, 1, 0.5)]))
        assert rep.regime is rr.Regime.CRITICAL

    def test_no_fixed_point_implies_shift_nondegenerate(self):
        # taking c = 0 in the fixed-point condition gives exactly the
        # shift-degeneracy test, so the implication must hold on any corpus
        rng = np.random.default_rng(7)
        for _ in range(100):
            ls = rng.uniform(0.3, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            ms = rng.choice([0.0, 0.0, 1.0, -0.5], 2)
            m = rr.build_measure([(ls[0], ms[0], 0.5), (ls[1], ms[1], 0.5)])
            rep = rr.classify_regime(m)
            if rep.no_common_fixed_point:
                assert rep.shift_nondegenerate


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]),
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_build_measure_properties(raw):
    total = math.fsum(p for _, _, p in raw)
    atoms = [(l, m, p / total) for l, m, p in raw]
    m = rr.build_measure(atoms)
    assert abs(math.fsum(m.weights) - 1.0) <= 1e-12
    assert all(p > 0 for p in m.weights)
    assert len({(l, mm) for l, mm, _ in m.atoms}) == len(m.atoms)
    # idempotent up to weight rounding: rebuilding keeps the atom keys and
    # moves weights by at most one ulp of renormalization
    again = rr.build_measure(m.atoms)
    assert [(l, mm) for l, mm, _ in again.atoms] == [(l, mm) for l, mm, _ in m.atoms]
    assert np.allclose(again.weights, m.weights, rtol=5e-16, atol=0.0)
    holds, witness = rr.check_no_common_fixed_point(m)
    expected_holds, _ = brute_force_fixed_point_scan(m)
    assert holds == expected_holds
