from fractions import Fraction
from functools import lru_cache

import pytest

from allowseq.errors import ContractError
from allowseq.planner import (RecurrenceTable, SizePlan, alpha_closed,
                              balance_ratio_bounds, beta_closed,
                              check_claim_monotonicity, plan_sizes,
                              ratio_at_least, shift_thresholds)


def test_shift_thresholds_small():
    assert shift_thresholds(0) == [0]
    assert shift_thresholds(1) == [0, 2, 8]
    assert shift_thresholds(2) == [0, 2, 8, 22, 52]


def test_thresholds_stay_under_powers():
    for t in range(21):
        ns = shift_thresholds(t)
        assert len(ns) == 2 * t + 1
        for j, n in enumerate(ns):
            assert n <= 3**j
        assert ns[-1] <= 3 ** (2 * t)


def test_alpha_beta_entries():
    tb = plan_sizes(1, 81, 2, 1)
    assert tb.alpha[0] == 15           # T + 4t + 2
    assert tb.beta[0] == 0
    assert tb.beta[1] == Fraction(81, 27) == 3
    assert tb.alpha[1] == 81 * 15 + 2 * 9 + 81
    assert tb.beta[2] == 81 * 3 + Fraction(81**2, 27)
    # closed forms agree with the recurrence everywhere stored
    for i in range(len(tb.alpha)):
        assert tb.alpha[i] == alpha_closed(1, 9, 81, i)
        assert tb.beta[i] == beta_closed(9, 81, i)


def test_plan_rejects_bad_domains():
    with pytest.raises(ContractError):
        plan_sizes(-1, 9, 1, 1)
    with pytest.raises(ContractError):
        plan_sizes(0, 0, 1, 1)
    with pytest.raises(ContractError):     # the closed forms divide by d - 1
        plan_sizes(0, 1, 1, 1)
    with pytest.raises(ContractError):
        plan_sizes(0, 9, 1, 0)


def test_size_recurrences_match_table():
    plan = SizePlan(0, 9)
    assert plan.x(1, 0) == 2 and plan.y(1, 0) == 5
    assert plan.x(1, 1) == 30 and plan.y(1, 1) == 68
    tb = plan_sizes(0, 9, 1, 1)
    assert (tb.x_exact, tb.y_exact) == (30, 68)
    tb3 = plan_sizes(0, 9, 3, 1)
    assert (tb3.x_exact, tb3.y_exact) == (plan.x(1, 3), plan.y(1, 3))
    assert tb3.x_exact <= tb3.x_bound == 10 * 9**7
    assert tb3.p_values == tuple((9**j - 1) // 3 for j in (1, 2, 3))


def test_size_plan_matches_recursive_definition():
    for (t, d) in ((0, 9), (0, 10), (1, 81)):
        T = 3 ** (2 * t)
        unit = T + 4 * t + 2

        def p(k):
            return (d**k - T) // unit

        @lru_cache(maxsize=None)
        def x(n, k):
            if k == 0:
                return n + 1
            return d * x(n + 1, k - 1) + p(k) + 2 * t + 1

        @lru_cache(maxsize=None)
        def y(n, k):
            if k == 0:
                return T + 4 * t + 3 + n
            m = d ** (k - 1)
            return d * y(n + 1, k - 1) + m * (T + d + 4 * t + 2) + p(k)

        plan = SizePlan(t, d)
        for k in range(5):
            for n in (1, 2, 3, 7):
                assert (plan.x(n, k), plan.y(n, k)) == (x(n, k), y(n, k))
                M = t + max(x(n, k), y(n, k)) + 1
                assert plan.cells(n, k) == 2 * M + 1
            assert plan.p(k) == p(k)


def test_size_plan_deep_k_without_recursion():
    plan = SizePlan(0, 9)
    tb = plan_sizes(0, 9, 2000, 1)
    assert (plan.x(1, 2000), plan.y(1, 2000)) == (tb.x_exact, tb.y_exact)
    assert tb.p_values[-1] == plan.p(2000)


def test_size_plan_negatives_laid():
    plan = SizePlan(0, 9)
    assert [plan.p(j) for j in (1, 2)] == [2, 26]
    assert [plan.laid(k) for k in range(3)] == [0, 2, 9 * 2 + 26]


def test_bounds_enclose_ratio():
    for (t, d, k) in ((0, 9, 1), (0, 9, 5), (1, 81, 3), (1, 100, 7)):
        T = 3 ** (2 * t)
        lo, hi = balance_ratio_bounds(t, T, d, k)
        exact = Fraction(beta_closed(T, d, k), alpha_closed(t, T, d, k))
        assert lo <= exact <= hi


def test_gate_certification_headline_parameters():
    for t in (0, 1, 2):
        T = 3 ** (2 * t)
        d = 100 * T**3
        tb = plan_sizes(t, d, d, 1)
        assert tb.gate_ok
        assert tb.balance_ratio_at_least(3 * T + 1)


def test_gate_failure_small_parameters():
    tb = plan_sizes(0, 9, 1, 1)
    assert not tb.gate_ok
    assert tb.ratio == Fraction(3, 38)


def test_gate_comparison_past_the_enclosure():
    # At (0, 9, 2) the enclosure brackets beta/alpha = 6/41 on both sides,
    # so both bounds below are decided by the exact comparison alone.
    tb = plan_sizes(0, 9, 2, 1)
    exact = Fraction(beta_closed(1, 9, 2), alpha_closed(0, 1, 9, 2))
    lower, upper = tb.ratio_bounds
    for bound, expected in ((exact, True), ((exact + upper) / 2, False)):
        assert lower < bound < upper
        assert (exact >= bound) is expected
        assert tb.balance_ratio_at_least(bound) is expected


def test_claim_monotonicity():
    for (t, d) in ((0, 9), (1, 81), (1, 100 * 9**3)):
        ok, counterexample = check_claim_monotonicity(t, d, 200)
        assert ok, counterexample
    # the lower inequality at l = 0 is the beta_0 = 0 base case
    tb = plan_sizes(1, 81, 1, 1)
    assert tb.beta[1] / tb.alpha[1] > 0


def test_claim_needs_valid_T():
    with pytest.raises(ContractError):
        check_claim_monotonicity(-1, 45, 10)
    with pytest.raises(ContractError):
        check_claim_monotonicity(1, 80, 10)


def test_k_equals_d_lower_bound_for_positive_t():
    # beta_d/alpha_d >= d / (18 T^2), exact, for window parameters >= 1
    for (t, d) in ((1, 81), (1, 100 * 9**3), (1, 200), (2, 9 * 81)):
        T = 3 ** (2 * t)
        assert ratio_at_least(t, d, d, Fraction(d, 18 * T * T))


def test_k_equals_d_bound_fails_at_t_zero():
    # the bound's derivation needs t >= 1; at t = 0 the exact ratio at
    # (T, d) = (1, 9), k = d falls just short of d/(18 T^2) = 1/2
    r = Fraction(beta_closed(1, 9, 9), alpha_closed(0, 1, 9, 9))
    assert r < Fraction(1, 2)
    assert not ratio_at_least(0, 9, 9, Fraction(1, 2))


def test_table_text_round():
    tb = plan_sizes(1, 81, 1, 1)
    text = tb.to_text()
    assert text.startswith("plan t=1 T=9 d=81 k=1 n=1")
    assert "gate_ok=False" in text
    huge = plan_sizes(2, 100 * 81**3, 100 * 81**3, 1)
    text = huge.to_text()
    assert "ratio_lower=" in text and "gate_ok=True" in text
