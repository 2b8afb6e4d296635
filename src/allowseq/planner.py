"""Exact arithmetic for the construction's recurrences.

Everything here is integer or Fraction arithmetic; nothing is ever
floated.  The recurrences:

  alpha_0 = T + 4t + 2            alpha_{i+1} = d*alpha_i + 2*T*d^i + d
  beta_0  = 0                     beta_{i+1}  = d*beta_i + d^{i+1}/(3T)
  alpha'_l = 2*d^l*T + d          beta'_l     = d^{l+1}/(3T)

with T = 3^(2t), closed forms

  alpha_k = alpha_0*d^k + 2*T*k*d^(k-1) + d*(d^k - 1)/(d - 1)
  beta_k  = k*d^k/(3T)

and the shifting thresholds N_t = 0, N_k = 2*(N_{k+1} + t - k).

The materialization sizes follow

  x(n, 0) = n + 1                  y(n, 0) = T + 4t + 3 + n
  x(n, k) = d*x(n+1, k-1) + p_k + 2t + 1
  y(n, k) = d*y(n+1, k-1) + m_k*(T + d + 4t + 2) + p_k

with m_k = d^(k-1) and p_k = floor((d^k - T) / (T + 4t + 2)).

The recursive step lays down exactly laid_k negatives in its B region:

  laid_0 = 0                       laid_k = d*laid_{k-1} + p_k

This reaches beta_k whenever p_j >= d^j/(3T) at every level j <= k, since
beta_k = d*beta_{k-1} + d^k/(3T).  Writing u = T + 4t + 2, a sufficient
condition is m*d*(2T - 4t - 2) >= 3T*(2T + 4t + 2) with m*d = d^j; it holds
for every t >= 1 with d >= 9T, because 9^t >= 4t + 2.  At t = 0 the unit u
equals 3T, so p_j = floor((d^j - 1)/3) < d^j/3 at every level and laid_k
falls short of beta_k for every d and k >= 1 (by (d^k - 1)/(d - 1) when
3 divides d).  The t = 0 balance gate of plan_sizes therefore certifies a
ratio beta_k/alpha_k that the t = 0 step itself does not reach, and
full_construction checks laid_k against beta_k before it builds anything.

For parameter points where d^k would have thousands of digits the planner
still certifies the balance-ratio gate beta_k/alpha_k >= 3T + 1 through
rigorous two-sided bounds obtained by dropping the vanishing d^(1-k) term
of the closed form.

`SizePlan` alone evaluates x, y, p and laid; `_alpha_beta` alone loops
over the alpha/beta recurrence; `RecurrenceTable.balance_ratio_at_least`
alone decides the gate; and `require_cells` is the one refusal of a
materialization above the cell budget, MAX_CELLS unless the caller names
another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from typing import Optional

from .errors import ContractError, RefusalError
from .seqcore import Value

# Exact ratios and sizes are kept only while the powers of d behind them
# stay within this many decimal digits, so no astronomic integer is built;
# it sits below Python's 4300-digit limit on int-to-str conversion, with
# room for the factors around the powers, so `to_text` can print them.
_DIGIT_LIMIT = 4000
# The default cell budget of a materialization.
MAX_CELLS = 10**8
_ENTRY_CAP = 512
_SHOWN_ENTRIES = 12


def shift_thresholds(t: int) -> list:
    """Minimum middle-block sizes for the shifting recursion, indexed from
    level t down to level -t (list position 0 is level t)."""
    ns = [0]
    for k in range(t - 1, -t - 1, -1):
        ns.append(2 * (ns[-1] + t - k))
    return ns


def alpha_closed(t: int, T: int, d: int, k: int) -> int:
    a0 = T + 4 * t + 2
    if k == 0:
        return a0
    return a0 * d**k + 2 * T * k * d ** (k - 1) + d * (d**k - 1) // (d - 1)


def beta_closed(T: int, d: int, k: int) -> Fraction:
    return Fraction(k * d**k, 3 * T)


def alpha_prime(T: int, d: int, l: int) -> int:
    return 2 * d**l * T + d

def beta_prime(T: int, d: int, l: int) -> Fraction:
    return Fraction(d ** (l + 1), 3 * T)


def balance_ratio_bounds(t: int, T: int, d: int, k: int) -> tuple:
    """Rigorous (lower, upper) bounds on beta_k/alpha_k as small Fractions.

    beta_k/alpha_k = (k*d/(3T)) / (a0*d + 2*T*k + d*(d - d^(1-k))/(d-1)),
    and 1 <= (d - d^(1-k))/(d-1) <= d/(d-1) for k >= 1.
    """
    if k < 1:
        return Fraction(0), Fraction(0)
    a0 = T + 4 * t + 2
    num = Fraction(k * d, 3 * T)
    lower = num / (a0 * d + 2 * T * k + Fraction(d * d, d - 1))
    upper = num / (a0 * d + 2 * T * k + d)
    return lower, upper


def _alpha_beta(t: int, T: int, d: int):
    """Yield (alpha_i, beta_i) for i = 0, 1, 2, ... by the recurrence."""
    a = T + 4 * t + 2
    b = Fraction(0)
    for i in count():
        yield a, b
        a = d * a + 2 * T * d**i + d
        b = d * b + Fraction(d ** (i + 1), 3 * T)


def ratio_at_least(t: int, d: int, k: int, bound) -> bool:
    """Decide beta_k/alpha_k >= bound by cross-multiplying unreduced
    integers, so no gcd ever runs on the big powers."""
    T = 3 ** (2 * t)
    bound = Fraction(bound)
    # beta_k = k*d^k / (3T); compare k*d^k * bound.den >= 3T * alpha_k * bound.num
    lhs = k * d**k * bound.denominator
    rhs = 3 * T * alpha_closed(t, T, d, k) * bound.numerator
    return lhs >= rhs


class RecurrenceTable(Value):
    """Exact evaluations of the construction's recurrences for (t, d, k, n)
    and T = 3^(2t).

    `alpha`, `beta`, `alpha_p`, `beta_p` hold entries for i = 0..min(k, cap);
    `shift_min` holds N at levels t, t-1, ..., -t.  `ratio` is
    beta_k/alpha_k when exactly representable, else None with
    `ratio_bounds` carrying rigorous (lower, upper) enclosures.
    `x_exact`/`y_exact` are the materialization sizes, `x_bound`/`y_bound`
    their bound 10*d^(2k+1)*n, and `cells` the size of the step instance's
    domain that holds them, each None when not computable; `p_values`
    holds p_1..p_k when the sizes are exact.
    """

    # "__dict__" holds the cached gate_ok.
    __slots__ = ("t", "T", "d", "k", "n", "alpha", "beta", "alpha_p",
                 "beta_p", "shift_min", "ratio", "ratio_bounds", "x_exact",
                 "y_exact", "x_bound", "y_bound", "cells", "p_values",
                 "__dict__")

    @property
    def gate_threshold(self) -> int:
        return 3 * self.T + 1

    @cached_property
    def gate_ok(self) -> bool:
        """The balance gate beta_k/alpha_k >= 3T + 1."""
        return self.balance_ratio_at_least(self.gate_threshold)

    def balance_ratio_at_least(self, bound) -> bool:
        """Decide beta_k/alpha_k >= bound = p/q by `ratio` when held, else
        by the enclosure, else by its lower bound where that is exact.

        Over d^(k-1), ratio = N/(A - e) and lower = N/A, for N = kd/(3T),
        A = a0*d + 2Tk + d^2/(d-1) and e = d^(2-k)/(d-1).  With p, q > 0,
        I = q*k*d*(d-1) - 3T*p*A*(d-1) is an integer, ratio >= p/q iff
        I >= -3T*p*d^(2-k), and lower >= p/q iff I >= 0: the two agree
        when 3T*p < d^(k-2), shown on bit lengths as d >= 2^(bits(d)-1).
        Only elsewhere does `ratio_at_least` build the powers of d."""
        bound = Fraction(bound)
        if self.ratio is not None:
            return self.ratio >= bound
        lower, upper = self.ratio_bounds
        if lower >= bound:
            return True
        k, d = self.k, self.d
        if upper < bound or (3 * self.T * bound.numerator).bit_length() \
                <= (k - 2) * (d.bit_length() - 1):
            return False
        return ratio_at_least(self.t, d, k, bound)

    def to_text(self) -> str:
        lines = [f"plan t={self.t} T={self.T} d={self.d} k={self.k} n={self.n}"]
        for j, nv in enumerate(self.shift_min):
            lines.append(f"N level={self.t - j} value={nv}")
        shown = min(len(self.alpha), _SHOWN_ENTRIES + 1)
        for i in range(shown):
            lines.append(
                f"i={i} alpha={_shown(self.alpha[i])} "
                f"beta={_shown(self.beta[i])} "
                f"alpha'={_shown(self.alpha_p[i])} "
                f"beta'={_shown(self.beta_p[i])}"
            )
        if shown < len(self.alpha):
            lines.append(f"... ({len(self.alpha) - shown} more entries held)")
        if self.ratio is not None:
            lines.append(f"ratio={_shown(self.ratio)}")
        else:
            lo, hi = self.ratio_bounds
            lines.append(f"ratio_lower={_shown(lo)} ratio_upper={_shown(hi)}")
        lines.append(f"gate_threshold={self.gate_threshold} gate_ok={self.gate_ok}")
        if self.x_exact is not None:
            lines.append(f"x={self.x_exact} y={self.y_exact} cells={self.cells}")
        if self.x_bound is not None:
            lines.append(f"x_bound={self.x_bound} y_bound={self.y_bound}")
        return "\n".join(lines) + "\n"


def require_cells(cells: Optional[int], limit: int) -> None:
    """Raise RefusalError unless the cell count is known and <= limit."""
    if cells is None or cells > limit:
        raise RefusalError(f"materialization needs "
                           f"{cells or 'astronomical'} cells (limit {limit})")


def _shown(v) -> str:
    """An int or Fraction as text, with each integer of more than
    _DIGIT_LIMIT digits shown as its digit count."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return _shown(v.numerator)
        return f"{_shown(v.numerator)}/{_shown(v.denominator)}"
    digits = max(1, int(v.bit_length() * math.log10(2)))
    while 10 ** digits <= abs(v):
        digits += 1
    return str(v) if digits <= _DIGIT_LIMIT else f"<{digits} digits>"


def _fits(d: int, e: int, n: int = 1) -> bool:
    """Whether n*d^e, never built, has at most _DIGIT_LIMIT digits."""
    return e * math.log10(d) + math.log10(n) <= _DIGIT_LIMIT


def plan_sizes(t: int, d: int, k: int, n: int) -> RecurrenceTable:
    """Evaluate every recurrence for the given parameters, exactly where
    feasible and through rigorous bounds otherwise."""
    if t < 0 or d < 2 or k < 0 or n < 1:
        raise ContractError("need t >= 0, d >= 2, k >= 0, n >= 1")
    T = 3 ** (2 * t)
    ns = shift_thresholds(t)
    if ns[-1] > T:
        raise ContractError("shifting threshold exceeded 3^(2t)")

    cap = min(k, _ENTRY_CAP)
    alphas, betas = zip(*islice(_alpha_beta(t, T, d), cap + 1))

    ratio = None
    bounds = balance_ratio_bounds(t, T, d, k)
    if _fits(d, k + 1):
        ak = alpha_closed(t, T, d, k)
        bk = beta_closed(T, d, k)
        if k <= cap:
            if ak != alphas[k] or bk != betas[k]:
                raise ContractError("closed forms disagree with the recurrence")
        ratio = bk / ak if k >= 1 else Fraction(0)
        if k >= 1 and not (bounds[0] <= ratio <= bounds[1]):
            raise ContractError("ratio bounds do not enclose the exact ratio")

    x_exact = y_exact = x_bound = y_bound = cells = None
    p_values = ()
    if _fits(d, 2 * k + 1, 10 * n):
        plan = SizePlan(t, d)
        x_exact, y_exact = plan.x(n, k), plan.y(n, k)
        cells = plan.cells(n, k)
        x_bound = y_bound = 10 * d ** (2 * k + 1) * n
        if x_exact > x_bound or y_exact > y_bound:
            raise ContractError("materialization sizes exceed 10*d^(2k+1)*n")
        p_values = tuple(plan.p(j) for j in range(1, k + 1))

    return RecurrenceTable(
        t=t, T=T, d=d, k=k, n=n,
        alpha=alphas, beta=betas,
        alpha_p=tuple(alpha_prime(T, d, i) for i in range(cap + 1)),
        beta_p=tuple(beta_prime(T, d, i) for i in range(cap + 1)),
        shift_min=tuple(ns),
        ratio=ratio, ratio_bounds=bounds,
        x_exact=x_exact, y_exact=y_exact,
        x_bound=x_bound, y_bound=y_bound,
        cells=cells, p_values=p_values,
    )


class SizePlan:
    """The materialization sizes x(n, k), y(n, k) and the counts p_k and
    laid_k for one (t, d) pair: the only implementation of the size
    recurrences.

    Each (n, k) pair is unwound once, from the innermost call (parameter
    n + k) outward, and memoized."""

    def __init__(self, t: int, d: int):
        self.t = t
        self.T = 3 ** (2 * t)
        self.d = d
        self._sizes = {}

    def p(self, k: int) -> int:
        return (self.d**k - self.T) // (self.T + 4 * self.t + 2)

    def laid(self, k: int) -> int:
        """The negatives the recursive step lays down in B:
        laid_0 = 0, laid_k = d*laid_{k-1} + p_k."""
        laid = 0
        for j in range(1, k + 1):
            laid = self.d * laid + self.p(j)
        return laid

    def m(self, k: int) -> int:
        return self.d ** (k - 1)

    def _xy(self, n: int, k: int) -> tuple:
        if (n, k) not in self._sizes:
            t, T, d = self.t, self.T, self.d
            x = n + k + 1
            y = T + 4 * t + 3 + (n + k)
            for j in range(1, k + 1):
                p = self.p(j)
                x = d * x + p + 2 * t + 1
                y = d * y + self.m(j) * (T + d + 4 * t + 2) + p
            self._sizes[n, k] = (x, y)
        return self._sizes[n, k]

    def x(self, n: int, k: int) -> int:
        return self._xy(n, k)[0]

    def y(self, n: int, k: int) -> int:
        return self._xy(n, k)[1]

    def half_width(self, n: int, k: int) -> int:
        """M of the step instance's symmetric domain [-M, M]: the window,
        then room for the larger of X and Y, and one cell more, on each
        side of 0."""
        return self.t + max(self.x(n, k), self.y(n, k)) + 1

    def cells(self, n: int, k: int) -> int:
        return 2 * self.half_width(n, k) + 1


def check_claim_monotonicity(t: int, d: int, l_max: int):
    """Verify beta'_l/alpha'_l > beta_{l+1}/alpha_{l+1} > beta_l/alpha_l in
    exact rationals for l = 0..l_max.  Returns (ok, first counterexample)."""
    if t < 0:
        raise ContractError("claim check requires t >= 0")
    T = 3 ** (2 * t)
    if d < 9 * T:
        raise ContractError("claim check requires d >= 9T")
    pairs = _alpha_beta(t, T, d)
    a, b = next(pairs)
    for l, (a_next, b_next) in zip(range(l_max + 1), pairs):
        lhs = Fraction(beta_prime(T, d, l)) / alpha_prime(T, d, l)
        mid = b_next / a_next
        rhs = b / a
        if not (lhs > mid > rhs):
            return False, (l, lhs, mid, rhs)
        a, b = a_next, b_next
    return True, None
