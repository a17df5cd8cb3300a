import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradroute.metrics import MetricsRow, SampledMovingAverage, format_row

MAX = sys.float_info.max
TINY = 5e-324  # smallest subnormal
# what push raises where the window's rounded sum is past the float range
OVERFLOW = "^moving average: the window's sum overflows a float$"

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals, ±0.0, ~1e308
    st.integers(-10**6, 10**6).map(float),  # link-delay rewards are whole numbers
    st.sampled_from([-0.0, 0.0, TINY, -TINY, MAX, -MAX, 1e308, -1e308]),
)
# a sum of 1000 of these stays finite, which spares the slow exact oracle
finite_small = st.one_of(
    st.floats(min_value=-1e304, max_value=1e304),
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([-0.0, 0.0, TINY, -TINY]),
)


def expected_mean(window):
    """math.fsum(window) / len(window), except where fsum overflows on a
    partial sum: then the exact sum rounded once, which overflows only when
    the rounded sum is past the float range."""
    try:
        return math.fsum(window) / len(window)
    except OverflowError:
        exact = sum(map(Fraction, window))
        if abs(exact) >= 2**1024 - 2**970:  # rounds to infinity
            raise
        return float(exact) / len(window)


def check_stream(window, stream):
    ma = SampledMovingAverage(window)
    for i, x in enumerate(stream):
        last = stream[max(0, i + 1 - window) : i + 1]
        try:
            want = expected_mean(last)
        except OverflowError:
            with pytest.raises(ValueError, match=OVERFLOW):
                ma.push(x)
            continue
        got = ma.push(x)
        assert got == want and repr(got) == repr(want), (i, last)


class TestSampledMovingAverage:
    @pytest.mark.parametrize("window", [1, 2, 7])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_fsum(self, window, data):
        stream = data.draw(st.lists(finite, min_size=window + 1, max_size=window + 40))
        check_stream(window, stream)

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.lists(finite_small, min_size=1, max_size=40),
        extra=st.integers(1, 60),
        stride=st.integers(1, 7),
    )
    def test_bit_identical_to_fsum_window_1000(self, base, extra, stride):
        stream = [base[(i * stride) % len(base)] for i in range(1000 + extra)]
        check_stream(1000, stream)

    @pytest.mark.parametrize("window", [1, 2, 7, 1000])
    def test_all_negative_zero_window_is_positive_zero(self, window):
        stream = [-0.0] * (window + 3)
        ma = SampledMovingAverage(window)
        for i in range(len(stream)):
            got = ma.push(-0.0)
            want = math.fsum(stream[max(0, i + 1 - window) : i + 1]) / min(i + 1, window)
            assert repr(got) == repr(want) == "0.0"

    def test_sum_past_float_range_overflows_like_fsum(self):
        with pytest.raises(OverflowError):
            math.fsum([MAX, MAX])
        ma = SampledMovingAverage(2)
        assert ma.push(MAX) == MAX
        with pytest.raises(ValueError, match=OVERFLOW):
            ma.push(MAX)
        # the overflowing value entered the window, as with fsum over a deque
        assert ma.push(-MAX) == 0.0

    def test_partial_overflow_gives_exact_mean(self):
        # fsum raises on the partial sum MAX + MAX; the exact sum is MAX
        with pytest.raises(OverflowError):
            math.fsum([MAX, MAX, -MAX])
        ma = SampledMovingAverage(3)
        ma.push(MAX)
        with pytest.raises(ValueError, match=OVERFLOW):
            ma.push(MAX)
        assert ma.push(-MAX) == MAX / 3

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_raises_value_error(self, bad):
        ma = SampledMovingAverage(3)
        ma.push(1.5)
        with pytest.raises(ValueError, match=repr(bad)):
            ma.push(bad)
        # the rejected value did not enter the window
        assert ma.push(2.5) == 2.0


def reference_format_row(row):
    """format_row as first written, one str or repr per field, joined."""
    fields = [
        str(row.tick),
        repr(row.reward_total),
        repr(row.reward_underlying),
        repr(row.reward_shaping),
        repr(row.reward_ma),
        repr(row.running_mean),
        *(repr(p) for p in row.probs),
        str(row.delivered),
        str(row.dropped),
        str(row.cycles),
    ]
    return ",".join(fields)


any_float = st.one_of(
    st.floats(),  # NaN, ±inf, ±0.0, subnormals
    st.integers(-(10**20), 10**20).map(float),
    st.sampled_from([-0.0, TINY, -TINY, 1e300, -1e300, MAX, math.nan, math.inf, -math.inf]),
)
counts = st.one_of(st.integers(0, 10**6), st.integers(-(10**40), 10**40))
rows = st.builds(
    MetricsRow,
    counts,
    any_float,
    any_float,
    any_float,
    any_float,
    any_float,
    st.sampled_from([0, 1, 3]).flatmap(
        lambda k: st.tuples(*[any_float] * k)
    ),
    counts,
    counts,
    counts,
)


class TestFormatRow:
    @settings(max_examples=500, deadline=None)
    @given(row=rows)
    def test_same_string_as_the_reference(self, row):
        assert format_row(row) == reference_format_row(row)

    @pytest.mark.parametrize("n_probs", [0, 1, 3])
    def test_fixed_rows(self, n_probs):
        row = MetricsRow(
            10**30, -0.0, TINY, 1e300, -7.0, math.nan, (math.inf, -0.0, 0.1)[:n_probs],
            2**64, 0, -3,
        )
        assert format_row(row) == reference_format_row(row)
