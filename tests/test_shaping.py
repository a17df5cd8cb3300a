from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradroute.shaping import ShapingConfig, detect_cycle, shaping_reward


def history_of(nodes, h=2):
    """A packet's visit history, a window of h nodes; the engine starts one
    as [source]."""
    return deque(nodes, maxlen=h)


class TestDetectCycle:
    def test_fresh_node_is_not_a_cycle(self):
        visits = history_of([0, 1])
        assert detect_cycle(visits, 2) is False
        assert list(visits) == [1, 2]

    def test_revisit_within_window_is_a_cycle(self):
        visits = history_of([0, 1])
        assert detect_cycle(visits, 0) is True

    def test_three_cycle_evades_a_two_node_window(self):
        # walk A->B->C->A with H = 2: by the time A recurs it already left the window
        visits = history_of([0])
        assert detect_cycle(visits, 1) is False  # history (0,) -> (0, 1)
        assert detect_cycle(visits, 2) is False  # history (0, 1) -> (1, 2)
        assert detect_cycle(visits, 0) is False  # history (1, 2): 0 already evicted

    def test_immediate_bounce_back_is_caught(self):
        visits = history_of([0])
        assert detect_cycle(visits, 1) is False
        assert detect_cycle(visits, 0) is True  # straight back to the source

    def test_history_not_reset_after_detection(self):
        visits = history_of([0, 1])
        assert detect_cycle(visits, 1) is True
        assert list(visits) == [1, 1]
        assert detect_cycle(visits, 1) is True  # still in window, flags again

    def test_no_false_positive_on_first_h_distinct_hops(self):
        visits = history_of([0], 4)
        for node in (1, 2, 3, 4):
            assert detect_cycle(visits, node) is False


class TestShapingReward:
    def test_cycle_penalty(self):
        cfg = ShapingConfig(cycle_penalty=-100.0, drop_penalty=0.0)
        assert shaping_reward(2, 0, cfg) == -200.0

    def test_drop_penalty(self):
        cfg = ShapingConfig(drop_penalty=21.0)
        assert shaping_reward(0, 1, cfg) == -21.0

    def test_all_zero(self):
        assert shaping_reward(0, 0, ShapingConfig()) == 0.0

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_linear_in_both_counts(self, c1, c2, d1, d2):
        cfg = ShapingConfig(cycle_penalty=-100.0, drop_penalty=21.0)
        assert shaping_reward(c1 + c2, d1 + d2, cfg) == pytest.approx(
            shaping_reward(c1, d1, cfg) + shaping_reward(c2, d2, cfg)
        )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            shaping_reward(-1, 0, ShapingConfig())

    def test_config_invariants(self):
        assert ShapingConfig().validate() == []
        for key, value in (("cycle_penalty", 5.0), ("history_length", 0), ("drop_penalty", -1.0)):
            (violation,) = ShapingConfig(**{key: value}).validate()
            assert violation.startswith(f"shaping.{key}: ")
