from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradroute.engine import Packet
from gradroute.shaping import ShapingConfig, detect_cycle, shaping_reward


def new_packet(source, h):
    """A packet bound for node 99 whose history holds its source alone, in
    a window of h nodes, as the engine starts one."""
    return Packet(0, source, 99, 0, deque((source,), maxlen=h))


def packet_with_history(nodes, h=2):
    p = new_packet(nodes[0], h)
    for n in nodes[1:]:
        p.history.append(n)
    return p


class TestDetectCycle:
    def test_fresh_node_is_not_a_cycle(self):
        p = packet_with_history([0, 1])
        assert detect_cycle(p, 2) is False
        assert list(p.history) == [1, 2]

    def test_revisit_within_window_is_a_cycle(self):
        p = packet_with_history([0, 1])
        assert detect_cycle(p, 0) is True

    def test_three_cycle_evades_a_two_node_window(self):
        # walk A->B->C->A with H = 2: by the time A recurs it already left the window
        p = new_packet(0, 2)
        assert detect_cycle(p, 1) is False  # history (0,) -> (0, 1)
        assert detect_cycle(p, 2) is False  # history (0, 1) -> (1, 2)
        assert detect_cycle(p, 0) is False  # history (1, 2): 0 already evicted

    def test_immediate_bounce_back_is_caught(self):
        p = new_packet(0, 2)
        assert detect_cycle(p, 1) is False
        assert detect_cycle(p, 0) is True  # straight back to the source

    def test_history_not_reset_after_detection(self):
        p = packet_with_history([0, 1])
        assert detect_cycle(p, 1) is True
        assert list(p.history) == [1, 1]
        assert detect_cycle(p, 1) is True  # still in window, flags again

    def test_no_false_positive_on_first_h_distinct_hops(self):
        p = new_packet(0, 4)
        for node in (1, 2, 3, 4):
            assert detect_cycle(p, node) is False


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
        with pytest.raises(ValueError):
            ShapingConfig(cycle_penalty=5.0).validate()
        with pytest.raises(ValueError):
            ShapingConfig(history_length=0).validate()
        with pytest.raises(ValueError):
            ShapingConfig(drop_penalty=-1.0).validate()
