"""Percentile rule, span self time and the tiling check."""

import itertools

import pytest

from perfbench.ledger import (
    UNTRACKED,
    Ledger,
    Span,
    covered,
    median,
    op_breakdown,
    self_times,
    tail_percentile,
    tiling_errors,
)


class TestTailPercentile:
    @pytest.mark.parametrize("n", [11, 12, 50, 99, 100, 199, 200, 201, 1000, 5000])
    def test_highest_percentile_with_ten_beyond(self, n):
        values = list(range(n))
        p, value = tail_percentile(values)
        beyond = sum(1 for v in values if v > value)
        assert beyond >= 10
        # one percentile higher would leave fewer than ten beyond
        if p < 99:
            rank_next = -(-(p + 1) * n // 100)
            assert n - rank_next < 10

    def test_p95_needs_two_hundred_samples(self):
        assert tail_percentile(range(199))[0] == 94
        assert tail_percentile(range(200)) == (95, 189)

    def test_too_few_samples(self):
        assert tail_percentile([]) is None
        assert tail_percentile(range(10)) is None

    def test_order_does_not_matter(self):
        values = [5, 1, 9, 3, 7] * 10
        assert tail_percentile(values) == tail_percentile(sorted(values))

    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 3, 2]) == 2.5


def clocked(stamps):
    ticks = iter(stamps)
    return Ledger(clock=lambda: next(ticks))


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(1, 4), (3, 6)], 0, 10) == 5
        assert covered([(1, 4), (2, 3)], 0, 10) == 3  # nested
        assert covered([(-5, 2), (8, 20)], 0, 10) == 4  # clipped
        assert covered([(11, 12)], 0, 10) == 0

    def test_overlapping_children_count_once(self):
        spans = [
            Span(0, "op", 0, None, 0.0, 10.0),
            Span(1, "a", 0, 0, 1.0, 4.0),
            Span(2, "b", 0, 0, 3.0, 6.0),
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(5.0)
        assert selfs[1] == pytest.approx(3.0)
        assert selfs[2] == pytest.approx(3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        led = clocked([0.0, 1.0, 2.0, 3.0, 5.0, 10.0])
        with led.op("x"):  # 0 .. 10
            with led.span("outer"):  # 1 .. 5
                with led.span("inner"):  # 2 .. 3
                    pass
        layers = op_breakdown(led)[0]
        assert layers["outer"] == pytest.approx(3.0)
        assert layers["inner"] == pytest.approx(1.0)
        assert layers[UNTRACKED] == pytest.approx(6.0)

    def test_repeated_layer_sums_within_op(self):
        led = clocked([0.0, 1.0, 2.0, 4.0, 7.0, 9.0])
        with led.op("x"):
            with led.span("plan"):
                pass
            with led.span("plan"):
                pass
        assert op_breakdown(led)[0]["plan"] == pytest.approx(4.0)


class TestTiling:
    def test_layers_plus_untracked_equal_wall(self):
        led = Ledger()
        for _ in range(3):
            with led.op("x"):
                for name in ("a", "b", "a"):
                    with led.span(name):
                        sum(range(1000))
        assert tiling_errors(led) == []

    def test_external_spans_tile(self):
        led = Ledger()
        root = led.add_op("q", 0.0, 1.0)
        t = 0.1
        for name, width in zip(("q1", "q2", "q3"), (0.2, 0.3, 0.1)):
            led.add_span(name, root, t, t + width)
            t += width
        layers = op_breakdown(led)[0]
        assert layers[UNTRACKED] == pytest.approx(0.4)
        assert tiling_errors(led) == []

    def test_child_outside_parent_is_reported(self):
        led = Ledger()
        root = led.add_op("q", 0.0, 1.0)
        led.add_span("late", root, 0.5, 1.5)  # ends after its op
        assert tiling_errors(led)

    def test_spans_outside_ops_are_not_recorded(self):
        led = Ledger()
        with led.span("setup"):
            pass
        assert led.spans == []

    def test_ops_do_not_nest(self):
        led = Ledger()
        with pytest.raises(RuntimeError):
            with led.op("a"):
                with led.op("b"):
                    pass

    def test_span_ids_and_ops(self):
        led = Ledger()
        for i in itertools.islice(itertools.count(), 2):
            with led.op(f"c{i}"):
                with led.span("s"):
                    pass
        assert [s.op for s in led.spans] == [0, 0, 1, 1]
        assert [s.parent for s in led.spans] == [None, 0, None, 2]
        assert led.op_class == {0: "c0", 1: "c1"}
