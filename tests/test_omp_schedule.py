"""Tests for worksharing-loop schedule models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.omp.schedule import ScheduleCostParams, chunk_sequence, plan_loop
from repro.types import ScheduleKind
from repro.units import us


class TestChunkSequence:
    def test_static_unchunked_blocks(self):
        chunks = chunk_sequence(ScheduleKind.STATIC, 10, 4, None)
        assert chunks == [3, 3, 2, 2]
        assert sum(chunks) == 10

    def test_static_unchunked_fewer_iters_than_threads(self):
        chunks = chunk_sequence(ScheduleKind.STATIC, 2, 4, None)
        assert chunks == [1, 1]

    def test_static_chunked(self):
        chunks = chunk_sequence(ScheduleKind.STATIC, 10, 4, 3)
        assert chunks == [3, 3, 3, 1]

    def test_dynamic_chunk1(self):
        chunks = chunk_sequence(ScheduleKind.DYNAMIC, 5, 2, 1)
        assert chunks == [1] * 5

    def test_dynamic_default_chunk_is_1(self):
        assert chunk_sequence(ScheduleKind.DYNAMIC, 3, 2, None) == [1, 1, 1]

    def test_guided_decays(self):
        chunks = chunk_sequence(ScheduleKind.GUIDED, 100, 4, 1)
        assert sum(chunks) == 100
        assert chunks[0] == 25  # ceil(100/4)
        assert all(a >= b for a, b in zip(chunks, chunks[1:]))

    def test_guided_respects_min_chunk(self):
        chunks = chunk_sequence(ScheduleKind.GUIDED, 100, 4, 10)
        assert all(c >= 10 for c in chunks[:-1])
        assert sum(chunks) == 100

    def test_validation(self):
        with pytest.raises(ScheduleError):
            chunk_sequence(ScheduleKind.STATIC, 0, 4, None)
        with pytest.raises(ScheduleError):
            chunk_sequence(ScheduleKind.STATIC, 10, 0, None)
        with pytest.raises(ScheduleError):
            chunk_sequence(ScheduleKind.DYNAMIC, 10, 4, 0)


@given(
    kind=st.sampled_from(list(ScheduleKind)),
    total=st.integers(min_value=1, max_value=5000),
    n=st.integers(min_value=1, max_value=64),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
@settings(max_examples=200)
def test_chunks_partition_iteration_space(kind, total, n, chunk):
    chunks = chunk_sequence(kind, total, n, chunk)
    assert sum(chunks) == total
    assert all(c > 0 for c in chunks)


class TestScheduleCostParams:
    def test_latency_grows_with_threads(self):
        p = ScheduleCostParams()
        assert p.dequeue_latency(254) > p.dequeue_latency(4)
        assert p.queue_service(254) > p.queue_service(4)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            ScheduleCostParams(lat_base=-1.0)


class TestPlanLoop:
    def setup_method(self):
        self.params = ScheduleCostParams()

    def test_static_exact_partition(self):
        plan = plan_loop(ScheduleKind.STATIC, 100, 4, None, us(10), self.params)
        assert plan.per_thread_work.sum() == pytest.approx(100 * us(10))
        assert plan.queue_serialization == 0.0
        assert plan.n_chunks == 4

    def test_static_chunked_balance(self):
        plan = plan_loop(ScheduleKind.STATIC, 1000, 4, 1, us(1), self.params)
        np.testing.assert_allclose(plan.per_thread_work, 250 * us(1))

    def test_dynamic_overhead_scales_with_chunks(self):
        fine = plan_loop(ScheduleKind.DYNAMIC, 1000, 4, 1, us(1), self.params)
        coarse = plan_loop(ScheduleKind.DYNAMIC, 1000, 4, 100, us(1), self.params)
        assert fine.per_thread_overhead[0] > coarse.per_thread_overhead[0]
        assert fine.queue_serialization > coarse.queue_serialization

    def test_dynamic_queue_floor(self):
        plan = plan_loop(ScheduleKind.DYNAMIC, 10_000, 64, 1, 0.0, self.params)
        assert plan.queue_serialization == pytest.approx(
            10_000 * self.params.queue_service(64)
        )

    def test_guided_fewer_chunks_than_dynamic(self):
        dyn = plan_loop(ScheduleKind.DYNAMIC, 10_000, 8, 1, us(1), self.params)
        gui = plan_loop(ScheduleKind.GUIDED, 10_000, 8, 1, us(1), self.params)
        assert gui.n_chunks < dyn.n_chunks
        assert gui.queue_serialization < dyn.queue_serialization

    def test_negative_work_rejected(self):
        with pytest.raises(ScheduleError):
            plan_loop(ScheduleKind.STATIC, 10, 2, None, -1.0, self.params)


class TestTable2Calibration:
    """The dequeue-cost law must land in the Table 2 ballpark (see platform)."""

    def test_dardel_4_thread_overhead(self):
        from repro.platform import dardel

        p = dardel().sched_cost_params
        # 8192 dequeues x dequeue_latency(4) ~ 1.0 ms
        overhead = 8192 * p.dequeue_latency(4)
        assert 0.8e-3 < overhead < 1.4e-3

    def test_dardel_254_thread_overhead(self):
        from repro.platform import dardel

        p = dardel().sched_cost_params
        # with the cross-socket latency factor (1.3 at 254 threads) this
        # lands at the ~5 ms Table 2 requires
        overhead = 8192 * p.dequeue_latency(254) * 1.3
        assert 4.5e-3 < overhead < 6.5e-3

    def test_queue_not_binding_at_254(self):
        from repro.platform import dardel

        p = dardel().sched_cost_params
        # queue serialization must stay below the ~154 ms compute time
        assert 8192 * 254 * p.queue_service(254) < 0.150
