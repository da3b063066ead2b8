"""Hypothesis property tests for the AIR Top-K invariants of paper Sec. 3.

Three families of invariants, checked over randomly generated problems:

* **Adaptive buffering (Sec. 3.2)** only fires when the survivor count is
  below N/alpha — never on the first pass (its candidate set is the whole
  input), and with ``adaptive=False`` on every later pass.
* **Early stopping (Sec. 3.3)** never drops a winner: once K equals the
  candidate count the remaining passes degenerate to a gather, and the
  selected multiset must match both the full-sort oracle and the
  ``early_stop=False`` run bit for bit.
* **The digit schedule** — 11-bit digits over 3 passes — covers all 32
  key bits exactly once, MSB first, and digit extraction is invertible.

Every property reads the algorithm's ``last_trace`` (one
:class:`repro.core.air_topk.PassRecord` per fused pass per row), the same
quantities the paper's figures reason about.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.air_topk import AIRTopK
from repro.primitives import digit_layout, priority_keys
from repro.verify import check_topk


@st.composite
def problems(draw):
    """A (data, k) problem small enough to run hundreds of times."""
    n = draw(st.integers(min_value=8, max_value=1024))
    k = draw(st.integers(min_value=1, max_value=n))
    kind = draw(st.sampled_from(["uniform", "ties", "extremes"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        data = rng.integers(0, 2**32, n, dtype=np.uint32)
    elif kind == "ties":
        data = rng.integers(0, 4, n, dtype=np.uint32)
    else:  # extremes: clusters at both ends of the key space
        data = np.where(
            rng.random(n) < 0.5,
            rng.integers(0, 16, n),
            rng.integers(2**32 - 16, 2**32, n),
        ).astype(np.uint32)
    return data, k


class TestAdaptiveBuffering:
    @settings(deadline=None, max_examples=40)
    @given(problems(), st.sampled_from([4.0, 16.0, 128.0]))
    def test_buffers_only_below_threshold(self, problem, alpha):
        data, k = problem
        n = data.shape[0]
        algo = AIRTopK(alpha=alpha)
        res = algo.select(data, k)
        check_topk(data, res.values, res.indices)
        assert algo.last_trace, "a run must leave a trace"
        for rec in algo.last_trace:
            if rec.pass_index == 0:
                # the first kernel's candidate set is the whole input;
                # buffering it would write all of N
                assert not rec.buffered
            elif rec.buffered:
                assert rec.candidates_in < n / alpha
            else:
                assert rec.candidates_in >= n / alpha

    @settings(deadline=None, max_examples=40)
    @given(problems())
    def test_adaptive_off_always_buffers(self, problem):
        data, k = problem
        algo = AIRTopK(adaptive=False)
        algo.select(data, k)
        for rec in algo.last_trace:
            assert rec.buffered == (rec.pass_index > 0)

    @settings(deadline=None, max_examples=40)
    @given(problems())
    def test_trace_bookkeeping_is_consistent(self, problem):
        """Within a row, pass p+1 consumes exactly pass p's survivors."""
        data, k = problem
        algo = AIRTopK()
        algo.select(data, k)
        by_row: dict[int, list] = {}
        for rec in algo.last_trace:
            by_row.setdefault(rec.row, []).append(rec)
        for recs in by_row.values():
            assert [r.pass_index for r in recs] == list(range(len(recs)))
            assert recs[0].candidates_in == data.shape[0]
            for prev, cur in zip(recs, recs[1:]):
                assert cur.candidates_in == prev.candidates_out
                assert cur.k_remaining <= prev.k_remaining
            for r in recs:
                assert 1 <= r.k_remaining <= r.candidates_out


class TestEarlyStopping:
    @settings(deadline=None, max_examples=40)
    @given(problems())
    def test_never_drops_a_winner(self, problem):
        data, k = problem
        on = AIRTopK(early_stop=True)
        off = AIRTopK(early_stop=False)
        res_on = on.select(data, k)
        res_off = off.select(data, k)
        check_topk(data, res_on.values, res_on.indices)
        check_topk(data, res_off.values, res_off.indices)
        # identical selected multisets in key space (ties broken freely)
        keys_on = np.sort(priority_keys(res_on.values[None, :]))
        keys_off = np.sort(priority_keys(res_off.values[None, :]))
        assert np.array_equal(keys_on, keys_off)

    @settings(deadline=None, max_examples=40)
    @given(problems())
    def test_stop_fires_exactly_at_k_equals_count(self, problem):
        data, k = problem
        algo = AIRTopK(early_stop=True)
        algo.select(data, k)
        for rec in algo.last_trace:
            assert rec.early_stopped == (rec.k_remaining == rec.candidates_out)

    def test_k_equals_n_stops_after_first_pass(self):
        """K = N is the degenerate case Fig. 10 highlights: everything is a
        result and the trace must show an immediate stop."""
        data = np.arange(512, dtype=np.uint32)
        algo = AIRTopK(early_stop=True)
        algo.select(data, 512)
        assert algo.last_trace[0].early_stopped


class TestDigitSchedule:
    def test_11_bit_3_pass_covers_32_bits(self):
        """The paper's configuration: 3 fused kernels cover a 32-bit key."""
        passes = digit_layout(32, 11)
        assert len(passes) == 3
        assert [(p.shift, p.width) for p in passes] == [(21, 11), (10, 11), (0, 10)]
        covered = set()
        for p in passes:
            bits = set(range(p.shift, p.shift + p.width))
            assert not covered & bits, "digit ranges must not overlap"
            covered |= bits
        assert covered == set(range(32))

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from([8, 16, 32, 64]),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_layout_covers_and_reconstructs(self, width, digit_bits, value):
        digit_bits = min(digit_bits, width)
        passes = digit_layout(width, digit_bits)
        # MSB-first, contiguous, exactly covering [0, width)
        assert passes[0].shift + passes[0].width == width
        for prev, cur in zip(passes, passes[1:]):
            assert cur.shift + cur.width == prev.shift
        assert passes[-1].shift == 0
        assert sum(p.width for p in passes) == width
        # extraction is invertible: digits reassemble the key
        key = value % (1 << width)
        rebuilt = 0
        for p in passes:
            digit = (key >> p.shift) & ((1 << p.width) - 1)
            assert digit < p.num_buckets
            rebuilt |= digit << p.shift
        assert rebuilt == key

    @settings(deadline=None, max_examples=40)
    @given(problems())
    def test_air_trace_never_exceeds_pass_count(self, problem):
        data, k = problem
        algo = AIRTopK()
        algo.select(data, k)
        rows = {rec.row for rec in algo.last_trace}
        for row in rows:
            recs = [r for r in algo.last_trace if r.row == row]
            assert len(recs) <= len(digit_layout(32, 11))
            for rec in recs:
                assert 0 <= rec.target_digit < algo.passes[rec.pass_index].num_buckets
