"""Hint matrix construction and exact-solve tests (Eq. 9-13)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.counters import OpCounter
from repro.core.exceptions import HintSolveError
from repro.core.hint import build_hint_matrix, solve_candidate


def _values(rng: random.Random, n: int) -> list[int]:
    return [rng.getrandbits(256) for _ in range(n)]


class TestBuild:
    def test_shapes(self, rng):
        hint = build_hint_matrix(_values(rng, 5), gamma=2, rng=rng)
        assert hint.gamma == 2
        assert hint.beta == 3
        assert len(hint.r_block) == 2
        assert all(len(row) == 3 for row in hint.r_block)
        assert len(hint.b_vector) == 2

    def test_r_entries_nonzero_32bit(self, rng):
        hint = build_hint_matrix(_values(rng, 6), gamma=3, rng=rng)
        for row in hint.r_block:
            for coeff in row:
                assert 1 <= coeff < (1 << 32)

    def test_b_equation(self, rng):
        values = _values(rng, 4)
        hint = build_hint_matrix(values, gamma=2, rng=rng)
        for i in range(2):
            expected = values[i] + sum(
                hint.r_block[i][j] * values[2 + j] for j in range(2)
            )
            assert hint.b_vector[i] == expected

    def test_rejects_zero_gamma(self, rng):
        with pytest.raises(ValueError):
            build_hint_matrix(_values(rng, 3), gamma=0, rng=rng)

    def test_rejects_gamma_exceeding_width(self, rng):
        with pytest.raises(ValueError):
            build_hint_matrix(_values(rng, 2), gamma=3, rng=rng)


class TestSolve:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gamma=st.integers(min_value=1, max_value=4),
        beta=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovers_any_unknown_subset(self, seed, gamma, beta, data):
        """Up to γ unknowns anywhere in the optional segment are recovered."""
        rng = random.Random(seed)
        width = gamma + beta
        values = _values(rng, width)
        hint = build_hint_matrix(values, gamma=gamma, rng=rng)
        n_unknown = data.draw(st.integers(min_value=0, max_value=gamma))
        unknown_positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=width - 1),
                min_size=n_unknown,
                max_size=n_unknown,
                unique=True,
            )
        )
        candidate = list(values)
        for pos in unknown_positions:
            candidate[pos] = None
        recovered = solve_candidate(hint, candidate)
        assert recovered == values

    def test_no_unknowns_consistency_pass(self, rng):
        values = _values(rng, 4)
        hint = build_hint_matrix(values, gamma=2, rng=rng)
        assert solve_candidate(hint, list(values)) == values

    def test_no_unknowns_inconsistency_detected(self, rng):
        values = _values(rng, 4)
        hint = build_hint_matrix(values, gamma=2, rng=rng)
        wrong = list(values)
        wrong[1] ^= 1
        with pytest.raises(HintSolveError):
            solve_candidate(hint, wrong)

    def test_wrong_known_value_detected(self, rng):
        # A candidate with a colliding-but-wrong known value must be rejected
        # by the consistency check (when fewer unknowns than equations) or by
        # producing an out-of-range solution.
        values = _values(rng, 5)
        hint = build_hint_matrix(values, gamma=2, rng=rng)
        candidate: list[int | None] = list(values)
        candidate[0] = None  # one unknown, two equations
        candidate[3] = values[3] ^ 0xFFFF  # corrupted known
        with pytest.raises(HintSolveError):
            solve_candidate(hint, candidate)

    def test_too_many_unknowns_rejected(self, rng):
        values = _values(rng, 4)
        hint = build_hint_matrix(values, gamma=1, rng=rng)
        candidate = [None, None, values[2], values[3]]
        with pytest.raises(HintSolveError):
            solve_candidate(hint, candidate)

    def test_wrong_width_rejected(self, rng):
        values = _values(rng, 4)
        hint = build_hint_matrix(values, gamma=2, rng=rng)
        with pytest.raises(ValueError):
            solve_candidate(hint, values[:3])

    def test_unknowns_in_identity_part(self, rng):
        values = _values(rng, 6)
        hint = build_hint_matrix(values, gamma=3, rng=rng)
        candidate = [None, None, None] + values[3:]
        assert solve_candidate(hint, candidate) == values

    def test_unknowns_in_r_part(self, rng):
        values = _values(rng, 6)
        hint = build_hint_matrix(values, gamma=3, rng=rng)
        candidate = values[:3] + [None, None, None]
        assert solve_candidate(hint, candidate) == values


class TestOpCount:
    def test_mul256_total_of_a_build_a_solve_and_a_failed_verify(self):
        """The multiplies counted: γ·β to build; for a solve, the
        eliminated rows' known R terms, β per identity unknown and γ·β to
        verify; a verify that fails counts the rows it multiplied."""
        rng = random.Random(11)
        values = _values(rng, 7)
        counter = OpCounter()
        hint = build_hint_matrix(values, gamma=3, rng=rng, counter=counter)
        assert counter.get("MUL256") == 3 * 4

        candidate: list[int | None] = list(values)
        candidate[0] = candidate[4] = None  # identity and R unknowns
        assert solve_candidate(hint, candidate, counter=counter) == values
        assert counter.get("MUL256") == 12 + (2 * 3 + 4 + 3 * 4)

        # A known value off by the field prime solves consistently mod q,
        # then fails the integer re-check at its own row (row 1).
        bogus: list[int | None] = list(values)
        bogus[3] = None
        bogus[1] = values[1] + (1 << 521) - 1
        with pytest.raises(HintSolveError, match="exact verification"):
            solve_candidate(hint, bogus, counter=counter)
        assert counter.get("MUL256") == 34 + (3 * 3 + 2 * 4)
