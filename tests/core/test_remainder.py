"""Remainder vector, fast check and candidate enumeration tests."""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.counters import OpCounter
from repro.core.remainder import (
    DEFAULT_MAX_VISITS,
    EnumerationBudget,
    bucket_index,
    buckets_for,
    build_buckets,
    enumerate_candidates,
    is_candidate,
    iter_candidates,
    remainder_vector,
)


def _mask(necessary: int, total: int) -> tuple[bool, ...]:
    """First *necessary* positions necessary (values here are pre-sorted)."""
    return tuple(i < necessary for i in range(total))


def _deepening_reference(remainders, necessary_mask, gamma, participant_values, p, *, mode, budget):
    """The deviation order by definition: iterative deepening, one recursive
    walk of the candidate tree per deviation count, with the visit budget
    counted across all the walks.  :func:`iter_candidates` must reproduce
    its sequence and ``budget.exhausted`` exactly."""
    buckets = build_buckets(remainders, participant_values, p)
    m_t = len(remainders)
    forced_unknowns = [0] * (m_t + 1)
    infeasible_suffix = [False] * (m_t + 1)
    for i in range(m_t - 1, -1, -1):
        forced_unknowns[i] = forced_unknowns[i + 1]
        infeasible_suffix[i] = infeasible_suffix[i + 1]
        if not buckets[i]:
            if necessary_mask[i]:
                infeasible_suffix[i] = True
            else:
                forced_unknowns[i] += 1
    if infeasible_suffix[0] or forced_unknowns[0] > gamma:
        return
    visits = 0

    def dfs(pos, last, unknowns, dev_left, acc):
        nonlocal visits
        visits += 1
        if visits > budget.max_visits:
            budget.exhausted = True
            return
        if pos == m_t:
            if dev_left == 0:
                yield acc
            return
        if infeasible_suffix[pos] or unknowns + forced_unknowns[pos] > gamma:
            return
        bucket = buckets[pos]
        feasible = bucket[bisect_right(bucket, last):]
        for rank, idx in enumerate(feasible):
            cost = min(rank, 1)
            if cost <= dev_left:
                yield from dfs(pos + 1, idx, unknowns, dev_left - cost, acc + (participant_values[idx],))
            if budget.exhausted:
                return
        allow_unknown = not necessary_mask[pos] and (mode == "robust" or not bucket)
        if allow_unknown and unknowns + 1 <= gamma:
            cost = 0 if not feasible else 1
            if cost <= dev_left:
                yield from dfs(pos + 1, last, unknowns + 1, dev_left - cost, acc + (None,))

    for depth in range(m_t + 1):
        yield from dfs(0, -1, 0, depth, ())
        if budget.exhausted:
            return


def _assert_matches_deepening(remainders, mask, gamma, participant, p, mode, max_visits,
                              exhausted=False, stop_after=None, spend_after=None):
    """iter_candidates and the reference agree on the candidates the
    consumer takes and on ``budget.exhausted`` when it is done."""
    runs = []
    for enumerate_ in (_deepening_reference, iter_candidates):
        budget = EnumerationBudget(max_visits=max_visits, exhausted=exhausted)
        runs.append(_consume(enumerate_(
            remainders, mask, gamma, participant, p, mode=mode, budget=budget
        ), budget, stop_after, spend_after))
    expected, actual = runs
    assert actual == expected
    return expected


def _consume(candidates, budget, stop_after=None, spend_after=None):
    """Take candidates, stopping after *stop_after*, or marking the budget
    spent after *spend_after* and reading on; return them and the flag."""
    taken = []
    for candidate in candidates:
        taken.append(getattr(candidate, "values", candidate))
        if len(taken) == spend_after:
            budget.exhausted = True
        if stop_after is not None and len(taken) >= stop_after:
            break
    return taken, budget.exhausted


class TestRemainderVector:
    def test_theorem1_soundness(self):
        # r_i != r_j  =>  h_i != h_j for any prime p.
        p = 11
        for h_i in range(0, 200, 7):
            for h_j in range(0, 200, 13):
                if h_i % p != h_j % p:
                    assert h_i != h_j

    def test_values(self):
        assert remainder_vector([23, 11, 7], 11) == (1, 0, 7)

    def test_counter(self):
        counter = OpCounter()
        remainder_vector([1, 2, 3], 11, counter)
        assert counter.get("M") == 3

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            remainder_vector([1], 1)


class TestBuckets:
    def test_groups_by_remainder(self):
        participant = [11, 22, 24, 35]  # mod 11: 0, 0, 2, 2
        buckets = build_buckets((0, 2, 5), participant, 11)
        assert buckets[0] == [0, 1]
        assert buckets[1] == [2, 3]
        assert buckets[2] == []

    def test_single_pass_mod_count(self):
        counter = OpCounter()
        build_buckets((0, 1, 2, 3), [10, 20, 30], 11, counter)
        assert counter.get("M") == 3  # m_k reductions, not m_t * m_k


class TestIsCandidate:
    def test_exact_subset_is_candidate(self):
        request = [100, 200, 300]
        participant = sorted([100, 200, 300, 999])
        remainders = remainder_vector(request, 11)
        assert is_candidate(remainders, _mask(3, 3), 0, participant, 11)

    def test_missing_necessary_rejected(self):
        request = [100, 200]
        participant = [200]  # 100 mod 11 = 1 missing (200 mod 11 = 2)
        remainders = remainder_vector(request, 11)
        assert not is_candidate(remainders, _mask(2, 2), 0, participant, 11)

    def test_gamma_tolerates_missing_optional(self):
        request = sorted([100, 215, 333])
        participant = sorted([100, 215])
        remainders = remainder_vector(request, 11)
        mask = _mask(0, 3)
        assert not is_candidate(remainders, mask, 0, participant, 11)
        assert is_candidate(remainders, mask, 1, participant, 11)

    def test_order_violation_rejected(self):
        # Participant owns values whose remainders match but only in the
        # wrong order: position 0 wants r=5, position 1 wants r=1; the only
        # owner of r=5 sits *after* the only owner of r=1.
        request = [16, 23]  # sorted; mod 11 -> (5, 1)
        participant = [12, 27]  # mod 11 -> (1, 5): index of r=5 is 1, r=1 is 0
        remainders = remainder_vector(request, 11)
        # select pos0 -> idx1 (value 27), then pos1 needs idx > 1 with r=1: none.
        assert not is_candidate(remainders, _mask(2, 2), 0, participant, 11)

    def test_strict_mode_forces_nonempty_bucket_assignment(self):
        # Position 1 optional with colliding bucket entry; strict mode must
        # assign it, robust mode may skip it.
        request = [100, 211]  # mod 11: (1, 2)
        participant = [12, 13]  # mod 11: (1, 2) -- 13 collides with 211
        remainders = remainder_vector(request, 11)
        mask = (True, False)
        assert is_candidate(remainders, mask, 1, participant, 11, mode="strict")
        assert is_candidate(remainders, mask, 1, participant, 11, mode="robust")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            is_candidate((0,), (True,), 0, [11], 11, mode="bogus")


class TestEnumerateCandidates:
    def test_exact_match_enumerated(self):
        request = sorted([1001, 2002, 3003])
        participant = sorted(request + [4004])
        remainders = remainder_vector(request, 11)
        candidates = enumerate_candidates(remainders, _mask(3, 3), 0, participant, 11)
        assert tuple(request) in {c.values for c in candidates}

    def test_true_combination_present_under_collisions(self):
        p = 11
        request = sorted([100, 211])  # both ≡ 1 mod 11... 100%11=1, 211%11=2
        participant = sorted([100, 111, 211])  # 111 ≡ 1 collides with 100
        remainders = remainder_vector(request, p)
        candidates = enumerate_candidates(remainders, _mask(2, 2), 0, participant, p)
        assert tuple(request) in {c.values for c in candidates}

    def test_unknown_positions_marked(self):
        request = sorted([100, 215, 333])
        participant = sorted([100, 215])
        remainders = remainder_vector(request, 11)
        candidates = enumerate_candidates(remainders, _mask(0, 3), 1, participant, 11)
        assert any(c.unknown_indices for c in candidates)
        for c in candidates:
            assert len(c.unknown_indices) <= 1

    def test_budget_caps_results(self):
        # Adversarial request: every position accepts every participant value.
        p = 11
        participant = sorted(11 * i for i in range(1, 30))  # all ≡ 0 mod 11
        remainders = tuple([0] * 5)
        budget = EnumerationBudget(max_candidates=10, max_visits=10_000)
        candidates = enumerate_candidates(
            remainders, _mask(0, 5), 4, participant, p, budget=budget
        )
        assert len(candidates) <= 10
        assert budget.exhausted

    def test_visit_budget_caps_search(self):
        p = 11
        participant = sorted(11 * i for i in range(1, 40))
        remainders = tuple([0] * 6)
        budget = EnumerationBudget(max_candidates=10**9, max_visits=500)
        candidates = enumerate_candidates(remainders, _mask(0, 6), 5, participant, p, budget=budget)
        assert budget.exhausted
        reference = EnumerationBudget(max_visits=500)
        expected = list(_deepening_reference(
            remainders, _mask(0, 6), 5, participant, p, mode="robust", budget=reference
        ))
        assert reference.exhausted
        assert expected  # the budget binds after some candidates, not before
        assert [c.values for c in candidates] == expected

    def test_no_candidates_for_stranger(self):
        request = [5, 16, 27]  # all ≡ 5 mod 11
        participant = [7, 18]  # all ≡ 7 mod 11
        remainders = remainder_vector(request, 11)
        assert enumerate_candidates(remainders, _mask(3, 3), 0, participant, 11) == []

    def test_strict_vs_robust_candidate_sets(self):
        # Robust mode is a superset of strict mode.
        request = sorted([100, 211, 322])
        participant = sorted([100, 111, 322])
        remainders = remainder_vector(request, 11)
        mask = _mask(1, 3)
        strict = {
            c.values
            for c in enumerate_candidates(remainders, mask, 2, participant, 11, mode="strict")
        }
        robust = {
            c.values
            for c in enumerate_candidates(remainders, mask, 2, participant, 11, mode="robust")
        }
        assert strict <= robust


class TestAgreementProperty:
    @given(
        data=st.data(),
        n_request=st.integers(min_value=1, max_value=6),
        n_participant=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_check_agrees_with_enumeration(self, data, n_request, n_participant):
        """is_candidate is exactly 'enumeration finds >= 1 candidate'."""
        p = 11
        request = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=500),
                    min_size=n_request,
                    max_size=n_request,
                    unique=True,
                )
            )
        )
        participant = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=500),
                    min_size=n_participant,
                    max_size=n_participant,
                    unique=True,
                )
            )
        )
        alpha = data.draw(st.integers(min_value=0, max_value=n_request))
        gamma = data.draw(st.integers(min_value=0, max_value=n_request - alpha))
        mask = _mask(alpha, n_request)
        remainders = remainder_vector(request, p)
        for mode in ("strict", "robust"):
            fast = is_candidate(remainders, mask, gamma, participant, p, mode=mode)
            full = enumerate_candidates(remainders, mask, gamma, participant, p, mode=mode)
            assert fast == (len(full) > 0)


class TestDeviationOrderOracle:
    """The single walk reproduces iterative deepening exactly: same
    candidates in the same order, and the same ``budget.exhausted``, for
    budget-bound and unbounded inputs alike, for budgets spent before the
    walk, and for consumers that stop early or spend the budget."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_iterative_deepening(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11]), label="p")
        m_t = data.draw(st.integers(min_value=0, max_value=8), label="m_t")
        participant = sorted(data.draw(
            st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=14, unique=True),
            label="participant",
        ))
        # Mostly remainders the participant owns, so candidates exist.
        owned = sorted({v % p for v in participant}) or [0]
        remainders = tuple(data.draw(
            st.lists(
                st.sampled_from(owned) | st.integers(min_value=0, max_value=p - 1),
                min_size=m_t, max_size=m_t,
            ),
            label="remainders",
        ))
        mask = tuple(data.draw(
            st.lists(st.sampled_from([False, False, False, True]), min_size=m_t, max_size=m_t),
            label="necessary_mask",
        ))
        gamma = data.draw(st.sampled_from(range(-1, m_t + 1)), label="gamma")
        mode = data.draw(st.sampled_from(["strict", "robust"]), label="mode")
        max_visits = data.draw(
            st.integers(min_value=1, max_value=300)
            | st.integers(min_value=1, max_value=DEFAULT_MAX_VISITS),
            label="max_visits",
        )
        exhausted = data.draw(st.sampled_from([False] * 7 + [True]), label="exhausted_on_entry")
        stop_after = data.draw(st.none() | st.integers(min_value=1, max_value=5), label="stop_after")
        spend_after = data.draw(st.none() | st.integers(min_value=1, max_value=3), label="spend_after")

        _assert_matches_deepening(
            remainders, mask, gamma, participant, p, mode, max_visits,
            exhausted, stop_after, spend_after,
        )

    def test_matches_iterative_deepening_on_seeded_requests(self):
        # A seeded sweep biased toward collisions, so that budget-bound
        # walks which already yielded candidates are common, not rare.
        rng = random.Random(31)
        bound_after_candidates = 0
        for _ in range(2500):
            p = rng.choice([3, 5, 7, 11])
            m_t = rng.randint(0, 9)
            participant = sorted(rng.sample(range(300), rng.randint(0, 16)))
            remainders = tuple(rng.randrange(p) for _ in range(m_t))
            mask = tuple(rng.random() < 0.15 for _ in range(m_t))
            gamma = rng.randint(-1, m_t)
            mode = rng.choice(["strict", "robust"])
            max_visits = rng.choice([1, 5, 20, 60, 200, 1000, DEFAULT_MAX_VISITS])
            stop_after = rng.choice([None, None, 1, 3])
            spend_after = rng.choice([None, None, None, 1, 2])
            exhausted = rng.random() < 0.05
            taken, exhausted_after = _assert_matches_deepening(
                remainders, mask, gamma, participant, p, mode, max_visits,
                exhausted, stop_after, spend_after,
            )
            if taken and exhausted_after and not (exhausted or spend_after):
                bound_after_candidates += 1
        assert bound_after_candidates >= 60  # 73 with this seed


class TestBucketIndex:
    def test_index_matches_direct_bucketing(self):
        values = [3, 14, 25, 17, 8]
        p = 11
        remainders = remainder_vector(values, p)
        index = bucket_index(values, p)
        assert buckets_for(remainders, index) == build_buckets(remainders, values, p)

    def test_prebuilt_buckets_give_identical_results(self):
        values = (10, 21, 33, 47, 52)
        request = (10, 33, 52)
        p = 11
        remainders = remainder_vector(request, p)
        mask = (True, False, False)
        buckets = build_buckets(remainders, values, p)
        assert is_candidate(remainders, mask, 1, values, p) == is_candidate(
            remainders, mask, 1, values, p, buckets=buckets
        )
        direct = [c.values for c in enumerate_candidates(remainders, mask, 1, values, p)]
        via_index = []
        budget = EnumerationBudget()
        for candidate in iter_candidates(
            remainders, mask, 1, values, p, budget=budget, buckets=buckets
        ):
            via_index.append(candidate.values)
        assert direct == via_index

    def test_missing_remainder_maps_to_empty_bucket(self):
        index = bucket_index([5], 7)
        assert buckets_for((3,), index) == [[]]


class TestHostileGamma:
    """A wire-decodable package can imply gamma < 0 (beta > optional count);
    the fast check must reject it as a plain non-candidate, never crash."""

    def test_negative_gamma_matches_dict_dp_semantics(self):
        # The participant owns a value congruent to the remainder, so the
        # DP takes the bucket-assignment branch -- the path that used to
        # index an empty new_state row and crash.  Negative gamma only
        # forbids unknowns; a fully-assigned candidate is still feasible,
        # exactly as the original dict-based DP answered.
        assert is_candidate([1], [False], -1, [1], 5) is True
        assert is_candidate([2], [False], -1, [1], 5) is False

    def test_negative_gamma_never_enumerates(self):
        assert list(iter_candidates([1], [False], -1, [1], 5)) == []

    def test_zero_gamma_exact_match_still_passes(self):
        assert is_candidate([1], [False], 0, [1], 5) is True
