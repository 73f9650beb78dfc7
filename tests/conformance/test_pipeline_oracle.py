"""The mini-peer as the candidate pipeline's oracle.

:class:`~repro.conformance.minipeer.MiniParticipant` enumerates candidates
with a plain recursive DFS and solves hints by Gaussian elimination over
``fractions.Fraction``, sharing no code with ``core/remainder.py`` or
``core/hint.py``.  Over drawn fuzzy requests whose remainders collide
(small p), :func:`~repro.core.matching.process_request` must reach the
same candidacy, recovered vectors and profile keys; and
:func:`~repro.core.hint.solve_candidate` must reject exactly the hints the
mini solver rejects, recovering equal values otherwise.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.conformance.minipeer import MiniHint, MiniParticipant, MiniWire
from repro.core.attributes import Profile, RequestProfile
from repro.core.exceptions import HintSolveError
from repro.core.hint import HintMatrix, solve_candidate
from repro.core.matching import build_request, process_request
from repro.core.profile_vector import ParticipantVector

pytestmark = pytest.mark.conformance

_VOCABULARY = [f"tag:t{i}" for i in range(24)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_process_request_agrees_with_the_mini_participant(data):
    tags = data.draw(
        st.lists(st.sampled_from(_VOCABULARY), min_size=2, max_size=7, unique=True), label="request"
    )
    n_necessary = data.draw(st.integers(min_value=0, max_value=len(tags) - 1), label="alpha")
    necessary, optional = tags[:n_necessary], tags[n_necessary:]
    beta = data.draw(
        st.integers(min_value=0 if necessary else 1, max_value=len(optional)), label="beta"
    )
    p = data.draw(st.sampled_from([11, 13]), label="p")  # > m_t; collisions galore
    owned = data.draw(st.lists(st.sampled_from(tags), unique=True), label="owned")
    others = data.draw(st.lists(st.sampled_from(_VOCABULARY), max_size=10), label="others")
    attributes = sorted(set(owned) | set(others))
    request = RequestProfile(necessary=necessary, optional=optional, beta=beta, normalized=True)
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    package, _ = build_request(request, protocol=2, p=p, rng=random.Random(seed))

    outcome = process_request(
        ParticipantVector.from_profile(Profile(attributes, normalized=True)), package
    )
    # The oracle's own caps sit far above anything these draws can reach.
    mini = MiniParticipant(attributes, "oracle", max_candidates=10**6, max_visits=10**7)
    expected = mini.process(MiniWire().decode_request(package.encode()))
    assume(not outcome.budget.exhausted)

    assert outcome.candidate == expected.candidate
    assert set(outcome.recovered_vectors) == set(expected.vectors)
    assert set(outcome.keys) == set(expected.keys)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_solve_candidate_agrees_with_the_fraction_exact_solver(data):
    gamma = data.draw(st.integers(min_value=1, max_value=4), label="gamma")
    beta = data.draw(st.integers(min_value=0, max_value=4), label="beta")
    width = gamma + beta
    hashes = st.integers(min_value=0, max_value=(1 << 256) - 1)
    values = data.draw(st.lists(hashes, min_size=width, max_size=width), label="values")
    entries = st.sampled_from([0, 0, 1, 2]) | st.integers(min_value=1, max_value=(1 << 32) - 1)
    r_block = tuple(
        tuple(data.draw(entries, label="R") for _ in range(beta)) for _ in range(gamma)
    )
    b_vector = tuple(
        values[i] + sum(r_block[i][j] * values[gamma + j] for j in range(beta))
        for i in range(gamma)
    )
    candidate: list[int | None] = list(values)
    unknown = data.draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), max_size=gamma + 1, unique=True),
        label="unknown",
    )
    for pos in unknown:
        candidate[pos] = None
    known = [pos for pos, value in enumerate(candidate) if value is not None]
    if known and data.draw(st.booleans(), label="corrupt"):
        candidate[data.draw(st.sampled_from(known), label="at")] = data.draw(hashes, label="wrong")

    expected = MiniParticipant((), "oracle")._solve_hint(
        MiniHint(gamma=gamma, beta=beta, r_block=r_block, b_vector=b_vector), list(candidate)
    )
    hint = HintMatrix(gamma=gamma, beta=beta, r_block=r_block, b_vector=b_vector)
    if expected is None:
        with pytest.raises(HintSolveError):
            solve_candidate(hint, candidate)
    else:
        assert solve_candidate(hint, candidate) == expected
