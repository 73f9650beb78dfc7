"""Cross-module integration: dataset -> protocols -> network -> channels."""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.channel import SecureChannel
from repro.core.matching import process_request
from repro.core.protocols import Initiator, Participant
from repro.dataset.weibo import WeiboGenerator
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology


@pytest.fixture(scope="module")
def population():
    return WeiboGenerator(n_users=300, tag_vocabulary=800, seed=99).generate()


class TestPopulationMatching:
    """Protocol outcomes agree with plaintext ground truth over a population."""

    def test_protocol2_agrees_with_ground_truth(self, population):
        target = population[0]
        request = RequestProfile.with_threshold(
            necessary=(), optional=[f"tag:{t}" for t in target.tags],
            theta=0.6, normalized=True,
        )
        initiator = Initiator(request, protocol=2, rng=random.Random(1))
        package = initiator.create_request(now_ms=0)
        mismatches = 0
        for user in population[1:80]:
            profile = user.profile()
            participant = Participant(profile, rng=random.Random(2))
            reply = participant.handle_request(package, now_ms=1)
            verified = (
                initiator.handle_reply(reply, now_ms=2) is not None if reply else False
            )
            if verified != request.matches(profile):
                mismatches += 1
        assert mismatches == 0

    def test_candidates_superset_of_matches(self, population):
        target = population[3]
        request = RequestProfile.with_threshold(
            necessary=(), optional=[f"tag:{t}" for t in target.tags],
            theta=0.5, normalized=True,
        )
        initiator = Initiator(request, protocol=2, rng=random.Random(7))
        package = initiator.create_request(now_ms=0)
        for user in population[1:60]:
            profile = user.profile()
            outcome = process_request(profile, package)
            if request.matches(profile):
                assert outcome.candidate


class TestNetworkedFriending:
    def test_weibo_population_over_geometric_network(self, population):
        adjacency, _ = city_topology(60, radius=0.22, seed=11)
        nodes = list(adjacency)
        users = population[: len(nodes)]
        target_tags = [f"tag:{t}" for t in users[10].tags]

        participants = {}
        for node, user in zip(nodes, users):
            profile = Profile(
                user.profile().attributes, user_id=node, normalized=True
            )
            participants[node] = Participant(profile, rng=random.Random(5))
        participants[nodes[0]] = None

        request = RequestProfile.with_threshold(
            necessary=(), optional=target_tags, theta=0.99, normalized=True
        )
        initiator = Initiator(request, protocol=2, rng=random.Random(6))
        network = AdHocNetwork(adjacency, participants)
        result = network.run_friending(nodes[0], initiator, start_ms=0)

        expected = {
            node
            for node, user in zip(nodes, users)
            if node != nodes[0] and request.matches(user.profile())
        }
        assert set(result.matched_ids) == expected
        assert expected  # the target user itself is in the population

    def test_channel_works_after_networked_match(self, population):
        adjacency, _ = city_topology(30, radius=0.3, seed=13)
        nodes = list(adjacency)
        match_profile = Profile(["tag:aa", "tag:bb"], user_id=nodes[5], normalized=True)
        participants = {node: None for node in nodes}
        by_node = {}
        for node in nodes[1:]:
            profile = (
                match_profile
                if node == nodes[5]
                else Profile([f"tag:{node}"], user_id=node, normalized=True)
            )
            by_node[node] = Participant(profile, rng=random.Random(8))
            participants[node] = by_node[node]
        participants[nodes[0]] = None

        initiator = Initiator(
            RequestProfile.exact(["tag:aa", "tag:bb"], normalized=True),
            protocol=2,
            rng=random.Random(9),
        )
        network = AdHocNetwork(adjacency, participants)
        result = network.run_friending(nodes[0], initiator)
        assert result.matched_ids == [nodes[5]]
        record = result.matches[0]

        message = SecureChannel(record.session_key).send(b"rendezvous?")
        package_id = initiator.secret.request_id
        received = []
        for key in by_node[nodes[5]].channel_keys(package_id):
            try:
                received.append(SecureChannel(key).receive(message))
            except Exception:
                continue
        assert b"rendezvous?" in received


class TestCommunityDiscovery:
    def test_group_key_reaches_all_matchers(self):
        request = RequestProfile.exact(["tag:club"], normalized=True)
        initiator = Initiator(request, protocol=2, rng=random.Random(20))
        package = initiator.create_request(now_ms=0)
        members = [
            Participant(
                Profile(["tag:club", f"tag:extra{i}"], user_id=f"m{i}", normalized=True),
                rng=random.Random(30 + i),
            )
            for i in range(4)
        ]
        for member in members:
            reply = member.handle_request(package, now_ms=1)
            assert initiator.handle_reply(reply, now_ms=2) is not None
        assert len(initiator.matches) == 4

        broadcast = SecureChannel.for_group(initiator.secret.x).send(b"meeting at 5")
        for member in members:
            xs = [x for x, _ in member._pending_secrets[package.request_id]]
            decrypted = []
            for x in xs:
                try:
                    decrypted.append(SecureChannel.for_group(x).receive(broadcast))
                except Exception:
                    continue
            assert b"meeting at 5" in decrypted
