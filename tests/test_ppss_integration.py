"""Integration tests: private groups, PPSS gossip, persistence, elections."""

import pytest

from repro.core.ppss import MemberState
from repro.harness import World, WorldConfig


def build_group(count=60, members=10, seed=41, warmup=120.0, settle=400.0):
    world = World(WorldConfig(seed=seed))
    world.populate(count)
    world.start_all()
    world.run(warmup)
    nodes = world.alive_nodes()
    leader = nodes[0]
    group = leader.create_group("g")
    joined = [leader]
    for node in nodes[1 : members]:
        node.join_group(group.invite(node.node_id))
        joined.append(node)
    world.run(settle)
    return world, joined


@pytest.fixture(scope="module")
def grouped():
    return build_group()


class TestGroupMembership:
    def test_all_members_join(self, grouped):
        _world, members = grouped
        for member in members:
            assert member.group("g").state is MemberState.MEMBER

    def test_members_hold_passports(self, grouped):
        _world, members = grouped
        for member in members:
            ppss = member.group("g")
            assert ppss.passport is not None
            assert ppss.passport.member_id == member.node_id

    def test_members_share_group_key(self, grouped):
        _world, members = grouped
        fingerprints = {
            member.group("g").keyring.current.fingerprint for member in members
        }
        assert len(fingerprints) == 1

    def test_private_views_converge(self, grouped):
        _world, members = grouped
        for member in members:
            ppss = member.group("g")
            expected = min(ppss.config.view_size, len(members) - 1)
            assert ppss.view_size() >= expected - 1

    def test_private_views_only_contain_members(self, grouped):
        _world, members = grouped
        ids = {member.node_id for member in members}
        for member in members:
            for contact in member.group("g").view_contacts():
                assert contact.node_id in ids

    def test_exchanges_succeed(self, grouped):
        _world, members = grouped
        total = sum(m.group("g").stats.exchanges_started for m in members)
        done = sum(m.group("g").stats.exchanges_completed for m in members)
        assert total > 0
        assert done > 0.85 * total

    def test_get_peer_samples_members(self, grouped):
        _world, members = grouped
        ids = {member.node_id for member in members}
        peer = members[0].group("g").get_peer()
        assert peer is not None and peer.node_id in ids

    def test_natted_member_contacts_carry_gateways(self, grouped):
        _world, members = grouped
        for member in members:
            for contact in member.group("g").view_contacts():
                if not contact.is_public:
                    assert len(contact.gateways) >= 1

    def test_invalid_accreditation_is_ignored(self, grouped):
        world, members = grouped
        leader = members[0]
        outsider = next(
            n for n in world.alive_nodes()
            if "g" not in n.groups
        )
        genuine = leader.group("g").invite(outsider.node_id)
        import dataclasses
        forged_acc = dataclasses.replace(
            genuine.accreditation, invitee=outsider.node_id, nonce=999999,
        )
        forged = dataclasses.replace(genuine, accreditation=forged_acc)
        outsider.join_group(forged)
        world.run(120.0)
        assert outsider.group("g").state is MemberState.JOINING
        outsider.leave_group("g")

    def test_authorize_join_admits_without_accreditation(self, grouped):
        world, members = grouped
        leader = members[0]
        recruit = next(
            n for n in world.alive_nodes()
            if "g" not in n.groups
        )
        leader.group("g").authorize_join(recruit.node_id)
        import dataclasses
        invitation = leader.group("g").invite(recruit.node_id)
        # Strip the accreditation: authorization alone must suffice.
        bare = dataclasses.replace(
            invitation,
            accreditation=dataclasses.replace(
                invitation.accreditation, signature=("bogus",), nonce=0,
            ),
        )
        recruit.join_group(bare)
        world.run(150.0)
        assert recruit.group("g").state is MemberState.MEMBER


class TestMultipleGroups:
    def test_groups_are_isolated(self):
        world, members = build_group(count=60, members=8, seed=43)
        # A second, disjoint group.
        others = [
            n for n in world.alive_nodes() if "g" not in n.groups
        ][:6]
        leader2 = others[0]
        g2 = leader2.create_group("h")
        for node in others[1:]:
            node.join_group(g2.invite(node.node_id))
        world.run(400.0)
        g_ids = {m.node_id for m in members}
        h_ids = {o.node_id for o in others}
        for member in members:
            view = {c.node_id for c in member.group("g").view_contacts()}
            assert view <= g_ids
        for other in others:
            if other.group("h").state is MemberState.MEMBER:
                view = {c.node_id for c in other.group("h").view_contacts()}
                assert view <= h_ids

    def test_node_in_two_groups(self):
        world, members = build_group(count=60, members=6, seed=44)
        bridge = members[2]
        outsiders = [n for n in world.alive_nodes() if "g" not in n.groups][:4]
        leader2 = outsiders[0]
        g2 = leader2.create_group("h")
        bridge.join_group(g2.invite(bridge.node_id))
        for node in outsiders[1:]:
            node.join_group(g2.invite(node.node_id))
        world.run(400.0)
        assert bridge.group("g").state is MemberState.MEMBER
        assert bridge.group("h").state is MemberState.MEMBER
        # The bridge's h-view never leaks g-only members.
        g_only = {m.node_id for m in members} - {bridge.node_id}
        h_view = {c.node_id for c in bridge.group("h").view_contacts()}
        assert not (h_view & g_only)


class TestPersistentPaths:
    def test_make_persistent_and_refresh(self, grouped):
        world, members = grouped
        ppss = members[1].group("g")
        # make_persistent needs a partner in the private view: take one.
        contacts = ppss.view_contacts()
        assert contacts, "a settled member has a non-empty private view"
        partner = contacts[0].node_id
        assert ppss.make_persistent(partner)
        assert partner in ppss.persistent_ids()
        world.run(300.0)  # a few refresh periods
        contact = ppss.persistent_contact(partner)
        assert contact is not None
        assert contact.node_id == partner

    def test_pin_contact(self, grouped):
        _world, members = grouped
        a = members[3]
        contact = members[4].group("g").self_contact()
        a.group("g").pin_contact(contact)
        assert contact.node_id in a.group("g").persistent_ids()

    def test_make_persistent_unknown_node(self, grouped):
        _world, members = grouped
        assert members[1].group("g").make_persistent(999_999) is False


class TestAppChannel:
    def test_app_payload_roundtrip(self, grouped):
        world, members = grouped
        sender, receiver = members[1], members[2]
        inbox = []
        receiver.group("g").set_app_handler(
            lambda payload, reply_to: inbox.append((payload, reply_to))
        )
        target = receiver.group("g").self_contact()
        assert sender.group("g").send_app(target, {"op": "ping"}, 64)
        world.run(30.0)
        assert inbox
        payload, reply_to = inbox[0]
        assert payload == {"op": "ping"}
        assert reply_to is not None and reply_to.node_id == sender.node_id

    def test_app_reply_via_shipped_contact(self, grouped):
        world, members = grouped
        sender, receiver = members[3], members[4]
        answers = []
        sender.group("g").set_app_handler(
            lambda payload, reply_to: answers.append(payload)
        )

        def serve(payload, reply_to):
            receiver.group("g").send_app(
                reply_to, {"op": "pong"}, 64, include_self_contact=False
            )

        receiver.group("g").set_app_handler(serve)
        sender.group("g").send_app(
            receiver.group("g").self_contact(), {"op": "ping"}, 64
        )
        world.run(30.0)
        assert answers == [{"op": "pong"}]
