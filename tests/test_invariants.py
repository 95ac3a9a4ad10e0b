"""Tests for the world-wide invariant checker."""

import pytest

from repro.churn import ChurnDriver, parse_script
from repro.harness import InvariantViolation, World, WorldConfig, check_invariants
from repro.pss.view import ViewEntry


class TestChecker:
    def test_healthy_world_passes(self):
        world = World(WorldConfig(seed=501))
        world.populate(50)
        world.start_all()
        world.run(150.0)
        assert check_invariants(world) == 50

    def test_world_with_groups_passes(self):
        world = World(WorldConfig(seed=502))
        world.populate(50)
        world.start_all()
        world.run(120.0)
        nodes = world.alive_nodes()
        group = nodes[0].create_group("inv")
        for node in nodes[1:6]:
            node.join_group(group.invite(node.node_id))
        world.run(300.0)
        check_invariants(world)

    def test_world_under_churn_passes(self):
        world = World(WorldConfig(seed=503))
        world.populate(60)
        world.start_all()
        world.run(100.0)
        ChurnDriver(world, parse_script("from 0s to 300s const churn 10% each 60s"))
        world.run(350.0)
        check_invariants(world)

    def test_detects_self_in_view(self):
        world = World(WorldConfig(seed=504))
        world.populate(20)
        world.start_all()
        world.run(100.0)
        node = world.alive_nodes()[0]
        corrupted = node.pss.view.entries()[:-1]
        corrupted.append(ViewEntry(descriptor=node.descriptor(), age=0))
        node.pss.view.replace_all(corrupted)
        with pytest.raises(InvariantViolation, match="contains self"):
            check_invariants(world)

    def test_detects_missing_pnode_floor(self):
        world = World(WorldConfig(seed=505))
        world.populate(40)
        world.start_all()
        world.run(150.0)
        node = world.natted_nodes()[0]
        capacity = node.pss.view.capacity
        n_entries = [
            ViewEntry(descriptor=other.descriptor(), age=0)
            for other in world.natted_nodes()[1:]
        ][:capacity]
        assert len(n_entries) == capacity  # 28 N-nodes, more than a view holds
        node.pss.view.replace_all(n_entries)
        with pytest.raises(InvariantViolation, match="P-node floor"):
            check_invariants(world)
