"""Forked builds: a cell on a fork equals a cell on a fresh copy.

A runner keeps the build it computed pristine and runs each cell on a
fork of it (:meth:`PhysicalDesign.fork`).  The fork owns what a policy,
retrim and analysis write; everything else is shared.  These tests pin
that contract three ways: a flow on a fork equals a flow on a freshly
unpickled copy bit for bit, and the pristine build still pickles to the
bytes the store holds; a fork owns every object the flow writes; and a
NO-NDR cell's skipped retrim equals a full one.  (CI's
observability-smoke job checks that a serial compare builds once and
forks three times.)
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.flow import PhysicalDesign, run_flow
from repro.core.policies import Policy
from repro.core.stages import (BuildMemo, BuildParams, PolicyParams,
                               build_stage, policy_stage, retrim_stage)
from repro.core.targets import RobustnessTargets
from repro.designs import DesignSpec, generate_design, iter_specs, spec_by_name
from repro.io.artifacts import ArtifactStore

#: Registered designs whose build cannot route (strict xfails elsewhere).
UNROUTABLE = {"soc_h256m", "imp_noc"}

#: A generated macro design that routes.
MACRO_SPEC = DesignSpec("fork_macro", n_sinks=48, die_edge=240.0,
                        n_blockages=3, seed=5)

FORK_DESIGNS = [pytest.param(spec_by_name(name), id=name)
                for name in ("ckt64", "soc_h64", "imp_uart")]
FORK_DESIGNS.append(pytest.param(MACRO_SPEC, id=MACRO_SPEC.name))

POLICIES = (Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY,
            Policy.SPACE_ONLY, Policy.RANDOM, Policy.SMART,
            Policy.SMART_SHIELD)


def _bytes(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _physical_state(physical: PhysicalDesign) -> tuple:
    """Every value the flow writes on a build, in a comparable form."""
    routing, extraction = physical.routing, physical.extraction
    wires = tuple(
        (w.wire_id, w.rule.name.value, w.shielded,
         extraction.wires[w.wire_id])
        for w in routing.clock_wires)
    trims = tuple((n.node_id, n.trim_pad, n.trim_snake, n.snake_r_per_um,
                   n.snake_c_per_um) for n in physical.tree)
    stages = tuple(
        (s.tree_node_id, s.pad_cap, s.snake_cap,
         tuple((n.idx, n.parent, n.wire_id, n.r, n.cap_fixed,
                tuple(n.cap_wire), n.tree_node_id) for n in s.nodes))
        for s in extraction.network.stages)
    refine = physical.refine
    timing = tuple((s.pin.full_name, s.arrival, s.slew)
                   for s in refine.timing.sinks)
    return (wires, trims, stages, timing, refine.iterations,
            refine.initial_skew, refine.final_skew, refine.added_pad_cap)


def _flow_state(flow) -> tuple:
    return (flow.summary(), flow.rule_histogram, flow.ndr_track_cost,
            _physical_state(flow.physical))


@pytest.mark.parametrize("spec", FORK_DESIGNS)
def test_flow_on_a_fork_equals_a_flow_on_an_unpickled_copy(
        spec, tech, tmp_path):
    design = generate_design(spec)
    store = ArtifactStore(tmp_path)
    memo = BuildMemo()
    build_stage(design, tech, store=store, memo=memo)
    pristine = memo.get(design, tech, BuildParams())
    assert pristine is not None
    (stored,) = store.disk_entries()
    original = stored[1].read_bytes()
    assert _bytes(pristine) == original

    reference = run_flow(design, tech, policy=Policy.ALL_NDR, store=store)
    budgets = {
        "period": RobustnessTargets.for_period(design.clock_period,
                                               tech.max_slew),
        "pegged": RobustnessTargets.from_reference(
            worst_delta=reference.analyses.crosstalk.worst_delta,
            skew_3sigma=reference.analyses.mc.skew_3sigma,
            max_slew=tech.max_slew, slack=0.15),
    }
    for policy in POLICIES:
        for label, targets in budgets.items():
            cell = BuildMemo()
            cell.put(design, tech, BuildParams(), pristine)
            on_fork = run_flow(design, tech, policy=policy, targets=targets,
                               memo=cell)
            on_copy = run_flow(design, tech, policy=policy, targets=targets,
                               store=store)
            assert _flow_state(on_fork) == _flow_state(on_copy), \
                (policy, label)
    assert _bytes(pristine) == original


def test_a_fork_owns_what_the_flow_writes(small_physical):
    fork = small_physical.fork()
    assert fork.design is small_physical.design
    assert fork.tech is small_physical.tech
    assert fork.cts.tree is fork.tree
    assert fork.extraction.routing is fork.routing
    assert fork.extraction.network is not small_physical.extraction.network
    pristine = {id(w) for w in small_physical.routing.clock_wires}
    assert not pristine & {id(w) for w in fork.routing.clock_wires}
    for wire in fork.routing.clock_wires:
        assert fork.routing.tracks.wire(wire.wire_id) is wire
    own = {id(w) for w in fork.routing.clock_wires}
    for wires in fork.routing.edge_wires.values():
        assert all(id(w) in own for w in wires)
    assert fork.routing.signal_wires[0] is small_physical.routing.signal_wires[0]
    assert not {id(n) for n in small_physical.tree} & {id(n) for n in fork.tree}


RETRIM_DESIGNS = [pytest.param(spec, id=spec.name) for spec in iter_specs()
                  if spec.n_sinks <= 512 and spec.name not in UNROUTABLE]


@pytest.mark.parametrize("spec", RETRIM_DESIGNS)
def test_skipped_retrim_equals_a_full_retrim(spec, tech):
    """A routing still on the build's rules keeps the build's trim."""
    design = generate_design(spec)
    memo = BuildMemo()
    build_stage(design, tech, memo=memo)
    pristine = memo.get(design, tech, BuildParams())
    targets = RobustnessTargets.for_period(design.clock_period,
                                           tech.max_slew)

    skipped = pristine.fork()
    policy_stage(skipped, targets, PolicyParams(policy=Policy.NO_NDR))
    full = pristine.fork()
    policy_stage(full, targets, PolicyParams(policy=Policy.NO_NDR))
    retrim_stage(full)
    assert full.extraction is not skipped.extraction
    assert _physical_state(skipped) == _physical_state(full)
