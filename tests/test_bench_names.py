"""The names the benchmark's tracer wraps exist, and ``restore()`` puts them back.

The benchmark in ``bench/`` times each layer by replacing names in the
modules that call them, so a renamed or dropped name breaks it.  These
tests read ``bench/`` and write nothing under it.
"""

from pathlib import Path

from ifdma import allocator, cli, sim, statespace

BENCH = Path(__file__).resolve().parent.parent / "bench"
OWNERS = (allocator, allocator.BinState, cli, sim, statespace)


def snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def changed(before: list[dict]) -> set[tuple[str, str]]:
    """(owner, name) of every attribute that is no longer the object it was."""
    return {(owner.__name__, name)
            for owner, old in zip(OWNERS, before)
            for name in old.keys() | vars(owner).keys()
            if vars(owner).get(name) is not old.get(name)}


def test_trace_wrappers_find_every_name_and_restore_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from tracer import Tracer

    before = snapshot()
    tracer = Tracer()
    try:
        # wrapping a missing name raises AttributeError here
        workloads._trace_cli(tracer)
        workloads._trace_sim(tracer, {"calls": 0, "grants": 0, "free_blocks": 0,
                                      "samples": 0})
        wrapped = changed(before)
        assert {("ifdma.statespace", "admit"), ("ifdma.statespace", "release"),
                ("ifdma.statespace", "state_tree"), ("ifdma.sim", "admit"),
                ("ifdma.sim", "admit_multistream"), ("ifdma.sim", "release"),
                ("BinState", "clone")} <= wrapped
        # the reachability search admits through the name the tracer wraps
        statespace.reachable_states(2, allocator.RANDOM)
        admits = tracer.name_id("allocator.admit")
        assert admits in tracer.name
    finally:
        tracer.restore()
    assert changed(before) == set()


def test_traced_sim_round_reaches_every_allocator_metric(monkeypatch, tmp_path):
    """A traced round of the short simulation gives every allocator and
    simulator layer metric a value above 0, as the benchmark's own tests
    require; a round that stops reaching ``sim.admit``, or whose sampled
    ``free_subsets`` call breaks, reads 0 or fails here."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from tracer import Tracer

    part = workloads.WORKLOADS["cli_tools"].slice
    assert isinstance(part, workloads.SimPart)
    tracer = Tracer()
    try:
        rnd = part.round(1, 0, tmp_path, tracer)  # SimPart.round writes nothing to its workdir
    finally:
        tracer.restore()
    assert [op.label for op in rnd.ops if op.failed] == []
    values = part.layer_metrics([rnd], [tracer.ops()])
    names = [k for k in values if k.startswith(("allocator.", "sim.self_s."))]
    assert len(names) == 4 * 3 + 4
    assert {k: v for k, v in values.items() if k in names and not v > 0} == {}
