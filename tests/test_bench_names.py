"""The names the benchmark's tracer wraps exist, and ``restore()`` puts them back.

The benchmark in ``bench/`` times each layer by replacing names in the
modules that call them, so a renamed or dropped name breaks it.  This
test reads ``bench/`` and changes nothing under it.
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
