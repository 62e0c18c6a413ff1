"""Byte-level pins of the contractual outputs.

Each case hashes one output (a sim CSV, an ``ifdma alloc --json`` or an
``ifdma states --json`` document) and compares the SHA-256 with a pin
taken before the allocator was reworked onto one split and one commit
routine.  The sim pins include the random policy, so they also pin its
RNG draw order.  A refactor that is meant to keep behaviour must leave
every pin as it is; a deliberate change of behaviour updates the pin
and says why in CHANGES.md.
"""

import hashlib
import io

import pytest

from ifdma.cli import main
from ifdma.sim import POLICIES, SimConfig, TrafficModel, run, write_csv

SIM_MIXES = {
    "full": TrafficModel.full_mix(4, G=0.8),
    "limited": TrafficModel.limited_mix(6, G=0.9),
}

SIM_PINS = {
    ("min_small_change", "full"):
        "3ae2e2a8bc193653d85b193057a84a6c2f056d95f28c6a246c5a8b53dd83940c",
    ("min_small_change", "limited"):
        "258550c7083a8ff5e9605ef17bbca4fcb4d7b9db50dc45b1acf1cb58ac931b22",
    ("random", "full"):
        "57684afdf4dffc11570d6fe39fe8ae044a2832bf401f47f9f366be7b30bfb468",
    ("random", "limited"):
        "5a5ad6bdffe5ae4ab37e5f37d91a7df4c203acc909c3013b3a1f17e665a0f894",
    ("ofdma", "full"):
        "a4dbcc070af26d731c86e892e03e93145ad305b8d56b26894d94454ccd58e67b",
    ("ofdma", "limited"):
        "40b88d7003001eb499e831c086f09551bef684e980978a4f7582746ac8dcd937",
    ("multistream", "full"):
        "f29234570425fcfab314b4858563eb936571d8e219ea23ab84f364e74c9ef2e1",
    ("multistream", "limited"):
        "de1aec28659d8f14655964fb0c2d203268c5043eda74ba1ada8724cc6a7cad88",
}

CLI_PINS = {
    "alloc-sort-first": (
        ["alloc", "--m", "5", "--requests", "A:4,B:1,C:8,D:2,E:1,F:4,G:2,H:8",
         "--policy", "sort-first", "--json"],
        "2750a7946d694b46a30d861ba3e5ced805cd8a80c42e42357b1088bda85881a0",
    ),
    "alloc-min-small-change": (
        ["alloc", "--m", "5", "--requests", "A:1,B:4,C:2,D:8,E:1,F:2,G:4,H:1",
         "--policy", "min-small-change", "--json"],
        "941adfcc207b42b93c4e38ad8057efe703afe0f43d5dc9dc693e320cbf3fdaff",
    ),
    "alloc-dc": (
        ["alloc", "--m", "4", "--dc", "5", "--requests", "A:2,B:4,C:1,D:4,E:2,F:1",
         "--json"],
        "37cf5f4299a06b1a270cfdd8964256f063e5a984ed84b3cf6e2b3be3793b8c58",
    ),
    "alloc-multistream": (
        ["alloc", "--m", "5", "--requests", "A:7,B:5,C:3,D:11,E:1,F:2",
         "--multistream", "--json"],
        "c1c3afa3a20472aad103ac6abf7461425a72acdf322963a8a1dbb42610699381",
    ),
    "alloc-radices": (
        ["alloc", "--radices", "2,3,2", "--requests", "A:1,B:2,C:6,D:1,E:2",
         "--policy", "min-small-change", "--json"],
        "f046c7b1094c276de79f54fb88590a14083aa800f22798c100ad1ea43d6f0843",
    ),
    "states-reachable-min": (
        ["states", "--m", "3", "--mode", "reachable", "--policy", "min-small-change",
         "--json"],
        "e24bd9dc92398eee20706fceb859480307e833b3b2b2af769ff70fc750de8aec",
    ),
    "states-reachable-random": (
        ["states", "--m", "3", "--mode", "reachable", "--policy", "random", "--json"],
        "5e893eae4f840f343e2584271dc5644741ce6ff6886a0f5105217b272899f49e",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_csv(policy: str, mix: str) -> str:
    cfg = SimConfig(SIM_MIXES[mix], policy, seed=11, warmup_time=2.0,
                    measure_time=50.0, replications=3)
    buf = io.StringIO()
    write_csv([run(cfg)], buf)
    return buf.getvalue()


def cli_output(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mix", sorted(SIM_MIXES))
def test_sim_csv_pin(policy, mix):
    assert sha256(sim_csv(policy, mix)) == SIM_PINS[policy, mix]


@pytest.mark.parametrize("case", sorted(CLI_PINS))
def test_cli_json_pin(capsys, case):
    argv, pin = CLI_PINS[case]
    assert sha256(cli_output(capsys, argv)) == pin
