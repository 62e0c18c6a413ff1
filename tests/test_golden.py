"""Byte-level pins of the contractual outputs.

Each case hashes one output (a sim CSV, every field of a ``SimMetrics``,
the stdout of ``ifdma sim``, or the stdout of ``ifdma map``, ``alloc``
or ``states`` in text and ``--json`` form) and compares the SHA-256 with
a pin taken before the code that produces it was reworked.  The sim pins
include the random policy, so they also pin its RNG draw order.  A
refactor that is meant to keep behaviour must leave every pin as it is;
a deliberate change of behaviour updates the pin and says why in
CHANGES.md.  ``wave`` is left out: its error values depend on the last
bits of the FFT.
"""

import dataclasses
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

# every SimMetrics field, including those the CSV leaves out
METRICS_PINS = {
    ("min_small_change", "full"):
        "0947546592cb93711dfdb222766fadcadcdf4b1900ec2b8d84e65c56ac21c496",
    ("random", "full"): "e98b0b9d56cf57ca4e93878ed90ef382a6edf4efc04afa299484b0f5cb369c41",
    ("ofdma", "full"): "3c6667d5ac560f6df1a40e60f7c44c9915a8675a56f0b458232f81cb70f16994",
    ("multistream", "full"): "3e8cd2d23df75c5a4bb329b7ca2a301012127e0c212bba625a804cc89f4a640a",
    ("min_small_change", "limited"):
        "90dd47c1f4505a9a9a6b0e4684b5f9356e15e8093165ffbc605b9269d423733f",
    ("random", "limited"): "24c1174cba13c0d2e3afb78a6d8a3f6a03ef86d191fc18b0a05311dcff2d161b",
    ("ofdma", "limited"): "924aec6131edef62fc704e440f5a38bc1810ee3b35b0539c332fe1d912cc07a4",
    ("multistream", "limited"): "ff2bc9d75b9e1a9fa501fdbc349ef9ae988286893a4435f1300ffb3559cbb12f",
}

# argv without --json; a case is run in JSON form, text form, or both
CLI_ARGV = {
    "alloc-sort-first": ["alloc", "--m", "5", "--requests",
                         "A:4,B:1,C:8,D:2,E:1,F:4,G:2,H:8", "--policy", "sort-first"],
    "alloc-min-small-change": ["alloc", "--m", "5", "--requests",
                               "A:1,B:4,C:2,D:8,E:1,F:2,G:4,H:1",
                               "--policy", "min-small-change"],
    "alloc-dc": ["alloc", "--m", "4", "--dc", "5", "--requests", "A:2,B:4,C:1,D:4,E:2,F:1"],
    "alloc-multistream": ["alloc", "--m", "5", "--requests", "A:7,B:5,C:3,D:11,E:1,F:2",
                          "--multistream"],
    "alloc-radices": ["alloc", "--radices", "2,3,2", "--requests", "A:1,B:2,C:6,D:1,E:2",
                      "--policy", "min-small-change"],
    "map-m3": ["map", "--m", "3"],
    "map-radices": ["map", "--radices", "2,3,2"],
    "map-index": ["map", "--m", "10", "--index", "513"],
    "states-fine": ["states", "--m", "3"],
    "states-super": ["states", "--m", "3", "--mode", "super"],
    "states-fine-skipped": ["states", "--m", "6"],
    "states-super-skipped": ["states", "--m", "6", "--mode", "super"],
    "states-reachable-min": ["states", "--m", "3", "--mode", "reachable",
                             "--policy", "min-small-change"],
    "states-reachable-random": ["states", "--m", "3", "--mode", "reachable",
                                "--policy", "random"],
    "states-reachable-skipped": ["states", "--m", "5", "--mode", "reachable"],
}

CLI_PINS = {
    "alloc-sort-first": "2750a7946d694b46a30d861ba3e5ced805cd8a80c42e42357b1088bda85881a0",
    "alloc-min-small-change": "941adfcc207b42b93c4e38ad8057efe703afe0f43d5dc9dc693e320cbf3fdaff",
    "alloc-dc": "37cf5f4299a06b1a270cfdd8964256f063e5a984ed84b3cf6e2b3be3793b8c58",
    "alloc-multistream": "c1c3afa3a20472aad103ac6abf7461425a72acdf322963a8a1dbb42610699381",
    "alloc-radices": "f046c7b1094c276de79f54fb88590a14083aa800f22798c100ad1ea43d6f0843",
    "map-m3": "d71f51ab7cd6d6e24153c5e20895d37ab6143a3361383060b6d82c5300cd26e5",
    "map-radices": "fb0b8cf6362df60d6c70f0e8715718527c55464414162328343b51995df27434",
    "map-index": "ece78d4a9024086ff6db549d0383f99bd450aa8c5d52d91cecf2d8ea4cb2a5de",
    "states-fine": "3f1485cc91b13cf9609c0009d97cc7c128a7e892ddbe3c4d262455e2b1ae2c81",
    "states-super": "e27c2f23616ed486aa97cc86b396573b14378bce86970995e4b4944eb6f74d31",
    "states-fine-skipped": "9fc9192ab176c185fbfa36ad558f68f99fa8e5634b379b355dc0399e703d2072",
    "states-super-skipped": "52c4e28a037ddcaf6c6ff59f26366b3afba9e0deeb1a68d121651f1cee139968",
    "states-reachable-min": "e24bd9dc92398eee20706fceb859480307e833b3b2b2af769ff70fc750de8aec",
    "states-reachable-random": "5e893eae4f840f343e2584271dc5644741ce6ff6886a0f5105217b272899f49e",
    "states-reachable-skipped": "9e187823766f6a6ebad6bc0bdc31fb7b9dd79f86d6af9bd0940a94305c3edc2c",
}

TEXT_PINS = {
    "alloc-sort-first": "af1c8ada72eb06bfe316f812fbf89c8e9acf6e73d18be66a652a4f19baade52b",
    "alloc-min-small-change": "fdb76df692c4185ee5cdf7ff103ba2b1102bdf2c5e6bf009fc39a2d91102b505",
    "alloc-dc": "c3652e92af7506993dff21c713e98da408819d900ac7486b9088808975fa79f9",
    "alloc-multistream": "1286ef50e701cb35f4dc3aed8bcfc5b6a6dbd61bf4680cf7d52444568990c1fd",
    "alloc-radices": "4c3ad51500acc5bb9324df2f7f5f3418507f42f4cedeacfb10cb0c0fc17c46f8",
    "map-m3": "665d8d22789ff86252c6139d35deb8b7687902e8c1c557acc8560d27a55e0c96",
    "map-radices": "38b2ffdf04fc923e6424aaa25f834de0eb55d0debd3c03bb9cf4bc988a6f5939",
    "map-index": "e3e2defb97c26dfa7787238d85861937eb1e507fd7e1382d5065cfe7eba75d17",
    "states-fine": "87661264ae5d23ab47b2be2258de44126b40218b09ec1ee7ce1ed82b680a8e0b",
    "states-super": "e937e0d38baeac592c96188898bb9ebae9998b718577d44be70d04262472127f",
    "states-fine-skipped": "ee089a354878642a63f6d52fc3f796c667112e0c911c09797988ce9211a0f4d1",
    "states-super-skipped": "d3967e85085a6513f7e756ecfab156b534280e8a61cfe5c06b6f8cb8995650cc",
    "states-reachable-min": "10a483c228e96a210d861d4bbf797f0dd47e09b3f4fea39d1d66fb432a66ace1",
    "states-reachable-random": "936dfc927c3809b4c94e35381df1d30b4a06141faf869c555a2be459ad00dcb8",
    "states-reachable-skipped": "0337f3c0d4f4264041f9988e3d78ceda61315c94231ecc83e8e73c3e8d511195",
}

SIM_CONFIG = ('{"m": 3, "mix": "full", "G": [0.4, 0.9], "seed": 5, '
              '"policies": ["min_small_change", "random", "ofdma", "multistream"], '
              '"warmup_time": 2, "measure_time": 40, "replications": 2}')

SIM_STDOUT_PINS = {
    "json": "ee3c01e005083e2eab8aba23761b76141fcff425334aca9340081289d8c68dc3",
    "text": "f453d713f300177535cfd8aebe03613e592ccec869a12fb9a85b2df89d3e6651",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_result(policy: str, mix: str):
    cfg = SimConfig(SIM_MIXES[mix], policy, seed=11, warmup_time=2.0,
                    measure_time=50.0, replications=3)
    return run(cfg)


def sim_csv(policy: str, mix: str) -> str:
    buf = io.StringIO()
    write_csv([sim_result(policy, mix)], buf)
    return buf.getvalue()


def cli_output(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def sim_stdout(capsys, tmp_path, monkeypatch, form: str) -> str:
    # a relative --out keeps the "wrote N rows to ..." line the same everywhere
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(SIM_CONFIG)
    argv = ["sim", "--config", "config.json", "--out", "out.csv"]
    return cli_output(capsys, argv + ["--json"] if form == "json" else argv)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mix", sorted(SIM_MIXES))
def test_sim_csv_pin(policy, mix):
    assert sha256(sim_csv(policy, mix)) == SIM_PINS[policy, mix]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mix", sorted(SIM_MIXES))
def test_sim_metrics_pin(policy, mix):
    fields = dataclasses.astuple(sim_result(policy, mix))
    assert sha256(repr(fields)) == METRICS_PINS[policy, mix]


@pytest.mark.parametrize("form", sorted(SIM_STDOUT_PINS))
def test_sim_stdout_pin(capsys, tmp_path, monkeypatch, form):
    assert sha256(sim_stdout(capsys, tmp_path, monkeypatch, form)) == SIM_STDOUT_PINS[form]


@pytest.mark.parametrize("case", sorted(CLI_PINS))
def test_cli_json_pin(capsys, case):
    assert sha256(cli_output(capsys, CLI_ARGV[case] + ["--json"])) == CLI_PINS[case]


@pytest.mark.parametrize("case", sorted(TEXT_PINS))
def test_cli_text_pin(capsys, case):
    assert sha256(cli_output(capsys, CLI_ARGV[case])) == TEXT_PINS[case]
