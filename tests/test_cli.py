"""End-to-end checks of the command-line surface: output text, JSON
canonicalization, and the stable exit codes (0 ok, 1 failed numeric check,
2 usage, 3 blocked)."""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ifdma.cli as cli
from ifdma.cli import main
from ifdma.sim import POLICIES

# bin -> subcarrier for a band of 8 (3-bit reversal)
PERM_M8 = (0, 4, 2, 6, 1, 5, 3, 7)


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def assert_canonical_json(out: str):
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return payload


class TestParser:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--m", "3", "--frobnicate"])
        assert exc.value.code == 2


class TestMap:
    def test_power_of_two_table(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--m", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["bin", "digits", "reversal", "subcarrier"]
        assert len(lines) == 9
        got = [int(line.split()[-1]) for line in lines[1:]]
        assert tuple(got) == PERM_M8
        assert lines[1].split() == ["0", "000", "000", "0"]
        assert lines[4].split() == ["3", "011", "110", "6"]

    def test_single_index(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--m", "3", "--index", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].split() == ["6", "110", "011", "3"]

    def test_composite_radices(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--radices", "2,2,3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13  # header + 12 bins
        # subcarrier column is a permutation of 0..11
        assert sorted(int(line.split()[-1]) for line in lines[1:]) == list(range(12))

    def test_trivial_band(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--m", "0")
        assert code == 0
        assert out.splitlines()[1].split() == ["0", "-", "-", "0"]

    def test_index_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "map", "--m", "2", "--index", "4")
        assert code == 2
        assert "out of range" in err

    def test_bad_radices(self, capsys):
        code, _, err = run_cli(capsys, "map", "--radices", "2,1,2")
        assert code == 2
        assert err.startswith("error:")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--m", "2", "--json")
        assert code == 0
        rows = assert_canonical_json(out)
        assert rows[2] == {"bin": 2, "digits": "10", "reversal": "01",
                           "subcarrier": 1}


@pytest.mark.parametrize("command", [["map"], ["alloc", "--requests", "A:1"]])
@pytest.mark.parametrize("radices", ["2,x", "2,,3", "2,2,", "", "1_0", "2,-2",
                                     pytest.param("2," + "9" * 5000, id="2,9x5000")])
def test_malformed_radices_is_a_one_line_usage_error(capsys, command, radices):
    code, out, err = run_cli(capsys, *command, "--radices", radices)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: --radices") and "2,2,3" in err


@pytest.mark.parametrize("command", [["map"], ["alloc", "--requests", "A:1"]])
@pytest.mark.parametrize("band", [
    *(pytest.param(["--m", m], id=f"--m-{m}") for m in ("100000", "1600000", "99999999999")),
    pytest.param(["--radices", ",".join(["2"] * 30000)], id="--radices-2x30000"),
])
def test_band_above_cap_is_a_one_line_usage_error(capsys, command, band):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, *band)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and f"cap {2**20}" in err


class TestAlloc:
    def test_sort_first_batch(self, capsys):
        code, out, _ = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "A:4,B:2,C:1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["name", "size", "bins", "subcarriers"]
        assert lines[1].split() == ["A", "4", "0-3", "0,2,4,6"]
        assert lines[2].split() == ["B", "2", "4-5", "1,5"]
        assert lines[3].split() == ["C", "1", "6", "3"]

    def test_min_policy(self, capsys):
        code, out, _ = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "A:1,B:4",
            "--policy", "min-small-change")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["A", "1", "0", "0"]
        assert lines[2].split() == ["B", "4", "4-7", "1,3,5,7"]

    def test_dc_reservation(self, capsys):
        code, out, _ = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "A:4,B:2", "--dc", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["A", "4", "4-7", "1,3,5,7"]
        assert lines[2].split() == ["B", "2", "2-3", "2,6"]
        assert "4" not in (lines[1].split()[3] + lines[2].split()[3]).split(",")

    def test_dc_cannot_fit_full_band(self, capsys):
        code, _, err = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "X:8", "--dc", "4")
        assert code == 3
        assert err.startswith("error:")

    def test_dc_with_sort_first_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "A:2", "--dc", "0",
            "--policy", "sort-first")
        assert code == 2
        assert "sort-first" in err

    def test_multistream_gathers_odd_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "C:7", "--multistream")
        assert code == 0
        line = out.splitlines()[1].split()
        assert line[:3] == ["C", "7", "0-3,4-5,6"]
        assert line[3] == "0,1,2,3,4,5,6"

    def test_multistream_rejects_policy_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "C:7", "--multistream",
            "--policy", "min-small-change")
        assert code == 2
        assert "multistream" in err

    def test_oversubscribed_batch_is_blocked(self, capsys):
        code, _, err = run_cli(
            capsys, "alloc", "--m", "2", "--requests", "A:4,B:1")
        assert code == 3
        assert err.startswith("error:")

    def test_requests_from_json_object_file(self, capsys, tmp_path):
        # an object is not a list of records; json.load would also merge its
        # duplicate names into one request
        path = tmp_path / "reqs.json"
        for text in ('{"A": 1, "B": 4}', '{"A": 1, "A": 4}'):
            path.write_text(text)
            code, out, err = run_cli(capsys, "alloc", "--m", "3", "--requests", f"@{path}")
            assert (code, out) == (2, "")
            assert err == ('error: requests file must hold a list of '
                           '{"name": ..., "size": ...} records\n')

    def test_requests_from_json_list_file(self, capsys, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text(json.dumps([{"name": "A", "size": 4}]))
        code, out, _ = run_cli(capsys, "alloc", "--m", "3",
                               "--requests", f"@{path}")
        assert code == 0
        assert out.splitlines()[1].split()[0] == "A"

    @pytest.mark.parametrize("data, complaint", [
        ([1, 2], "records"),
        ([{"name": "A"}], "records"),
        ([{"size": 2}], "records"),
        ([{"name": "A", "size": 0}], "positive integer size"),
        ([{"name": "A", "size": True}], "positive integer size"),
        ([{"name": "A", "size": 1.0}], "positive integer size"),
        ([{"name": "A", "size": 1}, {"name": "A", "size": 4}], "names must be unique"),
        # raw file contents: not JSON, not UTF-8, an integer int() refuses, nesting too deep
        pytest.param(b"# ifdma\n", "cannot read requests file", id="not-json"),
        pytest.param(b"\xff\xfe[]", "cannot read requests file", id="not-utf8"),
        pytest.param(b'[{"name": "A", "size": ' + b"9" * 5000 + b"}]",
                     "cannot read requests file", id="size-9x5000"),
        pytest.param(b"[" * 100000 + b"]" * 100000, "cannot read requests file",
                     id="nested-1e5"),
    ])
    def test_requests_from_bad_json_file(self, capsys, tmp_path, data, complaint):
        path = tmp_path / "reqs.json"
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "alloc", "--m", "3", "--requests", f"@{path}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and complaint in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["A:1,A:2", "A", "A:0", "A:-2", ":3"])
    def test_malformed_requests(self, capsys, spec):
        code, _, err = run_cli(capsys, "alloc", "--m", "3", "--requests", spec)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("spec, item", [
        ("A:1e3", "'A:1e3'"), ("A:", "'A:'"), ("A: ", "'A: '"), ("A:+3", "'A:+3'"),
        ("A:\u00b2", "'A:\u00b2'"), ("A:1,B:0x10", "'B:0x10'"),
        pytest.param("A:" + "9" * 5000, "'A'", id="A:9x5000"),
    ])
    def test_malformed_request_size(self, capsys, spec, item):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "alloc", "--m", "3", "--requests", spec)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and item in err and "name:size" in err

    def test_inline_requests_may_be_padded(self, capsys):
        assert run_cli(capsys, "alloc", "--m", "3", "--requests", " A: 4 , B :2") == \
            run_cli(capsys, "alloc", "--m", "3", "--requests", "A:4,B:2")

    def test_missing_requests_file(self, capsys):
        code, _, err = run_cli(capsys, "alloc", "--m", "3",
                               "--requests", "@/no/such/file.json")
        assert code == 2
        assert err.startswith("error: cannot read requests file /no/such/file.json: ")
        assert len(err.splitlines()) == 1

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "alloc", "--m", "3", "--requests", "A:4,B:2,C:1", "--json")
        assert code == 0
        rows = assert_canonical_json(out)
        assert rows[0] == {"name": "A", "size": 4, "bins": [0, 1, 2, 3],
                           "subcarriers": [0, 2, 4, 6]}
        assert rows[2]["subcarriers"] == [3]


class TestSim:
    CONFIG = {"m": 2, "mix": "full", "G": [0.5], "seed": 3,
              "policies": ["min_small_change", "ofdma"],
              "warmup_time": 10, "measure_time": 80, "replications": 2}
    REPLACES = {"classes": "mix", "lam": "G"}  # keys that exclude each other

    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc if doc is not None else self.CONFIG))
        return path

    def test_sweep_writes_csv(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "sim", "--config", str(cfg),
                               "--out", str(out_csv))
        assert code == 0
        assert f"wrote 2 rows to {out_csv}" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "policy,mix,G,P_B,P_B_ci,P_f,P_f_ci,S,seed,replications"
        assert len(lines) == 3
        assert lines[1].startswith("min_small_change,full,0.5,")
        assert lines[2].startswith("ofdma,full,0.5,")

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "sim", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run_cli(capsys, "sim", "--config", str(cfg), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "sim", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"), "--json")
        assert code == 0
        rows = assert_canonical_json(out)
        assert len(rows) == 2
        assert rows[0]["policy"] == "min_small_change"
        assert set(rows[0]) == {"policy", "mix", "G", "P_B", "P_B_ci",
                                "P_f", "P_f_ci", "S", "seed", "replications"}

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sim", "--config",
                               str(tmp_path / "missing.json"),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "cannot read config" in err

    def test_unwritable_out_fails_before_any_run(self, capsys, tmp_path, monkeypatch):
        def no_run(cfg):
            raise AssertionError("simulated before --out was opened")

        monkeypatch.setattr(cli, "run", no_run)
        out_csv = tmp_path / "missing" / "o.csv"
        code, out, err = run_cli(capsys, "sim", "--config", str(self.write_config(tmp_path)),
                                 "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_csv}: ")
        assert err.count("\n") == 1

    def test_directory_out_fails_before_any_run(self, capsys, tmp_path, monkeypatch):
        def no_run(cfg):
            raise AssertionError("simulated before --out was checked")

        monkeypatch.setattr(cli, "run", no_run)
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        code, out, err = run_cli(capsys, "sim", "--config", str(self.write_config(tmp_path)),
                                 "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"error: cannot write {out_dir}: Is a directory\n")
        assert list(out_dir.iterdir()) == []

    def test_interrupted_sweep_leaves_out_as_it_was(self, capsys, tmp_path, monkeypatch):
        real_run, calls = cli.run, []

        def interrupt_second(cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_run(cfg)

        monkeypatch.setattr(cli, "run", interrupt_second)
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        out_csv = out_dir / "o.csv"
        out_csv.write_bytes(b"old,csv\n1,2\n")
        with pytest.raises(KeyboardInterrupt):
            main(["sim", "--config", str(self.write_config(tmp_path)), "--out", str(out_csv)])
        assert len(calls) == 2
        assert out_csv.read_bytes() == b"old,csv\n1,2\n"
        assert [p.name for p in out_dir.iterdir()] == ["o.csv"]

    def test_symlinked_out_is_written_through(self, capsys, tmp_path):
        cfg = str(self.write_config(tmp_path))
        plain = tmp_path / "plain.csv"
        assert run_cli(capsys, "sim", "--config", cfg, "--out", str(plain))[0] == 0
        target = tmp_path / "target.csv"
        target.write_bytes(b"old,csv\n" * 10_000)  # longer than the rows
        link = tmp_path / "o.csv"
        link.symlink_to(target)
        assert run_cli(capsys, "sim", "--config", cfg, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == plain.read_bytes()

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "sim", "--config", str(path),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 2

    # raw file contents: nesting too deep, not UTF-8, an integer int() refuses
    @pytest.mark.parametrize("data", [
        pytest.param(b'{"m": ' + b"[" * 100000 + b"]" * 100000 + b"}", id="nested-1e5"),
        pytest.param(b'{"m": 2, "mix": "\xff\xfe"}', id="not-utf8"),
        pytest.param(b'{"m": ' + b"9" * 5000 + b"}", id="m-9x5000"),
    ])
    def test_unreadable_config_contents(self, capsys, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "sim", "--config", str(path),
                                 "--out", str(tmp_path / "o.csv"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("old, new", [("policies", "policy"), ("G", "lam")])
    def test_removed_spelling_is_a_one_line_usage_error(self, capsys, tmp_path, old, new):
        doc = dict(self.CONFIG)
        doc[new] = doc.pop(old)
        cfg = self.write_config(tmp_path, doc)
        code, _, err = run_cli(capsys, "sim", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"))
        assert (code, err) == (2, f"error: bad config: unknown config keys: ['{new}']\n")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dict(self.CONFIG, typo=1))
        code, _, err = run_cli(capsys, "sim", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "bad config" in err

    @pytest.mark.parametrize("key, value", [
        ("holding_mean", 0),
        ("seed", -1),
        ("G", float("nan")),
        ("measure_time", float("inf")),
        ("m", 21),
        ("m", 2.7),
        ("seed", 1.9),
        ("replications", 2.5),
        ("m", True),
        ("m", "3"),
        ("classes", [0, 1.5]),
        ("classes", []),
        ("G", "0.5"),
        ("G", []),
        ("G", [0.5, False]),
        ("holding_mean", True),
        ("warmup_time", "10"),
        ("policies", []),
        ("policy", "ofdma"),
        ("mix", []),
        ("measure_time", 1e300),
        ("warmup_time", 1e300),
        ("lam", 1e300),
        ("G", 1e12),
        ("holding_mean", 1e-300),
        ("replications", 1e300),
        ("replications", 1e18),
    ])
    def test_bad_value_is_a_one_line_usage_error(self, capsys, tmp_path, key, value):
        # json.dumps writes NaN and Infinity, which json.load reads back
        doc = dict(self.CONFIG, **{key: value})
        if key in self.REPLACES:
            del doc[self.REPLACES[key]]
        cfg = self.write_config(tmp_path, doc)
        code, _, err = run_cli(capsys, "sim", "--config", str(cfg),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("error: bad config:")
        assert err.count("\n") == 1
        assert key in err


# values a config mutation may put in place; json.dumps writes NaN and
# Infinity, which json.load reads back
FUZZ_VALUES = [None, True, -1, 0, 1, 3, 10**18, 0.5, 2.5, 1e300, -1e300,
               float("nan"), float("inf"), float("-inf"), "1", [], [1], {}]
FUZZ_CONFIG = {"m": 3, "mix": "full", "G": 0.5, "policies": list(POLICIES), "seed": 1,
               "replications": 1, "warmup_time": 0, "measure_time": 2}


@st.composite
def mutated_configs(draw):
    """FUZZ_CONFIG with one key replaced, deleted or added."""
    doc = dict(FUZZ_CONFIG)
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        key = draw(st.sampled_from(["classes", "lam", "policy", "holding_mean", "bogus"]))
    else:
        key = draw(st.sampled_from(sorted(doc)))
    if action == "delete":
        del doc[key]
    else:
        doc[key] = draw(st.sampled_from(FUZZ_VALUES))
    return doc


@given(mutated_configs())
@settings(max_examples=200, deadline=None)
def test_mutated_config_runs_or_is_a_one_line_usage_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out_csv = Path(tmp) / "config.json", Path(tmp) / "out.csv"
        cfg.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sim", "--config", str(cfg), "--out", str(out_csv)])
        if code == 0:
            assert out_csv.read_text().startswith("policy,mix,G,")
        else:
            assert code == 2
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1


class TestStates:
    def test_fine_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "2")
        assert code == 0
        assert out.strip() == "fine states m=2: recurrence 26, enumerated 26 AGREE"

    def test_super_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "3", "--mode", "super")
        assert code == 0
        assert out.strip() == "super states m=3: recurrence 67, enumerated 67 AGREE"

    def test_large_band_skips_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "6")
        assert code == 0
        assert "recurrence" in out and "skipped" in out

    def test_reachable_min(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "2", "--mode", "reachable")
        assert code == 0
        assert "total 26" in out
        assert "arrival-reachable 12" in out
        assert "departure-only 14" in out

    def test_reachable_random(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "2", "--mode", "reachable",
                               "--policy", "random")
        assert code == 0
        assert "arrival-reachable 22" in out
        assert "departure-only 4" in out

    def test_reachable_skips_above_cap(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "5", "--mode", "reachable")
        assert code == 0
        assert "skipped" in out

    @pytest.mark.parametrize("argv", [["--m", "14"], ["--m", "15", "--mode", "super"],
                                      ["--m", "40"]])
    def test_recurrence_too_long_to_print_is_a_usage_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "states", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--m", "13"], ["--m", "14", "--mode", "super"]])
    def test_largest_printable_recurrence(self, capsys, argv):
        code, out, _ = run_cli(capsys, "states", *argv)
        assert code == 0
        assert "recurrence" in out and "skipped" in out

    def test_super_empty_band_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "0", "--mode", "super")
        assert code == 0
        assert out.strip() == "super states m=0: recurrence 2, enumerated 2 AGREE"

    def test_negative_m(self, capsys):
        code, _, err = run_cli(capsys, "states", "--m", "-1")
        assert code == 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--m", "2", "--json")
        assert code == 0
        payload = assert_canonical_json(out)
        assert payload == {"m": 2, "mode": "fine", "recurrence": 26,
                           "enumerated": 26, "verdict": "AGREE"}


class TestWave:
    def test_both_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--N", "4", "--M", "16",
                               "--d", "1", "--seed", "7")
        assert code == 0
        assert "seed: 7" in out
        assert out.count("PASS") == 2
        assert "FAIL" not in out

    def test_unseeded_run_reports_its_seed(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--N", "2", "--M", "8",
                               "--blocks", "3")
        assert code == 0
        seed_line = [l for l in out.splitlines() if l.startswith("seed:")]
        assert len(seed_line) == 1
        assert int(seed_line[0].split()[1]) >= 0

    def test_equiv_only(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--N", "8", "--M", "8",
                               "--check", "equiv", "--seed", "1")
        assert code == 0
        assert "envelope" not in out

    def test_block_length_must_divide_band(self, capsys):
        code, _, err = run_cli(capsys, "wave", "--N", "3", "--M", "8")
        assert code == 2

    def test_offset_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "wave", "--N", "4", "--M", "16", "--d", "4")
        assert code == 2

    @pytest.mark.parametrize("band", [2**21, 2**40])
    def test_band_above_cap_is_a_usage_error(self, capsys, band):
        code, out, err = run_cli(capsys, "wave", "--N", "1", "--M", str(band))
        assert (code, out) == (2, "")
        assert err == f"error: --M {band} is above the band size cap {2**20}\n"

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "wave", "--N", "2", "--M", "8", "--seed", "-1")
        assert code == 2
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EQUIV_TOL", 0.0)
        code, out, _ = run_cli(capsys, "wave", "--N", "4", "--M", "16",
                               "--check", "equiv", "--seed", "7")
        assert code == 1
        assert "FAIL" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--N", "4", "--M", "16",
                               "--seed", "7", "--json")
        assert code == 0
        payload = assert_canonical_json(out)
        assert payload["seed"] == 7
        assert payload["pass"] is True
        assert payload["checks"]["equiv"]["pass"] is True
        assert payload["checks"]["envelope"]["pass"] is True
