"""CLI behavior: exit codes, stats schema, replay, determinism."""

import dataclasses
import json
import time
import tracemalloc

import pytest

from sramntt.cli import RunConfig, build_parser, cmd_trace_replay, main
from sramntt.perf import CSV_HEADER, CostModel, counts_of_trace, sweep_order, sweep_to_csv
from sramntt.subarray import parse_trace


def run_cli(args):
    return main(args)


def test_run_verify_ok(tmp_path):
    stats = tmp_path / "s.json"
    code = run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "polymul", "--verify",
                    "--stats", str(stats)])
    assert code == 0
    payload = json.loads(stats.read_text())
    assert set(payload) == {"config", "counts", "cycles", "energy_nJ",
                            "latency_us", "throughput_knnt_s", "shifts", "trace_ops"}
    assert set(payload["shifts"]) == {"global", "tile", "word_alignment"}
    assert payload["shifts"]["word_alignment"] == 0
    assert set(payload["counts"]) == {"WRITE_ROW", "ACTIVATE2", "SHIFT",
                                      "WRITEBACK", "ZERO_TEST"}
    cfg = RunConfig(**payload["config"])
    assert cfg.semantic_dict() == payload["config"]    # config round-trips


def test_the_run_parser_is_the_one_table_of_run_options(tmp_path):
    """Every run dest is a RunConfig field, and the parser holds every default:
    RunConfig gives one only to its output paths (sweep_path is sweep's --out)."""
    fields = dataclasses.fields(RunConfig)
    parsed = vars(build_parser().parse_args(["run"]))
    assert set(parsed) == {f.name for f in fields} - {"subcommand", "sweep_path"} | {"command"}
    assert [f.name for f in fields if f.default is not dataclasses.MISSING] == [
        "stats_path", "trace_path", "state_path", "sweep_path"]
    stats = tmp_path / "s.json"
    assert run_cli(["run", "--stats", str(stats)]) == 0
    config = json.loads(stats.read_text())["config"]
    assert config["width"] is None and config["deterministic_latency"] is True
    assert RunConfig(**config).semantic_dict() == config


def test_run_rejects_bad_congruence(capsys):
    code = run_cli(["run", "--order", "256", "--q", "3329"])
    assert code == 2
    assert "mod 512" in capsys.readouterr().err


def test_run_rejects_capacity(capsys):
    code = run_cli(["run", "--order", "64", "--q", "257", "--rows", "16",
                    "--cols", "32", "--mode", "forward"])
    assert code == 4


def test_capacity_is_checked_before_the_root_search(capsys):
    """The root search is O(order): an order far past capacity exits 4 at once."""
    start = time.perf_counter()
    code = run_cli(["run", "--order", str(1 << 26), "--q", "2013265921", "--rows", "64",
                    "--cols", "64", "--mode", "forward"])
    assert code == 4 and time.perf_counter() - start < 2
    assert "exceeds array capacity" in capsys.readouterr().err


def test_a_lane_wider_than_the_columns_exits_4_without_allocating_it(capsys):
    """The modulus is compared with the width by bit length, so a huge
    --width reaches the layout's capacity check with no O(width) integer."""
    tracemalloc.start()
    try:
        code = run_cli(["run", "--order", "8", "--q", "257", "--width", str(200_000_000),
                        "--rows", "64", "--cols", "64", "--mode", "forward"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4 and peak < 1 << 20, peak
    assert "tile fits in 64 columns" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--order", str(3 << 20)], "power of two"),
    (["--order", str(1 << 26), "--width", "16"], "cannot represent residues"),
])
def test_parameter_rules_are_checked_before_capacity(capsys, flags, message):
    code = run_cli(["run", "--q", "2013265921", "--rows", "64", "--cols", "64",
                    "--mode", "forward"] + flags)
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("rows,code", [(14, 4), (15, 0)])
def test_a_swapped_layout_needs_two_coefficient_slots(rows, code):
    """At 14 rows the two slots a swapped tile keeps are cut to one, on which
    both operands of every butterfly would land."""
    assert run_cli(["run", "--order", "4", "--q", "17", "--rows", str(rows), "--cols", "8",
                    "--mode", "roundtrip", "--verify"]) == code


def test_missing_input_file_is_io_error():
    code = run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--input-a", "/nonexistent.json"])
    assert code == 5


def test_preset_roundtrip_verify(tmp_path):
    stats = tmp_path / "s.json"
    code = run_cli(["run", "--preset", "toy-257", "--rows", "64", "--cols", "64",
                    "--mode", "roundtrip", "--verify", "--stats", str(stats)])
    assert code == 0


def test_same_seed_identical_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                        "--cols", "64", "--seed", "42", "--mode", "roundtrip",
                        "--stats", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("mode", ["forward", "roundtrip", "polymul"])
def test_trace_replay_cycle(tmp_path, mode):
    """Each mode's trace replays to its state; roundtrip's and polymul's
    hold the inverse with its scaling pass, which in polymul mode also
    takes the pointwise product."""
    trace = tmp_path / "run.trace"
    state = tmp_path / "run.state"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", mode,
                    "--trace", str(trace), "--state", str(state),
                    "--stats", str(tmp_path / "s.json")]) == 0
    assert cmd_trace_replay(str(trace), str(state)) == 0
    assert run_cli(["trace-replay", str(trace), str(state)]) == 0
    # tamper with the recorded state: replay must fail verification
    payload = json.loads(state.read_text())
    payload["latch"] = f"{int(payload['latch'], 16) ^ 1:x}"
    state.write_text(json.dumps(payload))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 3


def test_trace_replay_checks_the_recorded_readouts(tmp_path, capsys):
    """Replay finds each zero test's recorded readout in the latch, so a
    changed readout fails verification although the final state matches."""
    trace = tmp_path / "run.trace"
    state = tmp_path / "run.state"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "forward", "--data-dependent",
                    "--trace", str(trace), "--state", str(state)]) == 0
    assert run_cli(["trace-replay", str(trace), str(state)]) == 0
    lines = trace.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.endswith(" ZERO_TEST 1"))
    lines[first] = lines[first][:-1] + "0"
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(["trace-replay", str(trace), str(state)]) == 3
    assert f"ZERO_TEST at op {first} reads 1, recorded 0" in capsys.readouterr().err


@pytest.mark.parametrize("readout", ["7", "2", "-1", "01"])
def test_replay_rejects_a_readout_other_than_0_or_1(tmp_path, capsys, readout):
    trace = tmp_path / "bad.trace"
    state = tmp_path / "zero.state"
    trace.write_text(f"0 ZERO_TEST {readout}\n")
    state.write_text(json.dumps({"rows": 8, "cols": 8, "latch": "0", "cells": ["0"] * 8}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "zero-test readout is not 0 or 1" in capsys.readouterr().err


def test_replay_of_a_crlf_copy_and_of_bad_trace_files(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    state = tmp_path / "run.state"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "forward",
                    "--trace", str(trace), "--state", str(state)]) == 0
    crlf = tmp_path / "crlf.trace"
    crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
    assert run_cli(["trace-replay", str(crlf), str(state)]) == 0
    capsys.readouterr()
    # no line break in 3 MiB: one line longer than any valid line
    endless = tmp_path / "endless.trace"
    endless.write_text("0 WRITEBACK 0 " + "0" * (3 << 20))
    assert run_cli(["trace-replay", str(endless), str(state)]) == 5
    err = capsys.readouterr().err
    assert "longer than" in err and len(err) < 300
    # bytes that are not text
    binary = tmp_path / "binary.trace"
    binary.write_bytes(trace.read_bytes()[:200] + b"\xff\xfe\n")
    assert run_cli(["trace-replay", str(binary), str(state)]) == 5
    assert "cannot load replay inputs" in capsys.readouterr().err


def test_run_trace_into_a_directory_is_an_io_error(tmp_path, capsys):
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "forward", "--stats", str(tmp_path / "s.json"),
                    "--trace", str(tmp_path)]) == 5
    assert f"cannot write {tmp_path}" in capsys.readouterr().err


def test_replay_missing_file():
    assert run_cli(["trace-replay", "/no/trace", "/no/state"]) == 5


@pytest.mark.parametrize("line,rows", [
    ("0 WRITEBACK 99", 8),          # row outside the 8-row state
    ("0 SHIFT UP GLOBAL", 8),       # no such shift direction
    ("0 ACTIVATE2 0 1 NAND", 8),    # no such logic mode
    ("0 WRITEBACK 0", 4),           # state smaller than any subarray
])
def test_replay_unexecutable_trace_is_io_error(tmp_path, capsys, line, rows):
    trace = tmp_path / "bad.trace"
    state = tmp_path / "bad.state"
    trace.write_text(line + "\n")
    state.write_text(json.dumps({"rows": rows, "cols": 8, "latch": "0", "cells": ["0"] * rows}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "does not replay" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "0 WRITE_ROW 0 00 junk",
    "0 ACTIVATE2 0 1 AND junk",
    "0 SHIFT LEFT GLOBAL junk",
    "0 SHIFT LEFT TILE 4 0 junk",
    "0 WRITEBACK 0 junk",
    "0 ZERO_TEST 1 junk",
    "0 WRITEBACK 0_0",
    "0 WRITEBACK +0",
    "0 WRITEBACK -0",
    "0 WRITEBACK \u0660",
    "0 ACTIVATE2 0 +1 AND",
    "0 SHIFT LEFT TILE 4 -0",
    "0 WRITE_ROW 0 0x0",
    "0 WRITE_ROW 0 0_0",
    "0 WRITE_ROW 0 -0",
])
def test_replay_rejects_trailing_tokens(tmp_path, capsys, line):
    """Each line would replay to the all-zero state if its last token were
    dropped, or if int() read its numbers: rows, width and origin must be
    ASCII decimal digits and row bits ASCII hex digits."""
    trace = tmp_path / "junk.trace"
    state = tmp_path / "zero.state"
    trace.write_text(line + "\n")
    state.write_text(json.dumps({"rows": 8, "cols": 8, "latch": "0", "cells": ["0"] * 8}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "malformed trace line" in capsys.readouterr().err


def test_replay_rejects_short_state_file(tmp_path, capsys):
    trace = tmp_path / "one.trace"
    state = tmp_path / "short.state"
    trace.write_text("0 WRITEBACK 0\n")
    state.write_text(json.dumps({"rows": 8, "cols": 8, "latch": "0", "cells": ["0", "0", "0"]}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "malformed state file" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("cells", ["1ff"] + ["0"] * 7),
                                         ("cells", ["0"] * 7 + ["100"]), ("latch", "100")])
def test_replay_rejects_a_word_wider_than_the_state_columns(tmp_path, capsys, field, value):
    """`run --state` never writes a word of more than `cols` bits: an 8-column
    state holding one is malformed (exit 5), where an 8-bit word that differs
    from the replay is a mismatch (exit 3)."""
    trace = tmp_path / "one.trace"
    state = tmp_path / "wide.state"
    trace.write_text("0 WRITEBACK 0\n")
    payload = {"rows": 8, "cols": 8, "latch": "0", "cells": ["0"] * 8}
    state.write_text(json.dumps({**payload, "cells": ["ff"] + ["0"] * 7}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 3
    capsys.readouterr()
    state.write_text(json.dumps({**payload, field: value}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "wider than 8 columns" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("rows", 8.9), ("rows", "8"), ("rows", True), ("cols", "8"), ("cols", 8.0),
    ("cells", ["0x0"] * 8), ("cells", ["A"] + ["0"] * 7), ("cells", ["-0"] * 8),
    ("cells", "00000000"), ("latch", "-1"), ("latch", "0x0"), ("latch", 0),
])
def test_replay_rejects_a_state_file_run_would_not_write(tmp_path, capsys, field, value):
    """rows and cols are JSON integers and cells a list; cells and latch are
    lowercase hex digits, as `run --state` writes them.  Coerced, each state
    would replay, or fail as a mismatch (exit 3)."""
    trace = tmp_path / "one.trace"
    state = tmp_path / "odd.state"
    trace.write_text("0 WRITEBACK 0\n")
    payload = {"rows": 8, "cols": 8, "latch": "0", "cells": ["0"] * 8}
    state.write_text(json.dumps(payload))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 0
    state.write_text(json.dumps({**payload, field: value}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "malformed state file" in capsys.readouterr().err


def test_trace_ops_key_counts_the_trace_file_in_every_mode(tmp_path):
    """In polymul mode --trace holds unit a's ops and `trace_ops` says how
    many; `counts` still cover both units (unit b runs what a forward run does)."""
    payloads = {}
    for mode in ("polymul", "roundtrip", "forward"):
        stats = tmp_path / f"{mode}.json"
        trace = tmp_path / f"{mode}.trace"
        assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                        "--cols", "64", "--mode", mode, "--stats", str(stats),
                        "--trace", str(trace)]) == 0
        payload = payloads[mode] = json.loads(stats.read_text())
        assert payload["trace_ops"] == len(trace.read_text().splitlines())
    for mode in ("roundtrip", "forward"):
        assert sum(payloads[mode]["counts"].values()) == payloads[mode]["trace_ops"]
    both = sum(payloads["polymul"]["counts"].values())
    assert both == payloads["polymul"]["trace_ops"] + payloads["forward"]["trace_ops"]
    assert both > payloads["polymul"]["trace_ops"]


@pytest.mark.parametrize("flags", [[], ["--data-dependent"], ["--tile-scope-shifts"]])
@pytest.mark.parametrize("mode", ["forward", "roundtrip"])
def test_stats_counts_equal_a_recount_of_the_trace_file(tmp_path, mode, flags):
    """The counts `run` takes from the array's tally are those of its trace file."""
    stats, trace = tmp_path / "s.json", tmp_path / "t.trace"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64", "--cols", "64",
                    "--mode", mode, "--stats", str(stats), "--trace", str(trace)] + flags) == 0
    counts = json.loads(stats.read_text())["counts"]
    with open(trace) as fh:
        recount = counts_of_trace(parse_trace(fh))
    assert counts == {kind: recount[kind] for kind in counts}


@pytest.mark.parametrize("flags", [["--rows", str(10**12)], ["--cols", str(10**12)]])
@pytest.mark.parametrize("command", [["run", "--order", "8", "--q", "257"],
                                     ["sweep", "--vary", "order"],
                                     ["sweep", "--vary", "bitwidth"]])
def test_array_size_flags_are_bounded(capsys, command, flags):
    assert run_cli(command + flags) == 2
    assert "at most 4096x4096" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["sweep", "--vary", "order", "--width", "0"], "width must be >= 3"),
    (["sweep", "--vary", "order", "--width", "-5"], "width must be >= 3"),
    (["sweep", "--vary", "order", "--width", "2"], "width must be >= 3"),
    (["sweep", "--vary", "bitwidth", "--order", "-8"], "power of two"),
    (["sweep", "--vary", "bitwidth", "--order", "3"], "power of two"),
    (["sweep", "--vary", "bitwidth", "--order", "0"], "power of two"),
    (["sweep", "--vary", "order", "--rows", "4"], "at least 8x4"),
    (["sweep", "--vary", "order", "--cols", "0"], "at least 8x4"),
    (["sweep", "--vary", "order", "--rows", "-3"], "at least 8x4"),
    (["run", "--order", "8", "--q", "257", "--rows", "4"], "at least 8x4"),
])
def test_bad_sizes_widths_and_orders_exit_2(capsys, args, message):
    """No silent default, no all-nan table and no negative capacity: each
    bad parameter exits 2 and names the rule it breaks."""
    assert run_cli(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("rows,cols", [(10**12, 8), (8, 10**12)])
def test_replay_rejects_an_oversized_state_file(tmp_path, capsys, rows, cols):
    trace = tmp_path / "one.trace"
    state = tmp_path / "huge.state"
    trace.write_text("0 WRITEBACK 0\n")
    state.write_text(json.dumps({"rows": rows, "cols": cols, "latch": "0",
                                 "cells": ["0"] * 8}))
    assert run_cli(["trace-replay", str(trace), str(state)]) == 5
    assert "at most 4096x4096" in capsys.readouterr().err


def test_sweep_bitwidth_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--vary", "bitwidth", "--order", "256",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 63                        # widths 2..64


def test_sweep_order_csv(tmp_path):
    out = tmp_path / "orders.csv"
    assert run_cli(["sweep", "--vary", "order", "--width", "16",
                    "--out", str(out)]) == 0
    orders = [1 << k for k in range(2, 13)]           # 4..4096
    assert out.read_text() == sweep_to_csv(sweep_order(16, orders, 256, 256, CostModel()))


def test_run_data_dependent_mode(tmp_path):
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "roundtrip", "--verify",
                    "--data-dependent",
                    "--stats", str(tmp_path / "s.json")]) == 0
    config = json.loads((tmp_path / "s.json").read_text())["config"]
    assert config["deterministic_latency"] is False


def test_run_tile_scope_shifts(tmp_path):
    stats = tmp_path / "s.json"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "roundtrip", "--verify",
                    "--tile-scope-shifts", "--stats", str(stats)]) == 0
    payload = json.loads(stats.read_text())
    assert payload["shifts"]["global"] == 0            # everything masked


def test_cost_model_file(tmp_path):
    model = tmp_path / "cost.txt"
    model.write_text("freq_mhz=1000\ncycles.ACTIVATE2=2\n")
    stats = tmp_path / "s.json"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "forward",
                    "--cost-model", str(model), "--stats", str(stats)]) == 0
    payload = json.loads(stats.read_text())
    counts = payload["counts"]
    # activations billed double under the custom model
    assert payload["cycles"] > sum(counts.values())


@pytest.mark.parametrize("text,code,message", [
    ("cycles.ACTIVATE=5\n", 5, "unknown cost key 'cycles.ACTIVATE'"),
    ("energy_pj.SHIFTT=9\n", 5, "unknown cost key 'energy_pj.SHIFTT'"),
    ("freq_mhz=nan\n", 2, "frequency must be finite"),
    ("freq_mhz=inf\n", 2, "frequency must be finite"),
    ("cycles.SHIFT=inf\n", 2, "cost for SHIFT must be finite"),
    ("energy_pj.ZERO_TEST=nan\n", 2, "cost for ZERO_TEST must be finite"),
])
@pytest.mark.parametrize("command", [
    ["run", "--order", "8", "--q", "257", "--rows", "64", "--cols", "64", "--mode", "forward"],
    ["sweep", "--vary", "order"],
])
def test_cost_model_file_rejects_unknown_kinds_and_non_finite_values(
        tmp_path, capsys, command, text, code, message):
    model = tmp_path / "cost.txt"
    model.write_text(text)
    assert run_cli(command + ["--cost-model", str(model),
                              "--stats" if command[0] == "run" else "--out",
                              str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,content", [
    (["run"], "--input-a", b"[1,\xff]"),
    (["run"], "--input-b", b"[1,\xff]"),
    (["run"], "--cost-model", b"cycles.ACTIVATE2=\xff\n"),
    (["sweep", "--vary", "order"], "--cost-model", b"cycles.ACTIVATE2=\xff\n"),
], ids=["run-input-a", "run-input-b", "run-cost-model", "sweep-cost-model"])
def test_undecodable_input_files_are_io_errors(tmp_path, capsys, command, flag, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    if command == ["run"]:
        command = ["run", "--order", "8", "--q", "257", "--rows", "64", "--cols", "64",
                   "--mode", "forward"]
    assert run_cli(command + [flag, str(path)]) == 5
    assert capsys.readouterr().err.startswith("error: ")


def test_run_rejects_too_few_rows_for_the_row_map(capsys):
    """Ten rows cannot hold the twelve scratch and constant rows: capacity,
    checked before any row map is made."""
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "10",
                    "--cols", "64", "--mode", "forward"]) == 4
    assert "too few coefficient slots" in capsys.readouterr().err


def test_run_input_files(tmp_path):
    import random
    rng = random.Random(5)
    a = [rng.randrange(257) for _ in range(8)]
    b = [rng.randrange(257) for _ in range(8)]
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(a))
    fb.write_text(json.dumps(b))
    stats = tmp_path / "s.json"
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--input-a", str(fa), "--input-b", str(fb),
                    "--verify", "--stats", str(stats)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(a[:-1]))
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--input-a", str(bad)]) == 2


@pytest.mark.parametrize("element", [1.9, 2.0, -3, 257, True, False, "5", None, [1]])
@pytest.mark.parametrize("flag", ["--input-a", "--input-b"])
def test_run_rejects_non_residue_inputs(tmp_path, capsys, flag, element):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps([element, 1, 2, 3, 4, 5, 6, 7]))
    assert run_cli(["run", "--order", "8", "--q", "257", "--rows", "64",
                    "--cols", "64", "--mode", "forward", flag, str(poly)]) == 2
    assert "not an integer residue" in capsys.readouterr().err


def test_preset_table_is_consistent():
    from sramntt.cli import PRESETS
    from sramntt.ntt import find_roots, is_prime
    for name, (q, order, width) in PRESETS.items():
        assert is_prime(q), name
        find_roots(q, order)                         # raises on bad congruence
        assert width >= (q - 1).bit_length(), name


def test_spec_example_q7681_verify(tmp_path):
    assert run_cli(["run", "--order", "256", "--q", "7681", "--width", "16",
                    "--verify", "--stats", str(tmp_path / "s.json")]) == 0


def test_spec_example_dilithium_verify(tmp_path):
    assert run_cli(["run", "--preset", "dilithium", "--verify",
                    "--stats", str(tmp_path / "s.json")]) == 0
