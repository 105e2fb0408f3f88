"""Subarray micro-op semantics, trace closure, and serialization grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramntt.errors import AddressError, DimensionError, TileGeometryError, TraceIOError
from sramntt.subarray import (
    AND,
    GLOBAL,
    LEFT,
    NOR,
    OR,
    RIGHT,
    TILE,
    XOR,
    bits_from_list,
    bits_to_list,
    create_subarray,
    parse_trace,
    replay,
    serialize_trace,
)


def test_create_zeroed():
    arr = create_subarray(256, 256)
    assert sum(arr.cells) == 0 and arr.latch == 0 and arr.trace == []
    assert arr.rows * arr.cols == 65536

    small = create_subarray(8, 4)
    assert small.rows * small.cols == 32


def test_create_too_small():
    with pytest.raises(DimensionError):
        create_subarray(2, 4)
    with pytest.raises(DimensionError):
        create_subarray(8, 2)


def test_write_read_roundtrip():
    arr = create_subarray(8, 8)
    bits = bits_from_list([1, 0, 1, 1, 0, 0, 0, 0])
    arr.write_row(0, bits)
    assert arr.read_row(0) == bits
    assert arr.read_row(5) == 0            # never written
    with pytest.raises(AddressError):
        arr.write_row(8, 1)
    with pytest.raises(AddressError):
        arr.read_row(-1)


def test_activate_truth_tables():
    arr = create_subarray(8, 4)
    arr.write_row(1, 0b1100)
    arr.write_row(2, 0b1010)
    arr.activate_pair(1, 2, AND)
    assert arr.latch == 0b1000
    arr.activate_pair(1, 2, XOR)
    assert arr.latch == 0b0110
    arr.activate_pair(1, 2, NOR)
    assert arr.latch == 0b0001
    arr.activate_pair(1, 2, OR)
    assert arr.latch == 0b1110


def test_activate_rejects_same_row():
    arr = create_subarray(8, 4)
    with pytest.raises(AddressError):
        arr.activate_pair(3, 3, AND)
    with pytest.raises(AddressError):
        arr.activate_pair(0, 9, AND)


def test_activate_non_destructive():
    arr = create_subarray(8, 4)
    arr.write_row(0, 0b0110)
    arr.write_row(1, 0b1011)
    before = arr.snapshot()[0]
    for mode in (AND, NOR, OR, XOR):
        arr.activate_pair(0, 1, mode)
    assert arr.snapshot()[0] == before


def test_shift_semantics():
    arr = create_subarray(8, 4)
    arr.latch = 0b0011
    arr.shift_latch(LEFT, TILE, 4, 0)
    assert arr.latch == 0b0110
    arr.latch = 0b1000
    arr.shift_latch(RIGHT, GLOBAL)
    assert arr.latch == 0b0100
    # two 2-bit tiles: no cross-tile leakage on tile-scoped left
    arr.latch = 0b0011            # tile0 = 11, tile1 = 00
    arr.shift_latch(LEFT, TILE, 2, 0)
    assert arr.latch == 0b0010    # tile0 = 10, tile1 = 00
    with pytest.raises(TileGeometryError):
        arr.shift_latch(LEFT, TILE, 1, 0)


def test_global_edges_zero_fill():
    arr = create_subarray(8, 4)
    arr.latch = 0b1001
    arr.shift_latch(LEFT, GLOBAL)
    assert arr.latch == 0b0010
    arr.latch = 0b1001
    arr.shift_latch(RIGHT, GLOBAL)
    assert arr.latch == 0b0100


def test_writeback_and_zero_test():
    arr = create_subarray(8, 4)
    arr.latch = 0b1010
    arr.latch_writeback(3)
    assert arr.read_row(3) == 0b1010 and arr.latch == 0b1010
    arr.latch_writeback(4)
    assert arr.read_row(4) == 0b1010
    arr.write_row(5, 0b0101)
    arr.activate_pair(3, 5, OR)
    assert arr.latch == 0b1111
    assert not arr.latch_is_zero()
    arr.activate_pair(3, 5, AND)
    assert arr.latch == 0
    assert arr.latch_is_zero()
    assert create_subarray(8, 4).latch_is_zero()


@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1))
@settings(max_examples=100, deadline=None)
def test_de_morgan_consistency(a, b):
    arr = create_subarray(8, 16, record=False)
    arr.write_row(0, a)
    arr.write_row(1, b)
    mask = arr.colmask
    arr.activate_pair(0, 1, NOR)
    nor = arr.latch
    arr.activate_pair(0, 1, OR)
    assert arr.latch == (~nor) & mask
    arr.activate_pair(0, 1, AND)
    nand = (~arr.latch) & mask
    arr.activate_pair(0, 1, XOR)
    assert arr.latch == ((a | b) & nand) & mask


@given(v=st.integers(0, 2**12 - 1))
@settings(max_examples=60, deadline=None)
def test_shift_left_right_restores_interior(v):
    arr = create_subarray(8, 12, record=False)
    arr.latch = v
    arr.shift_latch(LEFT, GLOBAL)
    arr.shift_latch(RIGHT, GLOBAL)
    top = 1 << 11
    assert arr.latch == v & ~top       # only the edge bit is zero-filled away


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)), max_size=60))
@settings(max_examples=50, deadline=None)
def test_trace_replay_closure(script):
    """Replaying the recorded trace reproduces the final state bit-exactly."""
    arr = create_subarray(8, 8)
    for sel, val in script:
        if sel == 0:
            arr.write_row(val % 8, val)
        elif sel == 1:
            a = val % 8
            b = (a + 1 + val // 8 % 7) % 8
            arr.activate_pair(a, b, (AND, OR, XOR, NOR)[val % 4])
        elif sel == 2:
            arr.shift_latch((LEFT, RIGHT)[val % 2], (GLOBAL, TILE)[(val >> 1) % 2], 4, 0)
        else:
            arr.latch_writeback(val % 8)
    twin = replay(arr.trace, 8, 8)
    assert twin.same_state(arr)


def test_trace_grammar_roundtrip():
    arr = create_subarray(8, 8)
    arr.write_row(2, 0xA5)
    arr.write_row(3, 0x3C)
    arr.activate_pair(2, 3, XOR)
    arr.shift_latch(LEFT, GLOBAL)
    arr.shift_latch(RIGHT, TILE, 4, 0)
    arr.latch_writeback(1)
    arr.latch_is_zero()
    text = serialize_trace(arr.trace, arr.cols)
    assert parse_trace(text) == arr.trace
    twin = replay(parse_trace(text), 8, 8)
    assert twin.same_state(arr)


def test_parse_rejects_unknown_shift_scope():
    assert parse_trace("0 SHIFT LEFT GLOBAL\n") == [("SHIFT", LEFT, GLOBAL, 0, 0)]
    with pytest.raises(TraceIOError):
        parse_trace("0 SHIFT LEFT BOGUS\n")


def test_bits_helpers():
    assert bits_from_list([1, 0, 1]) == 0b101
    assert bits_to_list(0b101, 4) == [1, 0, 1, 0]
    with pytest.raises(AddressError):
        bits_from_list([2])
