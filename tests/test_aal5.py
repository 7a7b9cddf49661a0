"""AAL5 framing arithmetic and reassembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim.aal5 import (CELL_BYTES, CELL_PAYLOAD, FRAME_OVERHEAD, Cell,
                         Reassembler, Segment, cells_for_segment,
                         max_tcp_throughput, segment_to_cells, wire_bytes)


def test_cell_geometry_examples():
    assert cells_for_segment(0) == 2        # 56 bytes of overhead alone
    assert cells_for_segment(40) == 2       # exactly two payloads
    assert cells_for_segment(41) == 3
    assert cells_for_segment(1024) == 23
    assert cells_for_segment(9180) == 193
    assert wire_bytes(1024) == 23 * 53


def test_cells_for_segment_rejects_negative():
    with pytest.raises(ValueError):
        cells_for_segment(-1)


@given(st.integers(min_value=0, max_value=20_000))
@settings(max_examples=200, deadline=None)
def test_ceiling_identity(length):
    n = cells_for_segment(length)
    assert (n - 1) * CELL_PAYLOAD < length + FRAME_OVERHEAD <= n * CELL_PAYLOAD


def test_max_tcp_throughput_values():
    assert max_tcp_throughput(1024, 45e6) / 1e6 == pytest.approx(37.80, abs=0.01)
    assert max_tcp_throughput(9180, 45e6) / 1e6 == pytest.approx(40.39, abs=0.01)


def test_segment_to_cells_shape():
    seg = Segment(conn=4, sender=1, seq=0, length=1024, ack=None)
    cells = segment_to_cells(4, seg)
    assert len(cells) == 23
    assert all(not c.eom and c.seg is None and c.vc == 4 for c in cells[:-1])
    assert cells[-1] == Cell(4, True, seg)


def test_segment_to_cells_shares_body_cell():
    body = Cell(2, False, None)
    seg = Segment(2, 1, 0, 100, None)
    cells = segment_to_cells(2, seg, body)
    assert all(c is body for c in cells[:-1])


def _feed(reasm, cells):
    """Feed cells in order; return the segments of the frames judged intact."""
    intact = []
    for c in cells:
        if not c.eom:
            reasm.body(1)
        elif reasm.eom(c.seg):
            intact.append(c.seg)
    return intact


@given(st.lists(st.integers(min_value=0, max_value=20_000), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_reassembly_round_trip_identity(lengths):
    got = []
    reasm = Reassembler()
    segs = [Segment(0, 1, i, n, None) for i, n in enumerate(lengths)]
    for seg in segs:
        got += _feed(reasm, segment_to_cells(0, seg))
    assert got == segs
    assert reasm.frames_ok == len(segs)
    assert reasm.frames_corrupt == 0


def test_lost_body_cell_corrupts_only_that_frame():
    reasm = Reassembler()
    seg1 = Segment(0, 1, 0, 1024, None)
    seg2 = Segment(0, 1, 1, 1024, None)
    cells = segment_to_cells(0, seg1)
    got = _feed(reasm, cells[1:])        # one body cell lost
    got += _feed(reasm, segment_to_cells(0, seg2))
    assert got == [seg2]
    assert reasm.frames_corrupt == 1
    assert reasm.cells_wasted == 22


def test_lost_eom_cell_corrupts_the_following_frame_too():
    reasm = Reassembler()
    seg1 = Segment(0, 1, 0, 1024, None)
    seg2 = Segment(0, 1, 1, 1024, None)
    got = _feed(reasm, segment_to_cells(0, seg1)[:-1])   # eom lost: no boundary
    got += _feed(reasm, segment_to_cells(0, seg2))       # counts pollute this frame
    assert got == []
    assert reasm.frames_corrupt == 1
    assert reasm.cells_wasted == 22 + 23


def test_eom_verdict_return_value():
    reasm = Reassembler()
    seg = Segment(0, 1, 0, 40, None)
    reasm.body(1)
    assert reasm.eom(seg) is True
    assert reasm.eom(seg) is False       # missing body cell this time
