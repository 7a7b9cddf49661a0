"""AAL5 framing arithmetic and reassembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim.aal5 import (CELL_BYTES, CELL_PAYLOAD, FRAME_OVERHEAD, Frame,
                         Reassembler, Segment, cells_for_segment,
                         max_tcp_throughput, segment_to_cells)


def test_cell_geometry_examples():
    assert cells_for_segment(0) == 2        # 56 bytes of overhead alone
    assert cells_for_segment(40) == 2       # exactly two payloads
    assert cells_for_segment(41) == 3
    assert cells_for_segment(1024) == 23
    assert cells_for_segment(9180) == 193
    assert cells_for_segment(1024) * CELL_BYTES == 1219   # bytes on the wire


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
    seg = Segment(seq=0, length=1024, ack=None)
    frame = segment_to_cells(4, seg)
    assert frame == Frame(vc=4, n=23, seg=seg)
    assert frame.seg is seg


def _cells(frame):
    """The frame's cells in order: None for a body cell, the frame on the
    eom cell."""
    return [None] * (frame.n - 1) + [frame]


def _feed(reasm, cells):
    """Feed cells in order; return the segments of the frames judged intact."""
    intact = []
    for frame in cells:
        if frame is None:
            reasm.body(1)
        elif reasm.eom(frame.n):
            intact.append(frame.seg)
    return intact


@given(st.lists(st.integers(min_value=0, max_value=20_000), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_reassembly_round_trip_identity(lengths):
    got = []
    reasm = Reassembler()
    segs = [Segment(i, n, None) for i, n in enumerate(lengths)]
    for seg in segs:
        got += _feed(reasm, _cells(segment_to_cells(0, seg)))
    assert got == segs
    assert reasm.frames_ok == len(segs)
    assert reasm.frames_corrupt == 0


def test_lost_body_cell_corrupts_only_that_frame():
    reasm = Reassembler()
    seg1 = Segment(0, 1024, None)
    seg2 = Segment(1, 1024, None)
    cells = _cells(segment_to_cells(0, seg1))
    got = _feed(reasm, cells[1:])        # one body cell lost
    got += _feed(reasm, _cells(segment_to_cells(0, seg2)))
    assert got == [seg2]
    assert reasm.frames_corrupt == 1
    assert reasm.cells_wasted == 22


def test_lost_eom_cell_corrupts_the_following_frame_too():
    reasm = Reassembler()
    seg1 = Segment(0, 1024, None)
    seg2 = Segment(1, 1024, None)
    got = _feed(reasm, _cells(segment_to_cells(0, seg1))[:-1])  # eom lost
    got += _feed(reasm, _cells(segment_to_cells(0, seg2)))  # counts pollute it
    assert got == []
    assert reasm.frames_corrupt == 1
    assert reasm.cells_wasted == 22 + 23


def test_eom_verdict_return_value():
    reasm = Reassembler()
    n = segment_to_cells(0, Segment(0, 40, None)).n
    assert n == 2
    reasm.body(1)
    assert reasm.eom(n) is True
    assert reasm.eom(n) is False         # missing body cell this time
