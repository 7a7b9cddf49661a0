"""AAL5 framing arithmetic: TCP segment <-> ATM cell geometry.

A TCP segment of L payload bytes travels as one AAL5 frame of
L + 56 bytes (20 TCP + 20 IP + 8 LLC/SNAP + 8 AAL5 trailer), padded
into 48-byte cell payloads; every cell costs 53 bytes on the wire.
A frame is delivered only if every one of its cells arrives.  No cell
exists as an object: a frame is one `Frame(vc, n, seg)` descriptor.
"""

from __future__ import annotations

from collections import namedtuple

CELL_BYTES = 53
CELL_PAYLOAD = 48
FRAME_OVERHEAD = 56  # TCP 20 + IP 20 + LLC/SNAP 8 + AAL5 trailer 8

# length: payload bytes, 0 for a pure ACK; ack: the cumulative ACK number,
# None on data segments; sacks: SACK blocks, () when there are none
Segment = namedtuple("Segment", "seq length ack sacks", defaults=((),))
Segment.__doc__ = ("Wire-level TCP segment descriptor (no actual payload "
                   "bytes carried).")

Frame = namedtuple("Frame", "vc n seg")
Frame.__doc__ = "One segment's AAL5 frame on a VC: n cells, the last one eom."


def cells_for_segment(payload_bytes: int) -> int:
    """Number of ATM cells an AAL5 frame with this TCP payload occupies."""
    if payload_bytes < 0:
        raise ValueError("negative payload")
    return -(-(payload_bytes + FRAME_OVERHEAD) // CELL_PAYLOAD)


def max_tcp_throughput(mss: int, link_bps: float) -> float:
    """Best-case TCP payload throughput (bit/s) for MSS-sized segments."""
    return link_bps * mss / (cells_for_segment(mss) * CELL_BYTES)


def segment_to_cells(vc: int, seg: Segment) -> Frame:
    """The frame that carries `seg` on `vc`, sized in cells."""
    # tuple.__new__: the same Frame without namedtuple's Python-level __new__
    return tuple.__new__(Frame, (vc, cells_for_segment(seg.length), seg))


class Reassembler:
    """Per-VC AAL5 reassembly: counts cells, validates frames at eom.

    Frame boundaries are delimited by eom cells.  A frame is intact iff the
    number of cells seen since the previous eom equals the cell count of the
    frame whose eom cell closes it; otherwise the frame (and, when an
    eom cell itself was lost, the bytes merged from the next frame) is
    silently discarded, and the cells already received count as wasted.
    """

    __slots__ = ("count", "frames_ok", "frames_corrupt", "cells_wasted")

    def __init__(self):
        self.count = 0
        self.frames_ok = 0
        self.frames_corrupt = 0
        self.cells_wasted = 0

    def body(self, n: int) -> None:
        """Tally n body cells of the current frame."""
        self.count += n

    def eom(self, n: int) -> bool:
        """Close the frame at its eom cell, that of an n-cell frame; True if
        it arrived intact."""
        got = self.count + 1
        self.count = 0
        if got == n:
            self.frames_ok += 1
            return True
        self.frames_corrupt += 1
        self.cells_wasted += got
        return False
