"""AAL5 framing arithmetic: TCP segment <-> ATM cell geometry.

A TCP segment of L payload bytes travels as one AAL5 frame of
L + 56 bytes (20 TCP + 20 IP + 8 LLC/SNAP + 8 AAL5 trailer), padded
into 48-byte cell payloads; every cell costs 53 bytes on the wire.
A frame is delivered only if every one of its cells arrives.
"""

from __future__ import annotations

from typing import NamedTuple

CELL_BYTES = 53
CELL_PAYLOAD = 48
FRAME_OVERHEAD = 56  # TCP 20 + IP 20 + LLC/SNAP 8 + AAL5 trailer 8


class Segment(NamedTuple):
    """Wire-level TCP segment descriptor (no actual payload bytes carried)."""

    conn: int
    sender: int      # 0 = client side, 1 = server side
    seq: int
    length: int      # payload bytes; 0 for a pure ACK
    ack: int | None  # cumulative ACK number, None on data segments
    sacks: tuple = ()


class Cell(NamedTuple):
    vc: int
    eom: bool
    seg: Segment | None  # segment descriptor rides on the eom cell only


def cells_for_segment(payload_bytes: int) -> int:
    """Number of ATM cells an AAL5 frame with this TCP payload occupies."""
    if payload_bytes < 0:
        raise ValueError("negative payload")
    return -(-(payload_bytes + FRAME_OVERHEAD) // CELL_PAYLOAD)


def wire_bytes(payload_bytes: int) -> int:
    return cells_for_segment(payload_bytes) * CELL_BYTES


def max_tcp_throughput(mss: int, link_bps: float) -> float:
    """Best-case TCP payload throughput (bit/s) for MSS-sized segments."""
    return link_bps * mss / (cells_for_segment(mss) * CELL_BYTES)


def segment_to_cells(vc: int, seg: Segment, body: Cell | None = None) -> list[Cell]:
    """Serialize a segment into its cell train; the eom cell carries `seg`.

    Body cells are interchangeable, so callers may pass a preallocated
    per-VC `body` cell to avoid re-allocating one per frame.
    """
    n = cells_for_segment(seg.length)
    if body is None:
        body = Cell(vc, False, None)
    cells = [body] * (n - 1)
    cells.append(Cell(vc, True, seg))
    return cells


class Reassembler:
    """Per-VC AAL5 reassembly: counts cells, validates frames at eom.

    Frame boundaries are delimited by eom cells.  A frame is intact iff the
    number of cells seen since the previous eom equals the cell count implied
    by the segment length on the eom cell; otherwise the frame (and, when an
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

    def eom(self, seg: Segment) -> bool:
        """Close the frame at its eom cell; True if it arrived intact."""
        got = self.count + 1
        self.count = 0
        if got == cells_for_segment(seg.length):
            self.frames_ok += 1
            return True
        self.frames_corrupt += 1
        self.cells_wasted += got
        return False
