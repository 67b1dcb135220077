"""graph6 encoding and decoding.

graph6 packs the upper triangle of the adjacency matrix, column by column
(bit (i, j) for j = 1..n-1, i = 0..j-1), six bits per printable byte, each
byte offset by 63.  The vertex count is prefixed as one byte (n <= 62), or
'~' plus three bytes (n <= 258047), or '~~' plus six bytes.  Parsing is
strict: byte values outside [63, 126], wrong payload length, nonzero padding
bits and non-canonical length prefixes are all rejected, which makes
parse/write exact inverses of each other.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import Graph6Error
from .graphs import Graph

HEADER = ">>graph6<<"


def _byte_values(s: str, start: int) -> List[int]:
    vals = []
    for off in range(start, len(s)):
        b = ord(s[off])
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} out of range [63, 126] at offset {off}")
        vals.append(b - 63)
    return vals


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string, optionally prefixed by one '>>graph6<<' header.

    The header is stripped once: a second one fails on its '>' byte.
    """
    s = line.rstrip("\r\n")
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string (offset 0)")

    vals = _byte_values(s, 0)
    if vals[0] < 63:
        n, pos = vals[0], 1
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise Graph6Error(f"truncated 3-byte vertex count at offset {len(s)}")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        pos = 4
        if n <= 62:
            raise Graph6Error("non-canonical long vertex count at offset 0")
    else:
        if len(vals) < 8:
            raise Graph6Error(f"truncated 6-byte vertex count at offset {len(s)}")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8
        if n <= 258047:
            raise Graph6Error("non-canonical long vertex count at offset 0")
    if n == 0:
        raise Graph6Error("vertex count 0 not representable (offset 0)")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    have = len(vals) - pos
    if have < nbytes:
        raise Graph6Error(
            f"payload too short: need {nbytes} bytes, got {have} (offset {len(s)})"
        )
    if have > nbytes:
        raise Graph6Error(f"trailing garbage at offset {pos + nbytes}")

    edges = []
    bit = 0
    i, j = 0, 1
    for off in range(pos, pos + nbytes):
        v = vals[off]
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if (v >> shift) & 1:
                    raise Graph6Error(f"nonzero padding bit at offset {off}")
                continue
            if (v >> shift) & 1:
                edges.append((i, j))
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 string (no header, no newline)."""
    n = g.n
    if n <= 62:
        prefix = [n]
    elif n <= 258047:
        prefix = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    elif n <= 68719476735:
        prefix = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError(f"vertex count {n} exceeds graph6 range")

    nbits = n * (n - 1) // 2
    bits = bytearray(nbits)
    for (u, v) in g.edges:  # u < v; the bits run column by column of the upper triangle
        bits[v * (v - 1) // 2 + u] = 1

    payload = []
    for start in range(0, nbits, 6):
        v = 0
        for off in range(6):
            v <<= 1
            if start + off < nbits and bits[start + off]:
                v |= 1
        payload.append(v)
    return "".join(chr(63 + v) for v in prefix + payload)


def parse_graph6_file(lines, source: str = "<input>") -> List[Tuple[str, Graph]]:
    """Parse an iterable of lines; returns [(id, Graph)] with ids 'source:lineno'.

    A '>>graph6<<' header may start any line, alone or prefixing a graph, so
    files joined from several nauty outputs still load.  Blank lines and
    header-only lines are skipped; ``parse_graph6`` strips the header of
    every other line, once, so a doubled header fails with its line.
    """
    out = []
    for lineno, raw in enumerate(lines, start=1):
        s = raw.rstrip("\r\n")
        if s in ("", HEADER):
            continue
        try:
            out.append((f"{source}:{lineno}", parse_graph6(s)))
        except Graph6Error as e:
            raise Graph6Error(f"{source}:{lineno}: {e}") from None
    return out


def read_graph6_file(path: str) -> List[Tuple[str, Graph]]:
    # latin-1 maps every byte to one character, so a byte outside graph6's
    # range reaches _byte_values and is reported with its line and offset.
    with open(path, "r", encoding="latin-1") as fh:
        return parse_graph6_file(fh, source=path)


def write_graph6_file(path: str, graphs) -> None:
    """Write graphs one per line, LF-terminated."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for g in graphs:
            fh.write(write_graph6(g) + "\n")
