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
_COUNT_DIGITS = (1, 3, 6)  # digits of the vertex count after 0, 1 or 2 leading '~' bytes


def _byte_values(s: str, start: int) -> List[int]:
    vals = []
    for off in range(start, len(s)):
        b = ord(s[off])
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} out of range [63, 126] at offset {off}")
        vals.append(b - 63)
    return vals


def _size_prefix(n: int) -> List[int]:
    """The canonical vertex-count bytes of n, minus 63: the shortest of the three forms that holds n."""
    if n >= 1 << 36:
        raise ValueError(f"vertex count {n} exceeds graph6 range")
    lead = 0 if n <= 62 else 1 if n <= 258047 else 2
    return [63] * lead + [(n >> 6 * i) & 63 for i in reversed(range(_COUNT_DIGITS[lead]))]


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string, optionally prefixed by one '>>graph6<<' header.

    The header is skipped once: a second one fails on its '>' byte.  Error
    offsets count from the start of the line, header included.
    """
    s = line.rstrip("\r\n")
    base = len(HEADER) if s.startswith(HEADER) else 0
    if len(s) == base:
        raise Graph6Error(f"empty graph6 string (offset {base})")

    vals = _byte_values(s, base)
    lead = 0 if vals[0] < 63 else 1 if len(vals) >= 2 and vals[1] < 63 else 2
    pos = lead + _COUNT_DIGITS[lead]
    if len(vals) < pos:
        raise Graph6Error(f"truncated {_COUNT_DIGITS[lead]}-byte vertex count at offset {len(s)}")
    n = 0
    for v in vals[lead:pos]:
        n = (n << 6) | v
    if vals[:pos] != _size_prefix(n):
        raise Graph6Error(f"non-canonical long vertex count at offset {base}")
    if n == 0:
        raise Graph6Error(f"vertex count 0 not representable (offset {base})")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    have = len(vals) - pos
    if have < nbytes:
        raise Graph6Error(
            f"payload too short: need {nbytes} bytes, got {have} (offset {len(s)})"
        )
    if have > nbytes:
        raise Graph6Error(f"trailing garbage at offset {base + pos + nbytes}")

    edges = []
    bit = 0
    i, j = 0, 1
    for off in range(pos, pos + nbytes):
        v = vals[off]
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if (v >> shift) & 1:
                    raise Graph6Error(f"nonzero padding bit at offset {base + off}")
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
    prefix = _size_prefix(n)
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
