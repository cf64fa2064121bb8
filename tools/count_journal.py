#!/usr/bin/env python3
"""Count the valid records in a write-ahead journal file.

The journal framing (DESIGN.md section 13) is a 12-byte header per record
-- u32le payload length, u64le XXH64 (seed 0) of the payload -- followed by
the payload. A torn tail (truncated header or payload) ends the count
cleanly, mirroring recovery::read_journal. The hash is not re-verified
here: this tool sizes CI kill points, it is not the recovery loader.

Usage: tools/count_journal.py <dir>/journal.swj
"""

import struct
import sys


def count_records(path):
    n = 0
    with open(path, "rb") as fh:
        while True:
            header = fh.read(12)
            if len(header) < 12:
                break
            (length,) = struct.unpack("<I", header[:4])
            if len(fh.read(length)) < length:
                break
            n += 1
    return n


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        print(count_records(sys.argv[1]))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
