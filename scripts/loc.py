#!/usr/bin/env python3
"""Counts the workspace's non-test Rust lines.

Every `.rs` file under `crates/*/src` (bins included) and
`crates/*/examples` is read up to the first line that starts with
`#[cfg(test)]`. A line starting with `//` is a comment line, a blank line
counts only as physical, and every other line is code.

    python3 scripts/loc.py [ROOT] [FILE ...]

ROOT defaults to the current directory; FILEs, relative to ROOT, are
counted instead of the whole workspace.
"""

import glob
import os
import sys


def main(args):
    root = args[0] if args else "."
    paths = [os.path.join(root, f) for f in args[1:]] or [
        path
        for pattern in ("crates/*/src/**/*.rs", "crates/*/examples/**/*.rs")
        for path in glob.glob(os.path.join(root, pattern), recursive=True)
    ]
    code = comment = physical = 0
    for path in paths:
        with open(path) as f:
            for line in f.read().splitlines():
                s = line.strip()
                if s.startswith("#[cfg(test)]"):
                    break
                physical += 1
                if s.startswith("//"):
                    comment += 1
                elif s:
                    code += 1
    print(f"code {code}  comment {comment}  physical {physical}")


if __name__ == "__main__":
    main(sys.argv[1:])
