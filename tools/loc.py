#!/usr/bin/env python3
"""Count the workspace's Rust lines under one rule, per crate.

  tools/loc.py              # the working tree
  tools/loc.py --rev REV    # the working tree, and its delta against REV

The rule:

* a line is *non-test* when its file is `crates/*/src/**/*.rs` or
  `src/*.rs` and it comes before the file's first column-0 `#[cfg(test)]`;
  the lines from that attribute on are *test* lines;
* a file named `tests.rs`, and every `.rs` file under a `tests/`
  directory (`crates/*/tests/**`, the root `tests/`), is test lines whole.

Examples, benches, `vendor/` and `perfbench/` are not counted. The root
package (`src/`, `tests/`) is reported as `fncc`.
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ATTR = "#[cfg(test)]"


def classify(path):
    """`(crate, kind)` for a counted file, kind `src` or `test`; None otherwise."""
    parts = path.split("/")
    if not path.endswith(".rs"):
        return None
    if parts[0] == "crates" and len(parts) >= 4:
        crate, area = parts[1], parts[2]
        if area == "tests":
            return crate, "test"
        if area == "src":
            return crate, "test" if "tests" in parts[3:-1] or parts[-1] == "tests.rs" else "src"
        return None
    if parts[0] == "src" and len(parts) == 2:
        return "fncc", "test" if parts[-1] == "tests.rs" else "src"
    if parts[0] == "tests":
        return "fncc", "test"
    return None


def split(text):
    """`(non_test, test)` line counts of one source file's text."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(TEST_ATTR):
            return i, len(lines) - i
    return len(lines), 0


def tally(files):
    """`{crate: [non_test, test]}` over `(path, text)` pairs."""
    out = {}
    for path, text in files:
        c = classify(path)
        if c is None:
            continue
        crate, kind = c
        non_test, test = split(text) if kind == "src" else (0, len(text.splitlines()))
        row = out.setdefault(crate, [0, 0])
        row[0] += non_test
        row[1] += test
    return out


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def tree_files():
    """Tracked and untracked-but-not-ignored files as they are on disk."""
    listed = git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for path in filter(None, listed.split("\0")):
        if classify(path) is None:
            continue
        p = ROOT / path
        if p.is_file():
            yield path, p.read_text()


def rev_files(rev):
    listed = git("ls-tree", "-r", "--name-only", "-z", rev)
    for path in filter(None, listed.split("\0")):
        if classify(path) is not None:
            yield path, git("show", f"{rev}:{path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="git revision to print the delta against")
    args = ap.parse_args()
    now = tally(tree_files())
    then = tally(rev_files(args.rev)) if args.rev else None
    crates = sorted(set(now) | set(then or {}))
    total = {"now": [0, 0], "then": [0, 0]}
    if then is None:
        print(f"{'crate':<14}{'non-test':>10}{'test':>10}")
    else:
        print(f"{'crate':<14}{'non-test':>10}{'Δ':>8}{'test':>10}{'Δ':>8}")
    for crate in crates:
        n = now.get(crate, [0, 0])
        for i in range(2):
            total["now"][i] += n[i]
        if then is None:
            print(f"{crate:<14}{n[0]:>10}{n[1]:>10}")
            continue
        t = then.get(crate, [0, 0])
        for i in range(2):
            total["then"][i] += t[i]
        print(f"{crate:<14}{n[0]:>10}{n[0] - t[0]:>+8}{n[1]:>10}{n[1] - t[1]:>+8}")
    n, t = total["now"], total["then"]
    if then is None:
        print(f"{'total':<14}{n[0]:>10}{n[1]:>10}")
    else:
        print(f"{'total':<14}{n[0]:>10}{n[0] - t[0]:>+8}{n[1]:>10}{n[1] - t[1]:>+8}")


if __name__ == "__main__":
    sys.exit(main())
