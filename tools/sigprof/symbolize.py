#!/usr/bin/env python3
"""Turn a sigprof.out into tables: per symbol, per source line, per instruction.

  tools/sigprof/symbolize.py sigprof.out [--top N]            # per-symbol table
  tools/sigprof/symbolize.py sigprof.out --lines [--top N]    # per file:line (needs debug info)
  tools/sigprof/symbolize.py sigprof.out --disasm SUBSTRING   # annotated disassembly of the
                                                              # hottest symbol matching SUBSTRING

Uses only binutils (`nm`, `addr2line`, `objdump`). A sample's PC is where the
timer interrupt landed, which on x86 is usually the instruction *after* the
one that stalled: read a hot line in --disasm together with the line above it.
"""
import argparse
import bisect
import collections
import subprocess
import sys


def load(path):
    """-> (exe, load bias of exe, [pc...], [(start, end, name)...] of every mapping)."""
    exe, maps, pcs = None, [], []
    for line in open(path):
        if line.startswith("exe "):
            exe = line[4:].strip()
        elif line.startswith("map "):
            f = line[4:].split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
        else:
            pcs.append(int(line, 16))
    # A PIE's first segment maps file offset 0 at the load bias.
    bias = min((lo for lo, _, off, name in maps if name == exe and off == 0), default=0)
    return exe, bias, pcs, maps


def symbols(exe):
    """Sorted [(addr, size, name)] of the executable's defined symbols."""
    out = subprocess.run(
        ["nm", "-C", "-S", "-n", "--defined-only", exe], capture_output=True, text=True, check=True
    ).stdout
    syms = []
    for line in out.splitlines():
        f = line.split(None, 3)
        if len(f) == 4 and f[2] in "tTwW":
            syms.append((int(f[0], 16), int(f[1], 16), f[3]))
    return syms


def table(counts, total, top):
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--lines", action="store_true")
    ap.add_argument("--disasm", metavar="SUBSTRING")
    args = ap.parse_args()

    exe, bias, pcs, maps = load(args.samples)
    if not pcs:
        sys.exit("no samples")
    syms = symbols(exe)
    starts = [s[0] for s in syms]
    # by_sym merges the instantiations of one generic function (one demangled
    # name); by_ix keeps them apart, for --disasm.
    by_sym, by_ix, by_addr = collections.Counter(), collections.Counter(), collections.Counter()
    for pc in pcs:
        home = next((m for m in maps if m[0] <= pc < m[1]), None)
        if home is None or home[3] != exe:
            by_sym[f"[{home[3] if home else 'unmapped'}]"] += 1
            continue
        addr = pc - bias
        i = bisect.bisect_right(starts, addr) - 1
        inside = i >= 0 and (syms[i][1] == 0 or addr < syms[i][0] + syms[i][1])
        by_sym[syms[i][2] if inside else "[no symbol]"] += 1
        by_ix[i if inside else -1] += 1
        by_addr[addr] += 1
    total = len(pcs)
    print(f"{total} samples, {exe}")

    if args.lines:
        addrs = sorted(by_addr)
        out = subprocess.run(
            ["addr2line", "-e", exe, "-C", "-i", "-a"] + [hex(a) for a in addrs],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        by_line, cur = collections.Counter(), None
        for line in out:
            if line.startswith("0x"):
                cur = int(line, 16)  # the next line is the innermost (inlined) location
            elif cur is not None:
                by_line[line.split(" (discriminator")[0]] += by_addr[cur]
                cur = None
        table(by_line, total, args.top)
    elif args.disasm:
        hot = [(n, i) for i, n in by_ix.items() if i >= 0 and args.disasm in syms[i][2]]
        if not hot:
            sys.exit(f"no sampled symbol matches {args.disasm!r}")
        n, i = max(hot)
        addr, size, name = syms[i]
        print(f"{name}: {n} samples ({100 * n / total:.2f}%)")
        out = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn", "-M", "intel", "-l",
             f"--start-address={addr:#x}", f"--stop-address={addr + size:#x}", exe],
            capture_output=True, text=True, check=True,
        ).stdout
        for line in out.splitlines():
            head = line.split(":", 1)[0].strip()
            try:
                hits = by_addr.get(int(head, 16), 0) if line.startswith(" ") else None
            except ValueError:
                hits = None
            print(f"{hits if hits else '':>6} {line}" if hits is not None else f"       {line}")
    else:
        table(by_sym, total, args.top)


if __name__ == "__main__":
    main()
