#!/usr/bin/env python3
"""Lint CPU-profile exports from the lookhd sampling profiler.

The format is the one src/obs/profiler.cpp emits: Brendan Gregg
collapsed stacks, one `frame;frame;... N` line per aggregated stack,
N a positive integer sample count. Input to flamegraph.pl.

Checks: non-empty document, frame syntax (no empty frames, no
metacharacters that would break the collapsed grammar), counts
positive integers, and - when --seconds/--hz/--threads are
given - total samples within the CPU-time sampling bound
seconds x hz x threads (+slack). A thread only accumulates samples
while it burns CPU, so the bound is an upper bound, never a target.

Usage:
  validate_profile.py FILE [--seconds N --hz H --threads T]
                      [--require-frame SUBSTR]
  validate_profile.py --selftest
"""

import argparse
import re
import sys

# `frames... count` - frames split on ';', count after the LAST
# space (demangled C++ names legally contain spaces).
COLLAPSED_LINE = re.compile(r"^(.+) (\d+)$")

# Sampling jitter slack on the seconds*hz*threads bound: timer
# arming latency and coarse kernel CPU-clock granularity can land a
# handful of extra ticks right at a boundary.
BOUND_SLACK = 1.10


class ProfileError(Exception):
    pass


def parse_collapsed(text):
    """Return (stacks, total_samples); raise ProfileError when bad."""
    stacks = []
    total = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            raise ProfileError(f"line {lineno}: blank line")
        m = COLLAPSED_LINE.match(line)
        if not m:
            raise ProfileError(
                f"line {lineno}: not 'frames... count': {line[:80]!r}")
        frames = m.group(1).split(";")
        count = int(m.group(2))
        if count <= 0:
            raise ProfileError(f"line {lineno}: non-positive count")
        for frame in frames:
            if not frame:
                raise ProfileError(
                    f"line {lineno}: empty frame (';;' or leading/"
                    "trailing ';')")
            if any(c in frame for c in "\t\r"):
                raise ProfileError(
                    f"line {lineno}: control character in frame")
        stacks.append((frames, count))
        total += count
    if not stacks:
        raise ProfileError("empty profile: no stacks")
    return stacks, total


def check_bound(total_samples, seconds, hz, threads):
    bound = seconds * hz * threads * BOUND_SLACK
    if total_samples > bound:
        raise ProfileError(
            f"{total_samples} samples exceeds the CPU-time bound "
            f"{seconds}s x {hz}Hz x {threads} threads "
            f"(+{int((BOUND_SLACK - 1) * 100)}% slack = "
            f"{bound:.0f})")


def validate(path, seconds=None, hz=None, threads=None,
             require_frame=None):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stacks, total_samples = parse_collapsed(text)
    if seconds and hz and threads:
        check_bound(total_samples, seconds, hz, threads)
    if require_frame:
        hot = sorted(stacks, key=lambda s: -s[1])
        if not any(require_frame in frame
                   for frames, _ in hot for frame in frames):
            raise ProfileError(
                f"no frame contains {require_frame!r} (top stack: "
                f"{';'.join(hot[0][0])[:160]})")
    return len(stacks), total_samples


GOOD_COLLAPSED = """\
main;lookhd::Classifier::scoresBatch(std::span<double const>) const;kernel 42
main;parse 3
"""

BAD_COLLAPSED = [
    ("", "empty"),
    ("main;kernel\n", "no count"),
    ("main;kernel 0\n", "zero count"),
    ("main;;kernel 7\n", "empty frame"),
    ("main;kernel -3\n", "negative count"),
]

def selftest():
    failures = []

    try:
        parse_collapsed(GOOD_COLLAPSED)
    except ProfileError as e:
        failures.append(f"good collapsed rejected: {e}")
    for text, label in BAD_COLLAPSED:
        try:
            parse_collapsed(text)
            failures.append(f"bad collapsed ({label}) accepted")
        except ProfileError:
            pass

    # The duration*hz*threads bound must trip on oversampling.
    try:
        check_bound(1000, seconds=2, hz=99, threads=1)
        failures.append("oversampling bound not enforced")
    except ProfileError:
        pass
    try:
        check_bound(150, seconds=2, hz=99, threads=1)
    except ProfileError as e:
        failures.append(f"in-bound sample count rejected: {e}")

    if failures:
        for f in failures:
            print(f"selftest FAIL: {f}", file=sys.stderr)
        return 1
    print("validate_profile selftest: all checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", help="profile to lint")
    ap.add_argument("--seconds", type=float,
                    help="profiled wall-clock duration")
    ap.add_argument("--hz", type=int, help="sampling rate used")
    ap.add_argument("--threads", type=int,
                    help="max concurrently busy threads")
    ap.add_argument("--require-frame",
                    help="substring that must appear in some frame")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(selftest())
    if not args.file:
        ap.error("FILE required unless --selftest")
    try:
        stacks, samples = validate(
            args.file, seconds=args.seconds,
            hz=args.hz, threads=args.threads,
            require_frame=args.require_frame)
    except ProfileError as e:
        print(f"validate_profile: {args.file}: {e}",
              file=sys.stderr)
        sys.exit(1)
    print(f"validate_profile: {args.file}: OK "
          f"({stacks} stacks, {samples} samples)")


if __name__ == "__main__":
    main()
