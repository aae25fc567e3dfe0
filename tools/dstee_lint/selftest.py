#!/usr/bin/env python3
"""Fixture selftest for dstee_lint: proves every rule FIRES on a known-bad
snippet and stays QUIET on the blessed pattern next to it. Run as the
`tools.dstee_lint_selftest` CTest case; the companion `tools.dstee_lint_tree`
case proves the real tree is clean.

Asserts the exact finding set — (relative path, rule) pairs with expected
multiplicity — so a rule that silently stops firing (or starts
double-reporting) fails the build, not just a rule that over-fires.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINT = HERE / "dstee_lint.py"
FIXTURES = HERE / "fixtures"

# Every finding the fixture tree must produce — nothing more, nothing less.
EXPECTED = sorted([
    ("src/data/bad_include.cpp", "include-hygiene"),      # duplicate include
    ("src/data/bad_include.cpp", "include-hygiene"),      # atomic w/o header
    ("src/kernels/bad_kernel.cpp", "kernel-intraop"),     # default_pool()
    ("src/kernels/bad_kernel.cpp", "kernel-intraop"),     # intra_op_default()
    ("src/methods/bad_thread.cpp", "raw-thread"),
    ("src/serve/bad_hotswap.hpp", "hot-swap-rcu"),        # plain member
    ("src/serve/bad_mutex.hpp", "unguarded-mutex"),       # naked std::mutex
    ("src/serve/bad_mutex.hpp", "unguarded-mutex"),       # orphan util::Mutex
    ("src/serve/bad_raw_act.cpp", "serve-epilogue"),      # raw kernels::relu
    ("src/serve/bad_simd.cpp", "simd-confinement"),       # <immintrin.h>
    ("src/serve/bad_simd.cpp", "simd-confinement"),       # __m256/_mm256 load
    ("src/serve/bad_simd.cpp", "simd-confinement"),       # _mm256 store
    ("src/serve/bad_timing.cpp", "serve-timing"),         # raw steady_clock
])

FINDING_RE = re.compile(r"^(?P<path>.+?):(?P<line>\d+): \[(?P<rule>[a-z\-]+)\]")


def main() -> int:
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(FIXTURES)],
        capture_output=True, text=True)
    if proc.returncode != 1:
        print(f"FAIL: expected exit 1 on fixtures, got {proc.returncode}\n"
              f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
        return 1

    got = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if not m:
            continue
        rel = Path(m.group("path")).resolve().relative_to(FIXTURES).as_posix()
        got.append((rel, m.group("rule")))
    got.sort()

    if got != EXPECTED:
        print("FAIL: finding set mismatch")
        for f in sorted(set(EXPECTED) - set(got)) + \
                [e for e in EXPECTED if got.count(e) < EXPECTED.count(e)]:
            print(f"  missing: {f}")
        for f in [g for g in got if EXPECTED.count(g) < got.count(g)] + \
                sorted(set(got) - set(EXPECTED)):
            print(f"  unexpected: {f}")
        print(f"raw output:\n{proc.stdout}")
        return 1

    # --list-rules must enumerate every rule the fixtures exercise.
    rules = subprocess.run(
        [sys.executable, str(LINT), "--list-rules"],
        capture_output=True, text=True)
    listed = {line.split()[0] for line in rules.stdout.splitlines() if line}
    exercised = {rule for _, rule in EXPECTED}
    if not exercised <= listed:
        print(f"FAIL: --list-rules missing {exercised - listed}")
        return 1

    print(f"OK: {len(EXPECTED)} expected findings, all rules fire, "
          "clean fixtures stay clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
