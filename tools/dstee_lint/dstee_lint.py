#!/usr/bin/env python3
"""dstee_lint: project-specific static checks the compiler cannot express.

Clang Thread Safety Analysis (src/util/thread_annotations.hpp + the
`clang-tsa` preset) proves lock DISCIPLINE — that guarded members are only
touched with the right mutex held. This lint enforces the repo invariants
that sit a level above the type system:

  raw-thread       No raw std::thread in library code. Threads live in
                   src/runtime/ (the pool) or serve's worker groups;
                   everything else fans out through runtime::IntraOp.
                   bench/ and tests/ are load generators and out of scope.
  unguarded-mutex  (a) No naked std::mutex / std::condition_variable —
                   use util::Mutex / util::CondVar so the thread-safety
                   analysis can see the capability (src/util/sync.hpp is
                   the one definition site). (b) Every util::Mutex
                   declaration must have at least one DSTEE_GUARDED_BY /
                   DSTEE_REQUIRES / ... user in the same file; a mutex
                   protecting nothing nameable takes a waiver comment.
  kernel-intraop   src/kernels/ never reads runtime::default_pool() or
                   intra_op_default() directly; kernels accept a
                   runtime::IntraOp so the caller owns placement policy.
  serve-epilogue   src/serve/ never calls the raw activation kernels
                   (kernels::relu / add_relu / leaky_relu / sigmoid /
                   tanh) — those are training-path compat wrappers. Eval
                   ops compose a kernels::Epilogue and apply_epilogue,
                   serve's one elementwise path.
  hot-swap-rcu     No plain std::shared_ptr<const CompiledNet> MEMBERS
                   (trailing-underscore fields). A hot-swapped version
                   pointer read by workers while a swap publishes tears
                   without atomics; hold it in util::RcuCell<CompiledNet>
                   (src/util/rcu.hpp). Locals snapshotting a loaded
                   version are fine.
  simd-confinement SIMD intrinsics (<immintrin.h>-family includes,
                   _mm*/__m* identifiers) live only under
                   src/kernels/simd/. Everything else talks to the
                   dispatch header (kernels/simd/backend.hpp), so a
                   build without AVX2 — or a future backend — never
                   ripples past that one directory.
  include-hygiene  Concurrency symbols (std::mutex, std::thread,
                   std::atomic, ...) require a DIRECT include of their
                   header — the concurrency surface must state its
                   dependencies, not inherit them — and duplicate
                   includes are flagged.
  serve-timing     src/serve/ never touches std::chrono::steady_clock
                   directly; the serve hot path takes timestamps through
                   the obs clock surface (obs::Clock / obs::now /
                   obs::now_ns in src/obs/clock.hpp), so trace spans,
                   stats and metrics all share one time base and the
                   tracing cost model stays auditable in one place.
                   Zero-waiver by policy.
  unbuilt-source   (only with --compile-commands) every .cpp under src/
                   appears in compile_commands.json, catching sources
                   dropped from the build.

Waivers: append `// dstee-lint: allow(<rule>)` (ideally with a reason
after ` -- `) to the offending line, or put it on its own line directly
above. Waivers are the documented escape hatch; src/runtime/ and
src/serve/ lock state must instead be annotated for real.

Usage:
  dstee_lint.py [--root REPO] [--compile-commands build/compile_commands.json]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RULES = {
    "raw-thread": "raw std::thread outside src/runtime/",
    "unguarded-mutex": "naked std::mutex or util::Mutex with no annotation user",
    "kernel-intraop": "kernel reads the process pool instead of IntraOp",
    "serve-epilogue": "serve code calls a raw activation kernel, not Epilogue",
    "hot-swap-rcu": "shared_ptr<const CompiledNet> member outside util::RcuCell",
    "simd-confinement": "SIMD intrinsics outside src/kernels/simd/",
    "include-hygiene": "concurrency symbol without its direct #include",
    "serve-timing": "serve code reads steady_clock instead of the obs clock",
    "unbuilt-source": "src/ .cpp missing from compile_commands.json",
}

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

# Symbols whose use demands a direct include (concurrency surface only —
# deliberately narrow so the rule stays high-signal).
INCLUDE_MAP = [
    (re.compile(r"\bstd::(mutex|lock_guard|unique_lock|scoped_lock|recursive_mutex|timed_mutex)\b"), "mutex"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"), "condition_variable"),
    (re.compile(r"\bstd::(thread|this_thread)\b"), "thread"),
    (re.compile(r"\bstd::atomic\b"), "atomic"),
    (re.compile(r"\bstd::(future|promise|async|shared_future)\b"), "future"),
]

WAIVER_RE = re.compile(r"//\s*dstee-lint:\s*allow\(([a-z\-,\s]+)\)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines so
    line numbers survive. Good enough for token scans; not a C++ parser."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def waived_lines(raw_lines: list[str]) -> dict[int, set[str]]:
    """1-based line -> set of waived rule names. A waiver covers its own
    line and the line directly below it (the standalone-comment-above
    form)."""
    waived: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        waived.setdefault(idx, set()).update(rules)
        waived.setdefault(idx + 1, set()).update(rules)
    return waived


class FileScan:
    def __init__(self, path: Path, root: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.raw.splitlines()
        self.stripped = strip_comments_and_strings(self.raw)
        self.lines = self.stripped.splitlines()
        self.waived = waived_lines(self.raw_lines)

    def is_waived(self, line: int, rule: str) -> bool:
        return rule in self.waived.get(line, set())


def scan_raw_thread(fs: FileScan, findings: list[Finding]) -> None:
    if fs.rel.startswith("src/runtime/"):
        return
    pat = re.compile(r"\bstd::thread\b(?!\s*::)")
    for ln, line in enumerate(fs.lines, start=1):
        if pat.search(line) and not fs.is_waived(ln, "raw-thread"):
            findings.append(Finding(
                fs.path, ln, "raw-thread",
                "raw std::thread in library code; use runtime::Pool / "
                "runtime::IntraOp (threads live in src/runtime/ only)"))


MUTEX_DECL_RE = re.compile(
    r"^\s*(?:static\s+|mutable\s+)*(?:dstee::)?(?:util::)?Mutex\s+(\w+)\s*[;{=]")
NAKED_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(?:_any)?)\b")
ANNOTATION_USER_RE = (
    r"DSTEE_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY)\("
    r"[^)]*\b{name}\b")


def scan_unguarded_mutex(fs: FileScan, findings: list[Finding]) -> None:
    if fs.rel == "src/util/sync.hpp":
        return  # the one place allowed to name the std types
    for ln, line in enumerate(fs.lines, start=1):
        m = NAKED_RE.search(line)
        if m and "#include" not in line and not fs.is_waived(ln, "unguarded-mutex"):
            findings.append(Finding(
                fs.path, ln, "unguarded-mutex",
                f"naked std::{m.group(1)} is invisible to thread-safety "
                "analysis; use util::Mutex / util::CondVar (util/sync.hpp)"))
    for ln, line in enumerate(fs.lines, start=1):
        m = MUTEX_DECL_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        user = re.compile(ANNOTATION_USER_RE.format(name=re.escape(name)))
        if user.search(fs.stripped):
            continue
        if fs.is_waived(ln, "unguarded-mutex"):
            continue
        findings.append(Finding(
            fs.path, ln, "unguarded-mutex",
            f"util::Mutex '{name}' has no DSTEE_GUARDED_BY/DSTEE_REQUIRES "
            "user in this file; annotate what it protects or add a "
            "dstee-lint waiver with the reason"))


def scan_kernel_intraop(fs: FileScan, findings: list[Finding]) -> None:
    if not fs.rel.startswith("src/kernels/"):
        return
    pat = re.compile(r"\b(default_pool|intra_op_default)\s*\(")
    for ln, line in enumerate(fs.lines, start=1):
        m = pat.search(line)
        if m and not fs.is_waived(ln, "kernel-intraop"):
            findings.append(Finding(
                fs.path, ln, "kernel-intraop",
                f"kernel reads runtime::{m.group(1)}() directly; accept a "
                "runtime::IntraOp parameter so callers own the policy"))


# Raw activation kernels are training-path compat wrappers; the serve
# layer expresses activations as a kernels::Epilogue and applies them
# with apply_epilogue, its one elementwise path.
RAW_ACT_RE = re.compile(r"\bkernels::(relu|add_relu|leaky_relu|sigmoid|tanh)\s*\(")


def scan_serve_epilogue(fs: FileScan, findings: list[Finding]) -> None:
    if not fs.rel.startswith("src/serve/"):
        return
    for ln, line in enumerate(fs.lines, start=1):
        m = RAW_ACT_RE.search(line)
        if m and not fs.is_waived(ln, "serve-epilogue"):
            findings.append(Finding(
                fs.path, ln, "serve-epilogue",
                f"serve code calls kernels::{m.group(1)}() directly; compose "
                "a kernels::Epilogue and use apply_epilogue"))


# A hot-swap version pointer held as a plain member field. Members follow
# the repo's trailing-underscore convention, which is what separates a
# swappable field (must be an RcuCell) from a harmless local snapshot or a
# function parameter.
HOT_SWAP_MEMBER_RE = re.compile(
    r"\bstd::shared_ptr\s*<\s*const\s+(?:serve::)?CompiledNet\s*>\s+"
    r"(\w+_)\s*[;={]")


def scan_hot_swap_rcu(fs: FileScan, findings: list[Finding]) -> None:
    if fs.rel == "src/util/rcu.hpp":
        return  # the helper itself wraps the raw atomic shared_ptr
    for ln, line in enumerate(fs.lines, start=1):
        m = HOT_SWAP_MEMBER_RE.search(line)
        if m and not fs.is_waived(ln, "hot-swap-rcu"):
            findings.append(Finding(
                fs.path, ln, "hot-swap-rcu",
                f"member '{m.group(1)}' holds a hot-swappable CompiledNet in "
                "a plain shared_ptr; concurrent swap/load tears — hold it in "
                "util::RcuCell<CompiledNet> (util/rcu.hpp)"))


# Intrinsic headers (immintrin.h and the narrower x86 *intrin.h family)
# and intrinsic identifiers: _mm_/_mm256_/_mm512_ calls and the __m128/
# __m256/__m512 register types (with d/i suffixes).
SIMD_INCLUDE_RE = re.compile(r"#\s*include\s*<\w*intrin\.h>")
SIMD_IDENT_RE = re.compile(r"\b(?:_mm(?:\d+)?_\w+|__m(?:64|128|256|512)[di]?)\b")


def scan_simd_confinement(fs: FileScan, findings: list[Finding]) -> None:
    if fs.rel.startswith("src/kernels/simd/"):
        return
    for ln, line in enumerate(fs.lines, start=1):
        if SIMD_INCLUDE_RE.search(fs.raw_lines[ln - 1]) \
                and not fs.is_waived(ln, "simd-confinement"):
            findings.append(Finding(
                fs.path, ln, "simd-confinement",
                "intrinsics header included outside src/kernels/simd/; talk "
                "to the dispatch surface (kernels/simd/backend.hpp) instead"))
            continue
        m = SIMD_IDENT_RE.search(line)
        if m and not fs.is_waived(ln, "simd-confinement"):
            findings.append(Finding(
                fs.path, ln, "simd-confinement",
                f"SIMD intrinsic '{m.group(0)}' outside src/kernels/simd/; "
                "add a KernelBackend kernel there and dispatch through "
                "kernels/simd/backend.hpp"))


# The serve layer's one sanctioned timing surface is src/obs/clock.hpp
# (obs::Clock aliases steady_clock there, once). Naming steady_clock in
# src/serve/ bypasses it — spans, stats and metrics would stop sharing a
# time base. Deliberately waiver-free: there is no valid exception.
SERVE_TIMING_RE = re.compile(r"\bsteady_clock\b")


def scan_serve_timing(fs: FileScan, findings: list[Finding]) -> None:
    if not fs.rel.startswith("src/serve/"):
        return
    for ln, line in enumerate(fs.lines, start=1):
        if SERVE_TIMING_RE.search(line) and not fs.is_waived(ln, "serve-timing"):
            findings.append(Finding(
                fs.path, ln, "serve-timing",
                "serve code names std::chrono::steady_clock directly; take "
                "timestamps through obs::Clock / obs::now / obs::now_ns "
                "(src/obs/clock.hpp) so spans, stats and metrics share one "
                "time base"))


def scan_include_hygiene(fs: FileScan, findings: list[Finding]) -> None:
    includes = {}
    for ln, line in enumerate(fs.raw_lines, start=1):
        m = re.match(r'\s*#\s*include\s*([<"][^>"]+[>"])', line)
        if m:
            if m.group(1) in includes and not fs.is_waived(ln, "include-hygiene"):
                findings.append(Finding(
                    fs.path, ln, "include-hygiene",
                    f"duplicate #include {m.group(1)}"))
            includes.setdefault(m.group(1), ln)
    for pat, header in INCLUDE_MAP:
        m = pat.search(fs.stripped)
        if not m:
            continue
        if f"<{header}>" in includes:
            continue
        ln = fs.stripped[:m.start()].count("\n") + 1
        if fs.is_waived(ln, "include-hygiene"):
            continue
        findings.append(Finding(
            fs.path, ln, "include-hygiene",
            f"uses {m.group(0)} without a direct #include <{header}>"))


def scan_unbuilt_sources(root: Path, compile_commands: Path,
                         findings: list[Finding]) -> None:
    try:
        entries = json.loads(compile_commands.read_text())
    except (OSError, json.JSONDecodeError) as e:
        findings.append(Finding(compile_commands, 1, "unbuilt-source",
                                f"cannot read compile_commands.json: {e}"))
        return
    built = set()
    for entry in entries:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry["directory"]) / f
        try:
            built.add(f.resolve())
        except OSError:
            pass
    for path in sorted((root / "src").rglob("*.cpp")):
        if path.resolve() not in built:
            findings.append(Finding(
                path, 1, "unbuilt-source",
                "not listed in compile_commands.json — dropped from the "
                "build?"))


def collect_files(root: Path) -> list[Path]:
    files = []
    for sub in ("src", "tools"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            # The lint's own known-bad fixtures are linted with
            # --root fixtures/ by the selftest, never as tree sources.
            rel = path.relative_to(root).as_posix()
            if rel.startswith("tools/dstee_lint/fixtures/"):
                continue
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                    help="repository root (default: this script's repo)")
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compile_commands.json for the unbuilt-source rule")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:18} {desc}")
        return 0

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"dstee_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    scans = [FileScan(p, root) for p in collect_files(root)]
    for fs in scans:
        scan_raw_thread(fs, findings)
        scan_unguarded_mutex(fs, findings)
        scan_kernel_intraop(fs, findings)
        scan_serve_epilogue(fs, findings)
        scan_hot_swap_rcu(fs, findings)
        scan_simd_confinement(fs, findings)
        scan_serve_timing(fs, findings)
        scan_include_hygiene(fs, findings)
    if args.compile_commands is not None:
        scan_unbuilt_sources(root, args.compile_commands, findings)

    for f in sorted(findings, key=lambda f: (str(f.path), f.line)):
        print(f)
    if findings:
        print(f"dstee_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"dstee_lint: clean ({len(scans)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
