#!/usr/bin/env python3
"""Project-invariant linter (DESIGN.md §13). Pure stdlib; runs in CI.

Rules 1-6 scan src/ with comments and string literals stripped first, so
prose mentions don't trip the net; rule 7 reads the #include lines of src/,
bench/, examples/ and perfbench/:

  1. `errno` only in src/net/backend* — everything else goes through the
     SyscallIoError / SyscallInterrupted seam in net/backend_socket.h.
  2. No raw std::mutex / std::condition_variable / std::lock_guard /
     std::unique_lock / std::scoped_lock / std::shared_mutex /
     std::shared_timed_mutex / std::shared_lock / pthread_rwlock* outside
     src/util/ — use the annotated util::Mutex / util::MutexLock /
     util::CondVar / util::SharedMutex wrappers so clang's thread-safety
     analysis sees every acquisition.
  3. No poll( / epoll_* calls outside src/net/backend* — the event
     demultiplexer is a backend implementation detail behind EventBackend.
  4. util::Status and util::Result must stay class-level [[nodiscard]]
     (checked structurally in src/util/status.h), so a dropped error is a
     compile warning everywhere, under every compiler.
  5. No wall-clock reads — `time(`, `std::chrono::system_clock::now()` —
     outside src/util/clock.h. Every lifecycle deadline must flow through
     the injectable util::Clock seam, or the virtual-time chaos tests can't
     reach it. (steady_clock stays allowed: it is the seam's own engine and
     never observes the wall.)
  6. The serving path never trains: no `Trainer`, `TrainAll` or
     `GetOrTrain` token in src/net/ or src/service/query_router.*. Models
     are trained at set-up (ModelCatalog::TrainAll) and retrained on drift
     (ModelCatalog::MaybeRetrain); a request only reads the published one.
  7. Every header under src/ is #included by some file under src/, bench/,
     examples/ or perfbench/ other than its own .cc. A module that only
     tests reach is surface to maintain that no binary serves.

Exit 0 when clean; exit 1 with file:line diagnostics otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def strip_comments_and_strings(text):
    """Blanks out //, /* */ comments and "..."/'...' literals, keeping
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j = j + 2 if text[j] == "\\" else j + 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


ERRNO_RE = re.compile(r"\berrno\b")
RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|condition_variable|lock_guard|unique_lock|scoped_lock"
    r"|shared_mutex|shared_timed_mutex|shared_lock)\b|\bpthread_rwlock\w*"
)
# Lookbehind keeps `epoll_wait(` and `ThreadPool(` from matching bare poll(.
POLL_RE = re.compile(r"(?<![\w])poll\s*\(")
EPOLL_RE = re.compile(r"\bepoll_\w+")
# Wall-clock reads: time()/std::time() (the lookbehind spares localtime(,
# strftime(, member .time( calls) and system_clock::now.
WALLCLOCK_RE = re.compile(
    r"(?:(?<![\w.>])time\s*\(|std::chrono::system_clock::now)"
)
TRAINING_RE = re.compile(r"\b(?:Trainer|TrainAll|GetOrTrain)\b")


def is_backend_file(path):
    return path.parent == SRC / "net" and path.name.startswith("backend")


def in_util(path):
    return (SRC / "util") in path.parents


def is_serving_file(path):
    return (SRC / "net") in path.parents or (
        path.parent == SRC / "service" and path.stem == "query_router"
    )


def check_file(path, violations):
    text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
    rel = path.relative_to(REPO)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not is_backend_file(path) and ERRNO_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: errno outside src/net/backend* "
                f"(use SyscallIoError/SyscallInterrupted from net/backend_socket.h)"
            )
        if not in_util(path) and RAW_SYNC_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: raw {RAW_SYNC_RE.search(line).group(0)} outside "
                f"src/util/ (use util::Mutex/util::MutexLock/util::CondVar/"
                f"util::SharedMutex)"
            )
        if not is_backend_file(path) and (
            POLL_RE.search(line) or EPOLL_RE.search(line)
        ):
            violations.append(
                f"{rel}:{lineno}: poll/epoll call outside src/net/backend* "
                f"(go through EventBackend)"
            )
        if path != SRC / "util" / "clock.h" and WALLCLOCK_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: wall-clock read outside src/util/clock.h "
                f"(inject a util::Clock so virtual-time tests can drive it)"
            )
        if is_serving_file(path) and TRAINING_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: {TRAINING_RE.search(line).group(0)} on the "
                f"serving path (train at set-up via ModelCatalog::TrainAll)"
            )


def check_nodiscard(violations):
    status_h = SRC / "util" / "status.h"
    text = status_h.read_text(encoding="utf-8")
    rel = status_h.relative_to(REPO)
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Status\b", text):
        violations.append(
            f"{rel}: class Status must be declared `class [[nodiscard]] Status`"
        )
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Result\b", text):
        violations.append(
            f"{rel}: class Result must be declared `class [[nodiscard]] Result`"
        )


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
# Trees whose includes keep a src/ header alive (tests/ does not).
SERVED_TREES = ("src", "bench", "examples", "perfbench")


def check_headers_served(violations):
    """Rule 7: every src/ header has an includer outside tests/ and its own
    .cc. Quoted includes resolve against src/ and the includer's directory."""
    included = set()
    for tree in SERVED_TREES:
        for path in (REPO / tree).rglob("*"):
            if path.suffix not in (".cc", ".h"):
                continue
            own_header = path.with_suffix(".h") if path.suffix == ".cc" else None
            for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
                for target in (SRC / name, path.parent / name):
                    if target.resolve() != own_header:
                        included.add(target.resolve())
    for header in sorted(SRC.rglob("*.h")):
        if header.resolve() not in included:
            violations.append(
                f"{header.relative_to(REPO)}: included only by tests or its "
                f"own .cc (delete it, or include it from src/, bench/, "
                f"examples/ or perfbench/)"
            )


def main():
    violations = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".cc", ".h"):
            check_file(path, violations)
    check_nodiscard(violations)
    check_headers_served(violations)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
