"""Status discipline rules.

The compiler half of the story is `class [[nodiscard]] Status` /
`class [[nodiscard]] StatusOr` in src/util/status.h: every by-value
Status(Or) return that is silently dropped becomes a -Wunused-result
warning. The lint half keeps that contract honest:

  status-nodiscard   the [[nodiscard]] attributes must stay on both class
                     declarations in src/util/status.h. Removing one would
                     silently disarm the whole sweep; the compiler has no
                     opinion about its own warning being turned off.
  status-discard     a deliberate discard is spelled `(void)call(...);` and
                     must carry a justification comment on the same or the
                     preceding line. Bare `(void)identifier;` (the classic
                     unused-parameter silencer) is exempt -- it discards a
                     value that already exists, not a Status-bearing call.
  status-check-ok    library code under src/ propagates a failed Status
                     instead of aborting through MMJOIN_CHECK_OK; the
                     macro is for harnesses (benches, examples, tests).
                     Its definition in src/util/status.h is exempt.
"""

import re

from .cppmodel import line_of
from .engine import Finding, register

# `(void)` followed by something that looks like a call: an optional
# `::`-qualified identifier chain then '('. The .5s of lookahead text is
# plenty -- discards are single expressions.
VOID_CALL_RE = re.compile(
    r"\(\s*void\s*\)\s*(?:::)?[A-Za-z_][\w:><.\->]*\s*\(")
NODISCARD_STATUS_RE = re.compile(r"class\s+\[\[nodiscard\]\]\s+Status\b")
NODISCARD_STATUSOR_RE = re.compile(
    r"class\s+\[\[nodiscard\]\]\s+StatusOr\b")
CHECK_OK_RE = re.compile(r"\bMMJOIN_CHECK_OK\s*\(")


@register("status-nodiscard", "file",
          "util/status.h must keep [[nodiscard]] on Status and StatusOr")
def check_status_nodiscard(sf, findings):
    if not sf.path.endswith("util/status.h"):
        return
    for name, pattern in (("Status", NODISCARD_STATUS_RE),
                          ("StatusOr", NODISCARD_STATUSOR_RE)):
        if not pattern.search(sf.code):
            findings.append(Finding(
                sf.path, 1, "status-nodiscard",
                f"class {name} in util/status.h is missing [[nodiscard]]; "
                "the ignored-return sweep depends on it",
                sf.line(1)))


@register("status-discard", "file",
          "`(void)call(...)` discards need a justification comment")
def check_status_discard(sf, findings):
    if not sf.path.startswith("src/"):
        return
    for m in VOID_CALL_RE.finditer(sf.code):
        lineno = line_of(sf.code, m.start())
        this_line = sf.line(lineno)
        prev_line = sf.line(lineno - 1)
        # The comment may trail the discard on the same line or occupy the
        # preceding line; checked on the RAW lines (comments live there).
        if "//" in this_line or prev_line.startswith("//"):
            continue
        findings.append(Finding(
            sf.path, lineno, "status-discard",
            "`(void)` discard of a call result without a justification "
            "comment on the same or preceding line; say why dropping the "
            "result is safe",
            this_line))


@register("status-check-ok", "file",
          "no MMJOIN_CHECK_OK under src/ (propagate the Status)")
def check_status_check_ok(sf, findings):
    if not sf.path.startswith("src/") or sf.path == "src/util/status.h":
        return
    for m in CHECK_OK_RE.finditer(sf.code):
        lineno = line_of(sf.code, m.start())
        findings.append(Finding(
            sf.path, lineno, "status-check-ok",
            "MMJOIN_CHECK_OK aborts the process on a failed Status; "
            "library code returns it (MMJOIN_RETURN_IF_ERROR)",
            sf.line(lineno)))
