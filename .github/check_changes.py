#!/usr/bin/env python3
"""Check that CHANGES.md only grows, against a base commit.

Usage: python3 .github/check_changes.py BASE

Run from the repository root. It fails (exit 1) when:
  - a line of BASE's CHANGES.md is gone. The one exception is a `FOUND:`
    line that comes back as `MENDED:` followed by the same text; a note may
    follow that text;
  - an added line is an entry that does not start with its PR number
    (`PR 71 ...`, `- PR 71 ...` or `- **PR 71 ...`). Added `FOUND:` and
    `MENDED:` lines and blank lines are notes, not entries.

The check holds from the first base that carries this script. When BASE is
empty or all zeros (a new branch), or does not carry the script, it says so
and passes.
"""

import re
import subprocess
import sys

SELF = ".github/check_changes.py"
ENTRY = re.compile(r"^(- )?(\*\*)?PR \d+\b")
NOTE = re.compile(r"^(FOUND|MENDED): ")


def git(*args):
    r = subprocess.run(["git", *args], capture_output=True, text=True)
    return r.returncode, r.stdout


def main():
    base = sys.argv[1] if len(sys.argv) > 1 else ""
    if not base.strip("0"):
        print("CHANGES.md guard skipped: no base commit")
        return 0
    if git("cat-file", "-e", f"{base}:{SELF}")[0] != 0:
        print(f"CHANGES.md guard skipped: base {base[:12]} does not carry {SELF}")
        return 0
    code, diff = git("diff", "--no-color", "-U0", base, "--", "CHANGES.md")
    if code != 0:
        print(f"CHANGES.md guard: git diff against {base[:12]} failed")
        return 1
    removed, added = [], []
    in_hunk = False
    for line in diff.splitlines():
        if line.startswith("@@"):
            in_hunk = True
        elif in_hunk and line.startswith("-"):
            removed.append(line[1:])
        elif in_hunk and line.startswith("+"):
            added.append(line[1:])

    bad = []
    for line in removed:
        flip = None
        if line.startswith("FOUND: "):
            mended = "MENDED: " + line[len("FOUND: "):]
            flip = next((i for i, a in enumerate(added) if a.startswith(mended)), None)
        if flip is None:
            bad.append(f"removed or edited: {line[:160]}")
        else:
            del added[flip]
    for line in added:
        if line.strip() and not NOTE.match(line) and not ENTRY.match(line):
            bad.append(f"entry without a PR number: {line[:160]}")

    for b in bad:
        print(f"CHANGES.md: {b}")
    if bad:
        print(f"CHANGES.md is append-only (against {base[:12]}); "
              "a FOUND: line may only come back as MENDED: with the same text")
        return 1
    print(f"CHANGES.md guard: ok against {base[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
