#!/usr/bin/env bash
# Per-package non-test .go line table: every package directory outside bench/
# and testdata/, its line count, and the total. CHANGES.md cites this table
# before and after a change that claims to subtract. Run from the repo root,
# or pass another checkout's root.
set -euo pipefail
cd "${1:-.}"
git ls-files '*.go' | grep -v -e '_test\.go$' -e '^bench/' -e '/testdata/' |
	while read -r f; do printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"; done |
	awk '{ n[$1] += $2; total += $2 }
	     END { for (p in n) printf "%6d  %s\n", n[p], p; printf "%6d  total\n", total }' |
	sort -k2
