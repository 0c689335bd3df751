#!/bin/sh
# Non-test Go lines per internal/* package and in total, for the checkout the
# current directory is in (so a clone of the parent commit can be measured
# with this same file: `cd /root/scratch/parent && sh /root/repo/scripts/loc.sh`).
# Every simplicity PR quotes the before/after of this next to its bench delta.
# Counts tracked files as they are on disk; _test.go and testdata/ excluded.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -- 'internal/*.go' | grep -v -e '_test\.go$' -e '/testdata/' |
while read -r f; do
	[ -f "$f" ] && echo "$(wc -l <"$f") $(dirname "$f")"
done |
awk '{ n[$2] += $1; t += $1 }
     END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
           close("sort -k2")
           printf "%7d  total (non-test Go under internal/)\n", t }'
