#!/bin/sh
# Non-test Go lines per internal/* package and in total, for the checkout the
# current directory is in (so a clone of the parent commit can be measured
# with this same file: `cd /root/scratch/parent && sh /root/repo/scripts/loc.sh`).
# Every simplicity PR quotes the before/after of this next to its bench delta.
# Counts tracked files as they are on disk; _test.go and testdata/ excluded.
# Then the surface counts the roadmap's north star quotes: HTTP routes,
# cmd/serve flags, /metrics/prom series (the checked-in inventory that
# TestPromSeriesInventory holds to a live scrape; absent before PR 17), and
# the environment variables non-test code outside bench/ reads (the standing
# rule is "no new env var"; this makes it a number).
# Last the tooling around the code: shell lines under scripts/, make targets,
# steps of `make ci`, Benchmark functions, and the cmd/serve flags that no
# file under test/e2e passes to the binary.
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
series=internal/server/testdata/prom_series.txt
printf '%7d  routes registered in Server.Handler\n' "$(grep -c 'mux\.Handle(' internal/server/server.go)"
printf '%7d  flags in cmd/serve\n' "$(grep -c ':= flag\.' cmd/serve/main.go)"
if [ -f "$series" ]; then
	printf '%7d  series on /metrics/prom of a default server (%d more with -data-dir and -event-log)\n' \
		"$(awk '/^# With -data-dir/ { exit } /^[^#]/ { n++ } END { print n + 0 }' "$series")" \
		"$(awk '/^# With -data-dir/ { on = 1; next } on && /^[^#]/ { n++ } END { print n + 0 }' "$series")"
fi
printf '%7d  environment variables read by non-test code\n' \
	"$(git grep -h 'os\.\(Getenv\|LookupEnv\)' -- '*.go' ':!*_test.go' ':!bench' | wc -l)"
printf '%7d  shell lines under scripts/\n' "$(git ls-files -- 'scripts/*.sh' | xargs cat | wc -l)"
printf '%7d  make targets (.PHONY)\n' "$(sed -n 's/^\.PHONY://p' Makefile | wc -w)"
printf '%7d  steps in make ci\n' "$(sed -n 's/^ci://p' Makefile | wc -w)"
printf '%7d  Benchmark functions\n' "$(git grep -h '^func Benchmark' -- '*_test.go' | wc -l)"
unset_flags=$(sed -n 's/.*:= flag\.[A-Za-z0-9]*("\([^"]*\)".*/\1/p' cmd/serve/main.go |
	while read -r f; do
		grep -qs -- "\"-$f\"" test/e2e/*.go || printf ' -%s' "$f"
	done)
printf '%7d  cmd/serve flags no file under test/e2e passes:%s\n' "$(echo $unset_flags | wc -w)" "$unset_flags"
