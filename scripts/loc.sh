#!/bin/sh
# Non-test Go lines per internal/* package and in total, for the checkout the
# current directory is in (so a clone of the parent commit can be measured
# with this same file: `cd /root/scratch/parent && sh /root/repo/scripts/loc.sh`).
# Every simplicity PR quotes the before/after of this next to its bench delta.
# Counts tracked files as they are on disk; _test.go and testdata/ excluded.
# The score line is the sum the roadmap's line-count target is measured on.
# Then the surface counts the roadmap's north star quotes: HTTP routes,
# cmd/serve flags, /metrics/prom series (the checked-in inventory that
# TestPromSeriesInventory holds to a live scrape; absent before PR 17), and
# by name the series of that file no tracked .go file or script other than
# prom.go names (nothing reads them: the candidates for deletion), and the
# environment variables non-test code outside bench/ reads (the standing
# rule is "no new env var"; this makes it a number).
# Next the settable values: fields of exported *Config structs in non-test Go
# under internal/ (one per field line), beside the flag count.
# Last the tooling around the code: shell lines under scripts/, make targets,
# steps of `make ci`, Benchmark functions, and the cmd/serve flags that no
# file under test/e2e passes to the binary. (The routes no file there
# requests, as "<route>" or "<route>?...", print beside the route count.)
# Then the functions declared in non-test Go under internal/ that no program
# links: every package main of the module and bench/ is built with inlining
# off (-gcflags=all=-l), the text symbols of each binary are read with
# `go tool nm` and normalised (type-parameter shapes stripped, (*T).M folded
# into T.M, closure suffixes dropped), and every func declared under
# internal/ that none of them contains is printed by name.
# Exits 1, naming them on stderr, when a series has no reader, a flag no
# scenario, a route no request or an unlinked function is not on the
# keep-list below: a new series lands with a file that names it (a name
# search, so that the file asserts the value is left to review), a new flag
# or route with an e2e scenario that passes or requests it, and code no
# program runs does not land at all (`make vet` runs this with stdout
# discarded).
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -- 'internal/*.go' | grep -v -e '_test\.go$' -e '/testdata/' |
while read -r f; do
	[ -f "$f" ] && echo "$(wc -l <"$f") $(dirname "$f")"
done |
awk '{ n[$2] += $1; t += $1 }
     END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
           close("sort -k2")
           printf "%7d  total (non-test Go under internal/)\n", t
           printf "%7d  score: engine + server + optimizer + obs (ROADMAP item 12)\n",
               n["internal/engine"] + n["internal/server"] + n["internal/optimizer"] + n["internal/obs"] }'
series=internal/server/testdata/prom_series.txt
unread=
printf '%7d  routes registered in Server.Handler\n' "$(grep -c 'mux\.Handle(' internal/server/server.go)"
unasked=$(sed -n 's/.*mux\.Handle("\([^"]*\)".*/\1/p' internal/server/server.go |
	while read -r r; do
		grep -qsF -e "\"$r\"" -e "\"$r?" test/e2e/*.go || printf ' %s' "$r"
	done)
printf '%7d  routes no file under test/e2e requests:%s\n' "$(echo $unasked | wc -w)" "$unasked"
printf '%7d  flags in cmd/serve\n' "$(grep -c ':= flag\.' cmd/serve/main.go)"
if [ -f "$series" ]; then
	printf '%7d  series on /metrics/prom of a default server (%d more with -data-dir and -event-log)\n' \
		"$(awk '/^# With -data-dir/ { exit } /^[^#]/ { n++ } END { print n + 0 }' "$series")" \
		"$(awk '/^# With -data-dir/ { on = 1; next } on && /^[^#]/ { n++ } END { print n + 0 }' "$series")"
	unread=$(grep -v '^#' "$series" | while read -r s; do
		git grep -qF -- "$s" -- '*.go' 'scripts/*' ':!internal/server/prom.go' || printf ' %s' "$s"
	done)
	printf '%7d  series no tracked .go file or script but prom.go names:%s\n' "$(echo $unread | wc -w)" "$unread"
fi
printf '%7d  fields of exported *Config structs under internal/\n' "$(
	git ls-files -- 'internal/*.go' | grep -v -e '_test\.go$' -e '/testdata/' | xargs awk '
		/^type ([A-Z][A-Za-z0-9]*)?Config struct \{/ { inside = 1; depth = 1; next }
		inside { if (depth == 1 && $1 ~ /^[A-Za-z_]/) n++
		     depth += gsub(/\{/, "{") - gsub(/\}/, "}"); if (depth == 0) inside = 0 }
		END { print n + 0 }')"
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
# The unlinked functions that stay, one a line: the name as printed, then why.
keep='
engine.Engine.SaveProfile              library API the README advertises; intellisphere_test.go
engine.Engine.RegisterRemoteFromProfile library API the README advertises; intellisphere_test.go
engine.Engine.CalibrateLink            library API the README advertises; intellisphere_test.go
querygrid.Calibrate                    beneath Engine.CalibrateLink
querygrid.SimulatedLink.Measure        beneath Engine.CalibrateLink
querygrid.linkNoise                    beneath Engine.CalibrateLink
remote.noise                           the string-keyed reference noisekey_test.go checks noiseBytes against
core/logicalop.Model.PendingLog        read by the engine and hybrid tests
resilience.Breaker.Generation          read by the engine tests
trace.Span.Attr                        read by the engine tests
faults.Injector.Configure              driven by the engine and server tests
'
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -gcflags=all=-l -o "$bin/" $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
go -C bench build -gcflags=all=-l -o "$bin/bench" .
for b in "$bin"/*; do go tool nm "$b"; done |
	awk '$2 == "T" || $2 == "t" {
		s = $0; sub(/^ *[0-9a-f]+ [Tt] /, "", s)
		if (index(s, "intellisphere/internal/") != 1) next
		out = ""; depth = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") depth++; else if (c == "]") depth--; else if (depth == 0) out = out c
		}
		gsub(/\(\*|\)/, "", out); sub(/-fm$/, "", out)
		while (sub(/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$/, "", out)) {}
		print out }' | sort -u >"$bin/linked"
git ls-files -- 'internal/*.go' | grep -v -e '_test\.go$' -e '/testdata/' | xargs awk '
	FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
	/^func / { s = $0; sub(/^func /, "", s); recv = ""
		if (s ~ /^\(/) {
			recv = s; sub(/\).*/, "", recv); n = split(recv, w, " ")
			recv = w[n]; sub(/^\(?\*?/, "", recv); sub(/\[.*/, "", recv); recv = recv "."
			sub(/^\([^)]*\) */, "", s)
		}
		sub(/[\[(].*/, "", s)
		if (recv s != "init") print "intellisphere/" pkg "." recv s }' | sort -u >"$bin/declared"
unlinked=$(comm -23 "$bin/declared" "$bin/linked" | sed 's,^intellisphere/internal/,,')
printf '%7d  functions under internal/ no program links:%s\n' "$(echo $unlinked | wc -w)" "$(printf ' %s' $unlinked)"
unkept=$(for f in $unlinked; do
	echo "$keep" | cut -d' ' -f1 | grep -qxF "$f" || printf ' %s' "$f"
done)
if [ -n "$unread$unset_flags$unasked$unkept" ]; then
	[ -z "$unread" ] || echo "loc.sh: series no .go file or script but prom.go names:$unread" >&2
	[ -z "$unset_flags" ] || echo "loc.sh: cmd/serve flags no e2e scenario passes:$unset_flags" >&2
	[ -z "$unasked" ] || echo "loc.sh: routes no e2e scenario requests:$unasked" >&2
	[ -z "$unkept" ] || echo "loc.sh: functions under internal/ no program links (delete them, or keep-list them with a reason):$unkept" >&2
	exit 1
fi
