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
# internal/ that none of them contains is printed by name. The builds pass
# -pgo=off, so what counts as linked does not depend on cmd/serve/default.pgo
# (profile-guided devirtualisation) and no third variant of std is compiled.
# One report line follows, never a failure: how stale that profile is — the
# share of its flat samples under internal/ (`go tool pprof -top`, names
# normalised the same way) on functions no program links any more, and the
# commits that touched a .go file since the profile last changed.
# Last the documents' audit, one line each: the backticked pkg.Name or
# Type.Method names in DESIGN.md and README.md that no tracked .go file
# declares (each consecutive pair of parts must be a package's top-level
# name, or a type's method or field; a dotted string a .go file quotes, such
# as a bench ledger row, counts too; a name in a standard-library package on
# the keep-list below is checked against the toolchain's source of that
# package), the "DESIGN §n" references in tracked files
# that name no section of DESIGN.md (of the top-level Markdown files only the
# reader-facing documents listed below are read: a record of past changes may
# cite old numbering), the PR numbers DESIGN.md cites, and the ROADMAP item
# numbers that DESIGN.md, code, scripts/ or the Makefile cite: items are
# renumbered when the roadmap is re-anchored, so a citation goes stale (the
# score label above is the one exception).
# Exits 1, naming them on stderr, when a series has no reader, a flag no
# scenario, a route no request or an unlinked function is not on the
# keep-list below, or when the documents' audit finds anything: a new series
# lands with a file that names it (a name search, so that the file asserts
# the value is left to review), a new flag or route with an e2e scenario that
# passes or requests it, code no program runs does not land at all, and
# DESIGN.md names only what exists (`make vet` runs this with stdout
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
go build -pgo=off -gcflags=all=-l -o "$bin/" $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
go -C bench build -pgo=off -gcflags=all=-l -o "$bin/bench" .
# normalise reads "<weight> <symbol>" lines and prints "<weight> <function>"
# for the functions under internal/, in the form the declared list below uses.
normalise='
	{ w = $1; s = $0; sub(/^ *[^ ]+ /, "", s); sub(/ \(inline\)$/, "", s) }
	index(s, "intellisphere/internal/") == 1 {
		out = ""; depth = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") depth++; else if (c == "]") depth--; else if (depth == 0) out = out c
		}
		gsub(/\(\*|\)/, "", out); sub(/-fm$/, "", out)
		while (sub(/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$/, "", out)) {}
		print w, out }'
for b in "$bin"/*; do go tool nm "$b"; done |
	awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, "0 "); print }' | awk "$normalise" | cut -d' ' -f2 | sort -u >"$bin/linked"
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
pgo=cmd/serve/default.pgo
if [ -f "$pgo" ]; then
	stale=$(go tool pprof -top -nodefraction=0 -unit=ms "$pgo" 2>/dev/null |
		awk '$1 ~ /^[0-9.]+ms$/ && NF >= 6 { sub(/^ *[^ ]+ +[^ ]+ +[^ ]+ +[^ ]+ +[^ ]+ +/, sprintf("%s ", $1 + 0)); print }' |
		awk "$normalise" | awk -v linked="$bin/linked" '
			BEGIN { while ((getline f <linked) > 0) have[f] = 1 }
			# A closure of a function inlined elsewhere is named after both
			# (Server.Handler.Server.admit): any tail of the name may match.
			{ pkg = $2; sub(/\.[^\/]*$/, "", pkg); rest = substr($2, length(pkg) + 2)
			  ok = $2 in have
			  while (!ok && (i = index(rest, ".")) > 0) { rest = substr(rest, i + 1); ok = (pkg "." rest) in have }
			  all += $1; if (!ok) stale += $1 }
			END { printf "%.1f%%", all ? 100 * stale / all : 0 }')
	since=$(git log -1 --format=%H -- "$pgo")
	printf '%7s  of %s'"'"'s internal/ flat samples on functions no program links; %d commits touched a .go file since it changed\n' \
		"$stale" "$pgo" "$(if [ -n "$since" ]; then git rev-list --count "$since..HEAD" -- '*.go'; else echo 0; fi)"
else
	printf '%7s  no %s: the server builds without profile-guided optimisation\n' - "$pgo"
fi
# The standard-library packages whose names the documents may backtick, one a
# line: the directory under $GOROOT/src, then why the documents name it. A
# name in one of them is checked against the toolchain's own source of the
# package, as a name of this module is checked against the tracked files.
stdkeep='
bytes          the pooled response buffers
context        the request deadline the server keeps instead of a timer
encoding/json  the reference the answer encoder and the statement scanners are held to
io             the capped body the batch fallback decodes
math/bits      the 128-bit products of the shortest-float kernel
net/http       the server the transports are built on, and its profile frames
net/url        the query-string parse in the front door'"'"'s profile
reflect        the allocation behind the reflective batch decode
runtime        the allocator, clock and processor count in the profiles
strconv        the float and integer formatting internal/ftoa is held to
sync           the pools and mutexes of the hot path
sync/atomic    how registries, the recent-N ring and rendered plans publish
time           the clock reads a statement costs
'
# The declarations of every tracked .go file, as "qualifier.name": pkg.Name
# for a top-level func, type, var or const, Type.Name for a method, a struct
# field or an interface method.
decls='
	FNR == 1 { pkg = ""; grp = ""; typ = ""; depth = 0 }
	/^package / { pkg = $2; next }
	/^func / { s = $0; sub(/^func /, "", s)
		if (s ~ /^\(/) {
			recv = s; sub(/\).*/, "", recv); n = split(recv, w, " ")
			recv = w[n]; sub(/^\(?\*?/, "", recv); sub(/\[.*/, "", recv)
			sub(/^\([^)]*\) */, "", s); sub(/[\[(].*/, "", s); print recv "." s
		} else { sub(/[\[(].*/, "", s); print pkg "." s }
		next }
	/^(type|var|const) \($/ { grp = $1; next }
	grp != "" && /^\)/ { grp = ""; next }
	/^(type|var|const) [A-Za-z_]/ || (grp != "" && depth == 0 && /^\t[A-Za-z_]/) {
		s = $0; sub(/^(type|var|const) /, "", s); sub(/^\t/, "", s)
		if ((grp != "" ? grp : $1) == "type") {
			name = s; sub(/[ \[=].*/, "", name); print pkg "." name
			if (s ~ /(struct|interface) \{$/) { typ = name; depth = 1 }
		} else { sub(/[ =].*/, "", s); n = split(s, w, ",")
			for (i = 1; i <= n; i++) { gsub(/ /, "", w[i]); print pkg "." w[i] } }
		next }
	depth > 0 {
		if (depth == 1 && $0 ~ /^\t+[A-Za-z_]/) { s = $0; sub(/^\t+/, "", s)
			if (s ~ /^[A-Za-z_][A-Za-z0-9_]*\(/) { sub(/\(.*/, "", s); print typ "." s }
			else if (match(s, /^[A-Za-z_][A-Za-z0-9_]*(,[ \t]*[A-Za-z_][A-Za-z0-9_]*)*[ \t]+/)) {
				s = substr(s, 1, RLENGTH); n = split(s, w, ",")
				for (i = 1; i <= n; i++) { gsub(/[ \t]/, "", w[i]); print typ "." w[i] }
			} else { sub(/^\*/, "", s); sub(/.*\./, "", s); sub(/[ `].*/, "", s); print typ "." s } }
		depth += gsub(/\{/, "{") - gsub(/\}/, "}"); if (depth <= 0) { depth = 0; typ = "" } }
	'
git ls-files -- '*.go' | xargs awk "$decls" >"$bin/names"
gosrc=$(go env GOROOT)/src
echo "$stdkeep" | cut -d' ' -f1 | while read -r d; do
	[ -z "$d" ] || ls "$gosrc/$d"/*.go | grep -v '_test\.go$'
done | xargs awk "$decls" >>"$bin/names"
git ls-files -- '*.go' | xargs grep -ohE '"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+"' | tr -d '"' >>"$bin/names"
stale_names=$(awk -v names="$bin/names" '
	BEGIN { while ((getline d <names) > 0) have[d] = 1 }
	FNR == 1 { fence = 0 }
	/^ *```/ { fence = !fence; next }
	!fence { text[FILENAME] = text[FILENAME] " " $0 }
	END { for (f in text) { n = split(text[f], part, "`")
		for (i = 2; i <= n; i += 2) {
			s = part[i]; sub(/\(.*/, "", s); gsub(/\[[^]]*\]/, "", s)
			if (s !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+$/ || s in have) continue
			if (s ~ /\.(go|md|json|sh|txt|golden|pgo|mod|csv)$/) continue
			k = split(s, w, ".")
			for (j = 1; j < k; j++) if (!((w[j] "." w[j+1]) in have)) { print s; break } } } }
	' DESIGN.md README.md | sort -u)
printf '%7d  backticked names in DESIGN.md and README.md no tracked .go file declares:%s\n' \
	"$(echo $stale_names | wc -w)" "$(printf ' %s' $stale_names)"
sections=$(sed -n 's/^## \([0-9][0-9]*\)\. .*/\1/p' DESIGN.md)
# Each file is read with its lines joined, so a reference wrapped after
# "DESIGN.md" is still seen.
bad_refs=$({ git grep -l DESIGN -- ':(exclude,glob)*.md' || true
	git grep -l DESIGN -- DESIGN.md EXPERIMENTS.md PAPER.md PAPERS.md README.md ROADMAP.md SNIPPETS.md || true; } |
	while read -r f; do tr '\n' ' ' <"$f"; echo; done |
	grep -oE 'DESIGN(\.md)? +§[0-9]+((, | and | or )§[0-9]+)*' |
	grep -oE '§[0-9]+' | tr -d '§' | sort -un | while read -r n; do
		echo "$sections" | grep -qx "$n" || printf ' §%s' "$n"
	done)
printf '%7d  "DESIGN §n" references in tracked files to no section of DESIGN.md:%s\n' "$(echo $bad_refs | wc -w)" "$bad_refs"
pr_cites=$(grep -noE '\bPRs? [0-9]+' DESIGN.md | tr ' ' '_' || true)
printf '%7d  PR numbers DESIGN.md cites:%s\n' "$(echo $pr_cites | wc -w)" "$(printf ' %s' $pr_cites)"
item_cites=$(git grep -noE "ROADMAP('s)?( items?)? [0-9]+( ?%)?" -- DESIGN.md '*.go' 'scripts/*' Makefile |
	grep -vE -e '%$' -e '^scripts/loc\.sh:[0-9]+:ROADMAP item 12$' | tr ' ' '_' || true)
printf '%7d  ROADMAP item numbers DESIGN.md, code, scripts/ or the Makefile cite:%s\n' \
	"$(echo $item_cites | wc -w)" "$(printf ' %s' $item_cites)"
unkept=$(for f in $unlinked; do
	echo "$keep" | cut -d' ' -f1 | grep -qxF "$f" || printf ' %s' "$f"
done)
if [ -n "$unread$unset_flags$unasked$unkept$stale_names$bad_refs$pr_cites$item_cites" ]; then
	[ -z "$unread" ] || echo "loc.sh: series no .go file or script but prom.go names:$unread" >&2
	[ -z "$unset_flags" ] || echo "loc.sh: cmd/serve flags no e2e scenario passes:$unset_flags" >&2
	[ -z "$unasked" ] || echo "loc.sh: routes no e2e scenario requests:$unasked" >&2
	[ -z "$unkept" ] || echo "loc.sh: functions under internal/ no program links (delete them, or keep-list them with a reason):$unkept" >&2
	[ -z "$stale_names" ] || echo "loc.sh: backticked names no tracked .go file declares (fix the name, or keep-list its standard-library package with a reason):" $stale_names >&2
	[ -z "$bad_refs" ] || echo "loc.sh: DESIGN § references to no section:$bad_refs" >&2
	[ -z "$pr_cites" ] || echo "loc.sh: PR numbers in DESIGN.md (describe the tree; CHANGES.md holds the history):" $pr_cites >&2
	[ -z "$item_cites" ] || echo "loc.sh: ROADMAP item numbers (cite the mechanism instead):" $item_cites >&2
	exit 1
fi
