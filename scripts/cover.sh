#!/bin/sh
# Statement coverage of what the programs run, beside what the tests run:
# the block-level audit of what no program runs. A report, never a gate; it
# is not part of `make ci`, and a timed bench run covers a little more or
# less from one run to the next.
#
#   sh scripts/cover.sh        (about 3 min on 2 vCPUs)
#
# Every program is built with `go build -cover` and run, each process writing
# its counters into a GOCOVERDIR:
#   - go test ./test/e2e, whose harness builds cmd/serve with $GO: GO points
#     at a shim that adds -cover to that build;
#   - bench/run.sh, each workload for 6 s at seed 1, with the same shim first
#     on PATH. The shim instruments only `go build ... ./cmd/serve`: the
#     driver's own binary links bench/layers.go's replays and would count
#     bench-only code as run;
#   - cmd/experiments (quick), cmd/traingen -execute in all four modes, and
#     the four examples.
# Then the module's tests run once with -coverpkg=intellisphere/internal/...
# over ./internal/... ./cmd/... ./examples/... . (not test/e2e, whose test
# binary runs none of internal/ itself).
#
# It prints, per package under internal/, its statements, those no program
# ran, and those neither a program nor a test ran; the same for the
# engine + server + optimizer + obs score; then each function holding a
# statement neither ran.
#
# Two blind spots. A process killed with SIGKILL writes no counters: the
# crash soak's killed incarnations and the bench's setup boots count for
# nothing, so recovery (engine.restore and its callers) reads as unrun by
# programs. And `go build -coverpkg=...` of cmd/serve wrote no counters at
# all under go1.24.0, which is why the shim passes plain -cover (the main
# module's packages, which is every package here).
set -eu
cd "$(git rev-parse --show-toplevel)"
realgo=$(command -v "${GO:-go}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
began=$(date +%s)
mkdir -p "$work/shim" "$work/bin" "$work/cov/e2e" "$work/cov/bench" "$work/cov/progs"

cat >"$work/shim/go" <<EOF
#!/bin/sh
if [ "\$1" = build ]; then
	for last; do :; done
	if [ "\$last" = ./cmd/serve ]; then
		shift
		exec "$realgo" build -cover "\$@"
	fi
fi
exec "$realgo" "\$@"
EOF
chmod +x "$work/shim/go"

# run NAME CMD...: a program's failure leaves partial counters and is reported,
# so one broken program does not hide the rest of the report.
run() {
	what=$1
	shift
	"$@" >"$work/out" 2>&1 || {
		echo "cover.sh: $what failed; its counters are partial:" >&2
		tail -20 "$work/out" >&2
	}
}

GO="$work/shim/go" GOCOVERDIR="$work/cov/e2e" run "test/e2e" "$realgo" test -count=1 ./test/e2e
PATH="$work/shim:$PATH" GOCOVERDIR="$work/cov/bench" run "bench" bash bench/run.sh --seed 1 --seconds 6 --trace 0
"$realgo" build -cover -o "$work/bin/" ./cmd/experiments ./cmd/traingen ./examples/...
export GOCOVERDIR="$work/cov/progs"
run "cmd/experiments" "$work/bin/experiments"
for what in tables agg join probes; do
	run "cmd/traingen -what $what" "$work/bin/traingen" -what "$what" -execute
done
for ex in examples/*/; do
	ex=$(basename "$ex")
	run "examples/$ex" "$work/bin/$ex"
done
unset GOCOVERDIR
programs=$(($(date +%s) - began))
"$realgo" tool covdata textfmt -i="$work/cov/e2e,$work/cov/bench,$work/cov/progs" -o "$work/progs.out"
run "the tests" "$realgo" test -count=1 -coverpkg=intellisphere/internal/... -coverprofile="$work/tests.out" \
	./internal/... ./cmd/... ./examples/... .

# A block is one key, file:start,end, with its statement count; a profile may
# list it once per binary, so a block ran when any listing counts it.
awk -v both="$work/both.out" '
	FNR == 1 { f++; next }
	$1 ~ /^intellisphere\/internal\// {
		n[$1] = $2
		if ($3 > 0) { if (f == 1) prog[$1] = 1; else test[$1] = 1 }
	}
	END {
		print "mode: set" > both
		for (k in n) {
			pkg = k; sub(/\/[^\/]*:.*$/, "", pkg); sub(/^intellisphere\//, "", pkg)
			all[pkg] += n[k]
			if (!prog[k]) {
				unprog[pkg] += n[k]
				if (!test[k]) unboth[pkg] += n[k]
			}
			print k, n[k], (prog[k] || test[k]) ? 1 : 0 > both
		}
		printf "%7s %7s %7s  %s\n", "stmts", "!prog", "!either", "package (statements; unrun by any program; unrun by programs and tests alike)"
		for (p in all) {
			printf "%7d %7d %7d  %s\n", all[p], unprog[p], unboth[p], p | "sort -k4"
			t[1] += all[p]; t[2] += unprog[p]; t[3] += unboth[p]
			if (p ~ /^internal\/(engine|server|optimizer|obs)$/) {
				s[1] += all[p]; s[2] += unprog[p]; s[3] += unboth[p]
			}
		}
		close("sort -k4")
		printf "%7d %7d %7d  total under internal/\n", t[1], t[2], t[3]
		printf "%7d %7d %7d  score: engine + server + optimizer + obs\n", s[1], s[2], s[3]
	}' "$work/progs.out" "$work/tests.out"
echo
echo "functions holding a statement that neither a program nor a test ran (share of their statements that ran):"
"$realgo" tool cover -func="$work/both.out" | awk '$1 ~ /^intellisphere\/internal\// && $3 != "100.0%" { sub(/^intellisphere\//, "", $1); printf "  %-48s %-36s %s\n", $1, $2, $3 }'
echo
echo "programs ran in ${programs}s, the whole report took $(($(date +%s) - began))s;"
echo "SIGKILLed processes wrote no counters (the crash soak's killed incarnations, the bench's setup boots),"
echo "so recovery code they ran reads as unrun by programs."
