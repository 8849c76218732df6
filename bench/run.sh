#!/bin/sh
# bench/run.sh — build the benchmark and run it.
#
#   bench/run.sh [-seed N] [-seconds S] [-trace]             every workload, one fresh process each
#   bench/run.sh -workload NAME [-seed N] [-seconds S] [-trace [0|1]]
#                                                             one workload; the last line of standard
#                                                             output is the result object of BENCHMARK.json
#   bench/run.sh -check-repeat [-seed N] [-seconds S]         every workload twice, untraced and traced;
#                                                             fails when the two sets disagree
#   bench/run.sh -update-golden                               print a new golden.json from a seed-7 run
#
# Flags may be written with one dash or two. Everything the script
# writes lands in bench/out/ (results, traces) or .bench_build/ (the
# binary and the Go build cache), both inside the checkout. It exits
# non-zero when the build, a run or any output check fails.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

workload= seed=7 seconds= trace=0 mode=run scale=full
while [ $# -gt 0 ]; do
	case "${1#-}" in
	-workload | workload) workload=$2 && shift ;;
	-seed | seed) seed=$2 && shift ;;
	-seconds | seconds) seconds=$2 && shift ;;
	-scale | scale) scale=$2 && shift ;;
	-trace | trace)
		trace=1
		case "${2-}" in 0 | 1) trace=$2 && shift ;; esac
		;;
	-check-repeat | check-repeat) mode=repeat ;;
	-update-golden | update-golden) mode=golden ;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift
done

# Build inside the checkout: the benchmark is its own module
# (bench/go.mod) that replaces `repro` with the parent directory, so it
# measures the sources it sits next to.
build=$root/.bench_build
mkdir -p "$build" "$root/bench/out"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
bin=$build/treebench
(cd bench && go build -o "$bin" .) >&2

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

# run_one OUTDIR WORKLOAD TRACE: one workload in its own process.
run_one() {
	"$bin" -workload "$2" -seed "$seed" ${seconds:+-seconds "$seconds"} -trace "$3" \
		-scale "$scale" -commit "$commit" -out "$1"
}

# run_all OUTDIR TRACE: every workload; keeps going after a failure.
run_all() {
	status=0
	for w in $("$bin" -list); do
		run_one "$1" "$w" "$2" || status=1
		echo
	done
	return $status
}

case $mode in
run)
	if [ -n "$workload" ]; then
		run_one bench/out "$workload" "$trace"
	else
		run_all bench/out "$trace"
	fi
	;;
repeat)
	status=0
	for set in set1 set2; do
		run_all "bench/out/$set" 0 >"bench/out/$set.log" || status=1
		run_all "bench/out/$set" 1 >>"bench/out/$set.log" || status=1
		echo "run.sh: $set done (bench/out/$set.log)" >&2
	done
	"$bin" -compare bench/out/set1 -out bench/out/set2 || status=1
	exit $status
	;;
golden)
	seed=7 scale=full
	run_all bench/out/golden 0 >bench/out/golden.log
	"$bin" -golden bench/out/golden
	;;
esac
