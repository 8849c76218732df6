#!/bin/sh
# bench_pair.sh — the regression gate: the repository's benchmark run on
# a base commit and on the working tree in alternating pairs, compared
# metric by metric against the bounds BENCHMARK.json fixes.
#
#   scripts/bench_pair.sh <base-ref> <pairs> <seconds> [workload...]
#
# <base-ref> is materialised with `git archive` under .bench_build/pair/
# (git-ignored); both sides then run
#   bench/run.sh --workload W --seed 7 --seconds <seconds> --trace 0
# <pairs> times each, the side that goes first alternating. Workloads
# default to every one BENCHMARK.json names. Each (workload, end-to-end
# metric) row prints the two medians, the change in percent and the
# bound, and is
#   REGRESSION  when the change's median is worse than the base's by
#               more than the bound,
#   unresolved  when the base's own runs spread (interquartile range /
#               median) wider than the bound and the two sides' runs
#               overlap: the pairs cannot tell, which is reported and
#               not failed,
#   ok          otherwise.
# A row fails on REGRESSION; a workload fails too when a change-side run
# fails its output checks ("correct":false) or a larger share of
# operations fails on the change than on the base. A failing workload is
# measured a second round and judged over both before the script exits
# 1. Both sides run on this machine minutes apart, so its speed cancels:
# there is no reference number to refresh and nothing to tune.
set -eu

if [ $# -lt 3 ]; then
	echo "usage: bench_pair.sh <base-ref> <pairs> <seconds> [workload...]" >&2
	exit 2
fi
base=$1 pairs=$2 seconds=$3
shift 3

cd "$(dirname "$0")/.."
root=$(pwd)
manifest=$root/BENCHMARK.json

# section NAME prints "name better bound" for each object of the
# manifest's top-level array NAME (absent fields print as "-").
section() {
	awk -v want="\"$1\":" '
		function emit() { if (name != "") print name, better, bound; name = "" }
		$1 == want { on = 1; next }
		on && /^  \]/ { emit(); exit }
		!on { next }
		{ gsub(/[",]/, "") }
		$1 == "name:" { emit(); name = $2; better = "-"; bound = "-" }
		$1 == "better:" { better = $2 }
		$1 == "bound:" { bound = $2 }
	' "$manifest"
}

if [ $# -eq 0 ]; then
	set -- $(section workloads | cut -d' ' -f1)
fi

sha=$(git rev-parse --verify --quiet "$base^{commit}") || {
	echo "bench_pair: $base is not a commit" >&2
	exit 2
}
work=$root/.bench_build/pair
rm -rf "$work"
mkdir -p "$work/base"
git archive "$sha" | tar -x -C "$work/base"

# run SIDE DIR WORKLOAD: one benchmark run; its result object lands in
# results as "SIDE WORKLOAD {json}".
run() {
	log=$work/$1.$3.log
	sh "$2/bench/run.sh" --workload "$3" --seed 7 --seconds "$seconds" --trace 0 >"$log" 2>&1 || true
	last=$(tail -n 1 "$log")
	case $last in
	'{"correct":'*) echo "$1 $3 $last" >>"$work/results" ;;
	*)
		echo "bench_pair: $1 run of $3 printed no result object; last lines of $log:" >&2
		tail -n 20 "$log" >&2
		exit 1
		;;
	esac
}

# measure WORKLOAD...: <pairs> alternating pairs of each.
measure() {
	for w in "$@"; do
		i=1
		while [ "$i" -le "$pairs" ]; do
			echo "bench_pair: $w pair $i of $pairs" >&2
			if [ $((i % 2)) -eq 1 ]; then
				run base "$work/base" "$w"
				run change "$root" "$w"
			else
				run change "$root" "$w"
				run base "$work/base" "$w"
			fi
			i=$((i + 1))
		done
	done
}

# judge prints the table over every run so far, lists the workloads with
# a failing row in $work/failing and returns 1 when there are any.
judge() {
	: >"$work/failing"
	echo "bench_pair: base $(git rev-parse --short "$sha") vs working tree, seed 7, ${seconds} s a run"
	awk -v failing="$work/failing" '
	# quartile Q of the sorted a[1..n], as Python statistics.quantiles
	# (the convention of the spreads in bench/README.md).
	function quartile(a, n, q,    j, d) {
		if (n == 1) return a[1]
		j = int(q * (n + 1) / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		d = q * (n + 1) - j * 4
		return (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
	# load sorts the samples of (side, workload, metric) into v[1..n].
	function load(side, w, m,    n, i, j, x) {
		n = cnt[side, w]
		for (i = 1; i <= n; i++) {
			x = val[side, w, m, i]
			for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
			v[j + 1] = x
		}
		return n
	}
	function field(json, name,    s) {
		if (!match(json, "\"" name "\":(\\{\"value\":)?[-+0-9.eE]+")) {
			printf "bench_pair: a result object has no %s: %s\n", name, json
			bad++
			return 0
		}
		s = substr(json, RSTART, RLENGTH)
		sub(/.*:/, "", s)
		return s + 0
	}
	FNR == NR { names[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
	{
		side = $1; w = $2; json = $0
		sub(/^[^ ]+ [^ ]+ /, "", json)
		if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
		k = ++cnt[side, w]
		for (i = 1; i <= nm; i++) val[side, w, names[i], k] = field(json, names[i])
		attempted[side, w] += field(json, "attempted")
		failed[side, w] += field(json, "failed")
		if (side == "change" && json ~ /"correct":false/) incorrect[w]++
	}
	END {
		for (wi = 1; wi <= nw; wi++) {
			w = order[wi]
			for (mi = 1; mi <= nm; mi++) {
				m = names[mi]
				n = load("base", w, m)
				p = quartile(v, n, 2); spread = (quartile(v, n, 3) - quartile(v, n, 1)) / p
				pmin = v[1]; pmax = v[n]
				n = load("change", w, m)
				c = quartile(v, n, 2)
				overlap = v[1] <= pmax && v[n] >= pmin
				worse = (better[m] == "higher") ? (p - c) / p : (c - p) / p
				verdict = "ok"
				if (spread > bound[m] && overlap) { verdict = "unresolved"; unresolved++ }
				else if (worse > bound[m]) { verdict = "REGRESSION"; bad++ }
				printf "%-10s  %-16s %-13s parent %12.6g  change %12.6g  %+7.1f%%  bound %4.1f%%  parent spread %4.1f%%\n",
					verdict, w, m, p, c, (c - p) / p * 100, bound[m] * 100, spread * 100
			}
			fb = failed["base", w] / (attempted["base", w] + !attempted["base", w])
			fc = failed["change", w] / (attempted["change", w] + !attempted["change", w])
			if (incorrect[w] || fc > fb) {
				printf "FAILED      %-16s output checks: %d of %d operations failed on the change, %d of %d on the parent\n",
					w, failed["change", w], attempted["change", w], failed["base", w], attempted["base", w]
				bad++
			}
			if (bad > before) print w >failing
			before = bad
		}
		printf "bench_pair: %d rows, %d unresolved, %d failing\n", nw * nm, unresolved, bad
		exit bad > 0
	}
	' "$work/metrics" "$work/results"
}

# A workload with a failing row is measured once more and judged over
# both rounds before the script fails: at these sample sizes a slow
# spell of the machine that covers two adjacent runs reads as a
# regression, and it does not repeat; a real one does.
section end_to_end >"$work/metrics"
measure "$@"
if ! judge >"$work/table"; then
	echo "bench_pair: failing after one round, measuring again: $(tr '\n' ' ' <"$work/failing")" >&2
	measure $(cat "$work/failing")
	judge >"$work/table" || status=1
fi
cat "$work/table"
exit ${status:-0}
