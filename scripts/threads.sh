#!/usr/bin/env bash
# Per-thread CPU time and context switches of one process, read-only from
# /proc/PID/task/*/{stat,status}: no debugger, no profiling hook.
#
#   scripts/threads.sh PID
#
# One line per thread, in creation order: its id, user and system CPU
# seconds, and voluntary and involuntary context switches, then the
# process's totals. In a Go program the first thread after the main one is
# the runtime's sysmon (runtime.main starts it before anything else), so
# "is sysmon asleep?" is that line's CPU and voluntary switches between two
# samples. Linux only.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 PID" >&2
	exit 2
fi
pid=$1
if [ ! -d /proc/"$pid"/task ]; then
	echo "$0: no process $pid" >&2
	exit 1
fi
hz=$(getconf CLK_TCK)

for task in /proc/"$pid"/task/*; do
	tid=${task##*/}
	# stat's second field, the name, is in parentheses and may hold
	# spaces: the fields counted from it start after the last ')'.
	stat=$(cat "$task/stat" 2>/dev/null) || continue
	rest=${stat##*) }
	status=$(cat "$task/status" 2>/dev/null) || continue
	vol=$(awk '/^voluntary_ctxt_switches/ { print $2 }' <<<"$status")
	invol=$(awk '/^nonvoluntary_ctxt_switches/ { print $2 }' <<<"$status")
	# rest's fields: 1 state ... 12 utime, 13 stime ... 20 starttime.
	awk -v tid="$tid" -v vol="$vol" -v invol="$invol" '{ print $20, tid, $12, $13, vol, invol }' <<<"$rest"
done | sort -n -k1,1 -k2,2 | awk -v hz="$hz" '
	BEGIN { printf "%-8s %-8s %9s %9s %10s %10s\n", "thread", "tid", "utime_s", "stime_s", "vol_cs", "invol_cs" }
	{
		n++
		label = n == 1 ? "main" : (n == 2 ? "sysmon" : "#" n)
		printf "%-8s %-8s %9.2f %9.2f %10d %10d\n", label, $2, $3 / hz, $4 / hz, $5, $6
		u += $3; s += $4; v += $5; i += $6
	}
	END { printf "%-8s %-8s %9.2f %9.2f %10d %10d\n", "total", n " thr", u / hz, s / hz, v, i }'
