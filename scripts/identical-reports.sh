#!/usr/bin/env bash
# Checks that the working tree reproduces the experiment reports of a git
# ref byte for byte, apart from wall-clock figures. It builds olympian-sim
# at the ref and from the working tree, runs every registered experiment at
# -quick size and the full-size scale experiment with both, masks the
# wall-clock fields and diffs the reports. Any other difference is printed
# as a unified diff and the script exits non-zero. Full-size scale is the
# one report in which the thread pool backs up and an Olympian gang
# deadlocks.
#
# Run from anywhere inside the repository:
#
#   scripts/identical-reports.sh HEAD~1
#
# Masked, and nothing else: every "(completed in ...)" line; the wall s and
# req/s wall columns of the sharded sweep rows; the sharded notes' wall
# times, rates and speedup; the metrics scale_wall_s, scale_req_per_s_wall
# and speedup_8dev.
set -euo pipefail

ref=${1:?usage: scripts/identical-reports.sh <git-ref>}
full=(scale)

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"
go build -C "$work/ref" -o "$work/sim-ref" ./cmd/olympian-sim
go build -C "$root" -o "$work/sim-tree" ./cmd/olympian-sim

mask() {
	awk '
		/^\(completed in .*\)$/ { print "(completed in <wall>)"; next }
		/^  [0-9]+-dev sweep / { $(NF-1) = "<wall>"; $NF = "<wall>"; print; next }
		/^  run +engine +devices / { $1 = $1; print; next }
		/^note: [0-9]+-device wall-clock speedup / { sub(/: [0-9.]+x /, ": <wall>x "); print; next }
		/^note: [0-9]+-device slim sweep: / {
			sub(/in [0-9.]+s wall \([0-9]+ req\/s\)/, "in <wall>s wall (<wall> req/s)")
			sub(/extrapolates to [0-9]+s/, "extrapolates to <wall>s")
			print; next
		}
		/^metric: (scale_wall_s|scale_req_per_s_wall|speedup_8dev) = / { print $1, $2, "= <wall>"; next }
		{ print }
	'
}

for side in ref tree; do
	echo "running -quick -all and full-size ${full[*]} at $side" >&2
	{
		"$work/sim-$side" -quick -all
		"$work/sim-$side" "${full[@]}"
	} | mask >"$work/$side.txt"
done
if ! diff -u "$work/ref.txt" "$work/tree.txt"; then
	echo "reports differ from $ref beyond wall-clock figures" >&2
	exit 1
fi
echo "reports identical to $ref apart from wall-clock figures" >&2
