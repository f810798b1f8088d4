#!/usr/bin/env bash
# Byte-identity check of the deterministic SimPlat drivers between two
# builds of the tree.
#
#   tools/sim_identity.sh PARENT_BUILD CHANGE_BUILD
#
# Runs each simulator-driven experiment at its defaults from both build
# directories and compares stdout. A refactor that claims to leave the
# algorithm's step sequence alone must leave every line identical: these
# drivers print seed-determined step counts, win rates and verdicts, so
# any moved step shows up as a differing line. Exits 0 when all drivers
# match; otherwise prints the first differing line of each mismatch and
# exits 1 (2 on a usage error or a missing binary).
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2

drivers="exp_step_bound exp_retry exp_independence exp_adaptive exp_ablation
exp_fairness exp_philosophers exp_waitfree_tail exp_crash"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for d in $drivers; do
  for side in parent change; do
    dir=$parent
    [ "$side" = change ] && dir=$change
    if [ ! -x "$dir/$d" ]; then
      echo "missing binary: $dir/$d" >&2
      exit 2
    fi
    "$dir/$d" > "$out/$d.$side" 2> /dev/null
    echo "$?" > "$out/$d.$side.exit"
  done
  if cmp -s "$out/$d.parent" "$out/$d.change" &&
     cmp -s "$out/$d.parent.exit" "$out/$d.change.exit"; then
    echo "identical  $d ($(wc -l < "$out/$d.parent") lines)"
  else
    status=1
    echo "DIFFERENT  $d"
    # First differing hunk: its line numbers, then parent (<) and change (>).
    diff "$out/$d.parent" "$out/$d.change" | grep -v '^---$' | sed -n '1,3p' |
      sed 's/^/    /'
    if ! cmp -s "$out/$d.parent.exit" "$out/$d.change.exit"; then
      echo "    exit status $(cat "$out/$d.parent.exit") -> $(cat "$out/$d.change.exit")"
    fi
  fi
done
exit $status
