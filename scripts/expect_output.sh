#!/usr/bin/env bash
# Runs a command and checks its exit status and its output (stdout and
# stderr together): each expected line must appear as a whole line,
# verbatim. Used by the CTest entries that run the examples and the
# cscpta usage-error checks.
# Usage: scripts/expect_output.sh [--status N] [-e <line>]... -- <cmd> [args...]
set -uo pipefail

status=0
expects=()
while [ $# -gt 0 ]; do
  case "$1" in
    --status) status="$2"; shift 2 ;;
    -e) expects+=("$2"); shift 2 ;;
    --) shift; break ;;
    *) echo "usage: $0 [--status N] [-e <line>]... -- <cmd> [args...]" >&2
       exit 2 ;;
  esac
done
if [ $# -eq 0 ]; then
  echo "error: no command given" >&2
  exit 2
fi

out="$("$@" 2>&1)"
rc=$?
fail=0
if [ "$rc" -ne "$status" ]; then
  echo "error: '$*' exited with $rc, expected $status"
  fail=1
fi
for line in "${expects[@]}"; do
  if ! grep -qxF -- "$line" <<< "$out"; then
    echo "error: missing output line: '$line'"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "--- output of '$*':"
  printf '%s\n' "$out"
  exit 1
fi
