#!/usr/bin/env bash
# Runs a test command and fails unless at least MIN tests passed, so a
# guard test that was renamed, filtered out or otherwise skipped fails
# loudly instead of passing with "0 passed".
#
#   must_run.sh MIN WHAT COMMAND [ARGS...]
#
# MIN is the fewest passing tests accepted, WHAT names the guard in the
# error, and COMMAND is the `cargo test` invocation (one test binary).
set -u
[ $# -ge 3 ] || { echo "usage: $0 MIN WHAT COMMAND [ARGS...]" >&2; exit 2; }
min=$1
what=$2
shift 2
out=$("$@" 2>&1) || true
echo "$out"
passed=$(echo "$out" | sed -n 's/^test result: ok\. \([0-9]*\) passed; 0 failed;.*/\1/p')
[ "${passed:-0}" -ge "$min" ] || {
  echo "::error::$what did not run (skipped, missing or failing)"
  exit 1
}
