#!/usr/bin/env bash
# Regression: minimize_pla must turn filesystem failures, bad option values
# and a missing input into diagnostics + exit code 2 (and a {"status": ...}
# document in --json mode), never an uncaught exception, a hang or a silent
# success. Registered as the ctest
# `test_cli_io_errors`; $1 is the minimize_pla binary.
set -u

BIN="${1:?usage: cli_io_errors.sh <minimize_pla>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fails=0

check() { # <name> <want_rc> <got_rc>
  if [ "$3" -ne "$2" ]; then
    echo "FAIL $1: exit code $3, want $2"
    fails=$((fails + 1))
  fi
}

expect_status() { # <name> <want_status> <json-file>
  if ! grep -q "\"status\": \"$2\"" "$3"; then
    echo "FAIL $1: no status \"$2\" in: $(cat "$3")"
    fails=$((fails + 1))
  fi
}

# Unreadable input, text mode: diagnostic on stderr, exit 2.
"$BIN" "$TMP/missing.pla" >"$TMP/out" 2>"$TMP/err"; rc=$?
check unreadable-text 2 $rc
grep -q "cannot open PLA file" "$TMP/err" || {
  echo "FAIL unreadable-text: no diagnostic on stderr"; fails=$((fails + 1)); }

# Unreadable input, JSON mode: machine-readable status on stdout, exit 2.
"$BIN" "$TMP/missing.pla" --json >"$TMP/out" 2>/dev/null; rc=$?
check unreadable-json 2 $rc
expect_status unreadable-json io_error "$TMP/out"

# Malformed input: bad_input status, line/column diagnostic, exit 2.
printf 'not a pla\n' >"$TMP/bad.pla"
"$BIN" "$TMP/bad.pla" --json >"$TMP/out" 2>"$TMP/err"; rc=$?
check malformed 2 $rc
expect_status malformed bad_input "$TMP/out"
grep -q "line 1" "$TMP/err" || {
  echo "FAIL malformed: no line number in diagnostic"; fails=$((fails + 1)); }

# Unwritable --out: the error document, not a success report, and exit 2.
"$BIN" --instance=bench1 --json --out="$TMP/no-such-dir/x.pla" \
  >"$TMP/out" 2>/dev/null; rc=$?
check unwritable-out 2 $rc
expect_status unwritable-out io_error "$TMP/out"

# Same failure must also fail loudly in text mode (it used to exit 0).
"$BIN" --instance=bench1 --out="$TMP/no-such-dir/x.pla" \
  >/dev/null 2>"$TMP/err"; rc=$?
check unwritable-out-text 2 $rc
grep -q "cannot write output file" "$TMP/err" || {
  echo "FAIL unwritable-out-text: no diagnostic"; fails=$((fails + 1)); }

# Control: a writable --out still works and reports success.
"$BIN" --instance=bench1 --json --out="$TMP/min.pla" >"$TMP/out" 2>&1; rc=$?
check writable-out 0 $rc
test -s "$TMP/min.pla" || {
  echo "FAIL writable-out: empty output file"; fails=$((fails + 1)); }
expect_status writable-out ok "$TMP/out"

# Unreadable file inside a --batch list: same contract.
"$BIN" --batch=bench1 "$TMP/missing.pla" --json >"$TMP/out" 2>/dev/null; rc=$?
check batch-unreadable 2 $rc
expect_status batch-unreadable io_error "$TMP/out"

# Bad option values: the bad_input document in --json mode, exit 2. The
# timeout guards against a hang (a negative cache size once spun forever).
for arg in --zdd-chain=maybe --trace-level=loud --trace-format=xml \
           --solver=magic --zdd-cache-entries=-5 --zdd-cache-entries=lots; do
  timeout 60 "$BIN" --instance=bench1 --json "$arg" >"$TMP/out" 2>"$TMP/err"
  rc=$?
  check "bad-value $arg" 2 $rc
  expect_status "bad-value $arg" bad_input "$TMP/out"
  grep -q -- "${arg%%=*}" "$TMP/err" || {
    echo "FAIL bad-value $arg: diagnostic does not name the flag"
    fails=$((fails + 1)); }
done

# Thread counts from outside are bounded: a negative or huge --threads is a
# bad_input before any table is built or any thread started.
for arg in --threads=-1 --threads=100000; do
  timeout 60 "$BIN" --batch=bench1 --json "$arg" >"$TMP/out" 2>"$TMP/err"
  rc=$?
  check "batch $arg" 2 $rc
  expect_status "batch $arg" bad_input "$TMP/out"
  grep -q -- "--threads" "$TMP/err" || {
    echo "FAIL batch $arg: diagnostic does not name the flag"
    fails=$((fails + 1)); }
done

# UCP_ZDD_CHAIN: any case of on/off/1/0/true/false is taken silently; any
# other value warns once on stderr, names the variable and keeps the default.
for val in Off FALSE 0 On true 1; do
  UCP_ZDD_CHAIN=$val "$BIN" --instance=bench1 --json >"$TMP/out" 2>"$TMP/err"
  rc=$?
  check "zdd-chain-env $val" 0 $rc
  expect_status "zdd-chain-env $val" ok "$TMP/out"
  test ! -s "$TMP/err" || {
    echo "FAIL zdd-chain-env $val: unexpected stderr: $(cat "$TMP/err")"
    fails=$((fails + 1)); }
done
UCP_ZDD_CHAIN=no "$BIN" --instance=bench1 --json >"$TMP/out" 2>"$TMP/err"
rc=$?
check zdd-chain-env-unknown 0 $rc
expect_status zdd-chain-env-unknown ok "$TMP/out"
test "$(grep -c UCP_ZDD_CHAIN "$TMP/err")" -eq 1 || {
  echo "FAIL zdd-chain-env-unknown: want one warning naming UCP_ZDD_CHAIN, got: $(cat "$TMP/err")"
  fails=$((fails + 1)); }

# No input at all: same contract.
"$BIN" --json >"$TMP/out" 2>/dev/null; rc=$?
check no-input 2 $rc
expect_status no-input bad_input "$TMP/out"

# A cache size above the managers' ceiling is clamped to it, not allocated.
timeout 60 "$BIN" --instance=bench1 --json --zdd-cache-entries=4294967296 \
  >"$TMP/out" 2>/dev/null; rc=$?
check huge-cache 0 $rc
expect_status huge-cache ok "$TMP/out"

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "cli_io_errors OK"
