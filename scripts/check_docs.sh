#!/usr/bin/env bash
# Documentation guard, run by the CI docs job (and locally):
#   1. every relative markdown link in README.md / docs/*.md must resolve
#      to an existing file,
#   2. every analysis name of the one analysis table (the rows of
#      AnalysisRegistry::entries() in src/client/AnalysisRegistry.cpp)
#      must have a row in docs/CLI.md's registered-analyses table, and
#      every row of that table must name a table row,
#   3. every --flag the cscpta driver accepts must be documented in
#      docs/CLI.md, and every `--flag` row of docs/CLI.md's option tables
#      must be a flag the driver accepts (a deleted flag cannot stay
#      documented), and
#   4. every request op the analysis server dispatches on must have a
#      row in docs/CLI.md's request table, and every row of that table
#      must be an op the server dispatches on; likewise every query mode
#      the server accepts must be listed in the table's `query` row, and
#      every listed mode must be one the server accepts, and
#   5. every spec parameter key some analysis accepts (the *Params[]
#      lists of src/client/AnalysisRegistry.cpp) must have a row in docs/CLI.md's
#      spec-parameter table, and every row of that table must be a key
#      some analysis accepts.
# Usage: scripts/check_docs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# --- 1. Relative link check -------------------------------------------------
for doc in README.md docs/*.md; do
  # [text](target) links; strip #anchors; skip absolute URLs.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'') continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue # pure in-page anchor
    # Resolve exactly as GitHub does: relative to the linking document's
    # directory (never the repo root).
    base="$(dirname "$doc")"
    if [ ! -e "$base/$path" ]; then
      echo "error: $doc links to '$target' but '$base/$path' does not" \
           "exist"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. Analysis table <-> docs/CLI.md's registered-analyses table -------
# Names are the first field of every table row ({"name", AnalysisKind::...);
# rows are the table that starts at the `| Name | Aliases |` header.
# `|| true` keeps set -e/pipefail from aborting the substitution when a
# pattern stops matching — the empty-names diagnostic below must fire
# instead.
names="$(
  { grep -oE '^ *\{"[a-z0-9-]+", AnalysisKind::' \
        src/client/AnalysisRegistry.cpp \
      | grep -oE '"[a-z0-9-]+"' | tr -d '"'; } || true
)"
if [ -z "$names" ]; then
  echo "error: could not extract any analysis names from" \
       "src/client/AnalysisRegistry.cpp (did the table syntax change?)"
  fail=1
fi
name_rows="$(
  { awk '/^\| Name \| Aliases \|/ {t=1; next} t && !/^\|/ {exit} t' \
        docs/CLI.md \
      | grep -oE '^\| `[a-z0-9-]+`' | sed -E 's/^\| `//; s/`$//'; } || true
)"
if [ -z "$name_rows" ]; then
  echo "error: could not extract any rows from docs/CLI.md's" \
       "registered-analyses table (did the table syntax change?)"
  fail=1
fi
for name in $names; do
  if ! grep -qxF -- "$name" <<< "$name_rows"; then
    echo "error: analysis '$name' has no row in docs/CLI.md's" \
         "registered-analyses table"
    fail=1
  fi
done
for name in $name_rows; do
  if ! grep -qxF -- "$name" <<< "$names"; then
    echo "error: docs/CLI.md documents analysis '$name' but the analysis" \
         "table has no such row (remove the row)"
    fail=1
  fi
done

# --- 3. Every cscpta flag appears in docs/CLI.md ----------------------------
# Flags are matched in the driver either via matchesOpt(Argv[I], "--x")
# (value-taking) or via Arg == "--x" (boolean).
flags="$(
  { grep -oE 'matchesOpt\(Argv\[I\], "--[a-z-]+"' tools/cscpta.cpp \
      | grep -oE '"--[a-z-]+"' | tr -d '"'; } || true
  { grep -oE 'Arg == "--[a-z-]+"' tools/cscpta.cpp \
      | grep -oE '"--[a-z-]+"' | tr -d '"'; } || true
)"
if [ -z "$flags" ]; then
  echo "error: could not extract any flags from tools/cscpta.cpp" \
       "(did the option-matching syntax change?)"
  fail=1
fi
for flag in $flags; do
  if ! grep -qE -- "\`$flag" docs/CLI.md; then
    echo "error: cscpta flag '$flag' is not documented in docs/CLI.md" \
         "(add it as \`$flag\`)"
    fail=1
  fi
done

# ...and every documented option row names a flag the driver accepts.
documented="$(
  { grep -oE '^\| `--[a-z-]+' docs/CLI.md | sed -E 's/^\| `//'; } || true
)"
if [ -z "$documented" ]; then
  echo "error: could not extract any option rows from docs/CLI.md" \
       "(did the table syntax change?)"
  fail=1
fi
for flag in $documented; do
  if ! grep -qxF -- "$flag" <<< "$flags"; then
    echo "error: docs/CLI.md documents '$flag' but the cscpta driver" \
         "does not accept it (remove the row)"
    fail=1
  fi
done

# --- 4. Server request ops and query modes <-> docs/CLI.md's request table
# Ops are the `*Op == "x"` dispatch tests of the server and modes its
# `Mode != "x"` acceptance tests; rows are the table that starts at the
# `| `op` |` header, and the documented modes are the quoted strings in
# the parenthesis after `"mode"` in its `query` row.
ops="$(
  { grep -oE '\*Op == "[a-z-]+"' src/server/AnalysisServer.cpp \
      | grep -oE '"[a-z-]+"' | tr -d '"'; } || true
)"
if [ -z "$ops" ]; then
  echo "error: could not extract any request ops from" \
       "src/server/AnalysisServer.cpp (did the dispatch syntax change?)"
  fail=1
fi
request_rows="$(
  { awk '/^\| `op` \|/ {t=1; next} t && !/^\|/ {exit} t' docs/CLI.md; } \
    || true
)"
op_rows="$(
  { grep -oE '^\| `[a-z-]+`' <<< "$request_rows" \
      | sed -E 's/^\| `//; s/`$//'; } || true
)"
if [ -z "$op_rows" ]; then
  echo "error: could not extract any rows from docs/CLI.md's request" \
       "table (did the table syntax change?)"
  fail=1
fi
for op in $ops; do
  if ! grep -qxF -- "$op" <<< "$op_rows"; then
    echo "error: server request op '$op' has no row in docs/CLI.md's" \
         "request table"
    fail=1
  fi
done
for op in $op_rows; do
  if ! grep -qxF -- "$op" <<< "$ops"; then
    echo "error: docs/CLI.md documents request op '$op' but the server" \
         "does not dispatch on it (remove the row)"
    fail=1
  fi
done
modes="$(
  { grep -oE 'Mode != "[a-z-]+"' src/server/AnalysisServer.cpp \
      | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u; } || true
)"
if [ -z "$modes" ]; then
  echo "error: could not extract any query modes from" \
       "src/server/AnalysisServer.cpp (did the mode check change?)"
  fail=1
fi
mode_docs="$(
  { grep -E '^\| `query` \|' <<< "$request_rows" \
      | grep -oE '`"mode"` \([^)]*\)' | sed -E 's/^`"mode"` //' \
      | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u; } || true
)"
if [ -z "$mode_docs" ]; then
  echo "error: could not extract any query modes from the \`query\` row" \
       "of docs/CLI.md's request table (did the row syntax change?)"
  fail=1
fi
for mode in $modes; do
  if ! grep -qxF -- "$mode" <<< "$mode_docs"; then
    echo "error: server query mode '$mode' is not listed in the" \
         "\`query\` row of docs/CLI.md's request table"
    fail=1
  fi
done
for mode in $mode_docs; do
  if ! grep -qxF -- "$mode" <<< "$modes"; then
    echo "error: docs/CLI.md lists query mode '$mode' but the server" \
         "does not accept it (remove it from the \`query\` row)"
    fail=1
  fi
done

# --- 5. Spec parameters <-> docs/CLI.md's spec-parameter table -------------
# Keys are the string literals of every `*Params[] = {...}` list (which
# may span lines); rows are the table that starts at the `| Key |` header.
params="$(
  { awk '/Params\[\] = \{/,/nullptr\}/' src/client/AnalysisRegistry.cpp \
      | grep -oE '"[a-z]+"' | tr -d '"' | sort -u; } || true
)"
if [ -z "$params" ]; then
  echo "error: could not extract any spec parameters from" \
       "src/client/AnalysisRegistry.cpp (did the *Params[] syntax" \
       "change?)"
  fail=1
fi
param_rows="$(
  { awk '/^\| Key \|/ {t=1; next} t && !/^\|/ {exit} t' docs/CLI.md \
      | grep -oE '^\| `[a-z]+`' | sed -E 's/^\| `//; s/`$//'; } || true
)"
if [ -z "$param_rows" ]; then
  echo "error: could not extract any rows from docs/CLI.md's" \
       "spec-parameter table (did the table syntax change?)"
  fail=1
fi
for key in $params; do
  if ! grep -qxF -- "$key" <<< "$param_rows"; then
    echo "error: spec parameter '$key' has no row in docs/CLI.md's" \
         "spec-parameter table"
    fail=1
  fi
done
for key in $param_rows; do
  if ! grep -qxF -- "$key" <<< "$params"; then
    echo "error: docs/CLI.md documents spec parameter '$key' but no" \
         "analysis accepts it (remove the row)"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK ($(echo "$names" | wc -l) analysis names," \
     "$(echo "$flags" | sort -u | wc -l) driver flags," \
     "$(echo "$ops" | wc -l) server ops," \
     "$(echo "$modes" | wc -l) query modes," \
     "$(echo "$params" | wc -l) spec parameters, links in README.md +" \
     "docs/*.md)"
