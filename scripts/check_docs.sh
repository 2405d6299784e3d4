#!/usr/bin/env bash
# Fails if a docs/ file references a repo path that no longer exists —
# keeps docs/ARCHITECTURE.md and friends from drifting as files move.
#
# A "reference" is any token that looks like a repo-relative path into
# one of the known top-level directories with a known extension.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for doc in docs/*.md; do
  refs=$(grep -oE '(src|tests|bench|examples|scripts|docs|perfbench)/[A-Za-z0-9_./-]+\.(h|cc|cpp|md|sh|yml|py)' "$doc" | sort -u || true)
  for ref in $refs; do
    if [ ! -e "$ref" ]; then
      echo "ERROR: $doc references missing file: $ref"
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "docs OK: every referenced file exists"
fi
exit $status
