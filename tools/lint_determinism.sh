#!/usr/bin/env bash
# Determinism lint: experiment results must be bit-reproducible, so
# wall-clock reads and nondeterministic randomness sources are banned
# from src/ except where tools/lint_determinism.allow vouches for them
# (timing surfaced only through artifacts excluded from byte-identity
# checks, LRU aging).
#
# Usage: tools/lint_determinism.sh [repo-root]
# Exits non-zero listing every banned occurrence not covered by the
# allowlist, and every stale allowlist entry that no longer matches
# (so the list can only shrink back to reality, never rot).

set -u
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
ALLOW="$ROOT/tools/lint_determinism.allow"
SRC="$ROOT/src"

# One grep alternation per banned construct. Word-ish boundaries keep
# identifiers like "brand()" or "LockRng" from matching.
PATTERNS=(
  'std::chrono::steady_clock'
  'std::chrono::system_clock'
  'std::chrono::high_resolution_clock'
  'std::time *\('
  'time *\( *nullptr *\)'
  'time *\( *NULL *\)'
  'gettimeofday'
  'clock_gettime'
  'std::random_device'
  '[^A-Za-z0-9_]s?rand *\( *\)'
  'std::mt19937'
)

BANNED_RE="$(IFS='|'; echo "${PATTERNS[*]}")"

# Hits as "path:line:text", comments stripped so documentation may name
# the banned constructs freely.
hits="$(grep -rnE --include='*.cpp' --include='*.h' "$BANNED_RE" "$SRC" \
        | grep -vE '^[^:]+:[0-9]+: *(//|/?\*)' || true)"

fail=0

# Every hit must be vouched for by an allowlist line "path-suffix construct-regex".
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  file="${hit%%:*}"
  rel="${file#"$ROOT"/}"
  allowed=0
  while IFS= read -r entry; do
    case "$entry" in ''|'#'*) continue ;; esac
    epath="${entry%% *}"
    epat="${entry#* }"
    if [ "$rel" = "$epath" ] && printf '%s' "$hit" | grep -qE "$epat"; then
      allowed=1
      break
    fi
  done < "$ALLOW"
  if [ "$allowed" -eq 0 ]; then
    echo "BANNED: $hit"
    fail=1
  fi
done <<EOF_HITS
$hits
EOF_HITS

# Stale allowlist entries are errors too.
while IFS= read -r entry; do
  case "$entry" in ''|'#'*) continue ;; esac
  epath="${entry%% *}"
  epat="${entry#* }"
  if ! printf '%s\n' "$hits" | grep -E "^$ROOT/$epath:" | grep -qE "$epat"; then
    echo "STALE ALLOWLIST ENTRY: $entry"
    fail=1
  fi
done < "$ALLOW"

if [ "$fail" -ne 0 ]; then
  echo "determinism lint FAILED (see tools/lint_determinism.allow for the vetting rules)" >&2
  exit 1
fi
echo "determinism lint OK"
