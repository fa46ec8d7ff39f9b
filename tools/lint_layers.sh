#!/usr/bin/env bash
# Layering lint: the bottom layers of src/ include only their own layer
# and the layers below it. The order is support < ir < analysis; obs/
# (counters, spans, traces, the clock seam) may be included from every
# layer and itself includes only support/.
#
# Usage: tools/lint_layers.sh [repo-root]
# Exits non-zero listing every include that reaches up the stack.

set -u
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
SRC="$ROOT/src"

# layer -> space-separated layers its files may include
declare -A ALLOWED=(
  [support]="support obs"
  [obs]="obs support"
  [ir]="ir support obs"
  [analysis]="analysis ir support obs"
)

fail=0
for layer in "${!ALLOWED[@]}"; do
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    target="$(printf '%s' "$hit" | sed -E 's/.*#include "([^/"]+)\/.*/\1/')"
    case " ${ALLOWED[$layer]} " in
      *" $target "*) ;;
      *)
        echo "LAYERING: ${hit#"$ROOT"/} ($layer/ may include only: ${ALLOWED[$layer]})"
        fail=1
        ;;
    esac
  done < <(grep -rnE --include='*.cpp' --include='*.h' \
             '^[[:space:]]*#[[:space:]]*include[[:space:]]+"[^/"]+/' \
             "$SRC/$layer")
done

if [ "$fail" -ne 0 ]; then
  echo "layering lint failed" >&2
  exit 1
fi
echo "layering lint: ok"
