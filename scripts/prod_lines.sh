#!/usr/bin/env bash
# Count production lines of Rust: the non-blank lines of
# crates/*/src/**/*.rs, leaving out every `#[cfg(test)]` item (the
# attribute line, any attributes after it, and the item itself up to its
# closing brace or semicolon). Files under tests/, benches/ and examples/
# are outside crates/*/src and never counted. Braces are counted
# textually, so a brace inside a string or char literal of a test item
# can shift its end.
#
#   scripts/prod_lines.sh        # prints one number
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { skip = 0 }
  skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
  skip == 1 {
    line = $0
    opens = gsub(/\{/, "{", line)
    closes = gsub(/\}/, "}", line)
    depth += opens - closes
    if (opens > 0) opened = 1
    if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
    next
  }
  /[^[:space:]]/ { n++ }
  END { print n + 0 }
'
