#!/usr/bin/env bash
# Line counts of the engine crates, the same way every time.
#
#   scripts/loc.sh [crate-src-dir ...]     default: crates/relalg/src crates/core/src
#
# For each Rust file under each directory it prints the total lines and
# the non-test lines: the lines before the file's first `#[cfg(test)]`
# (all of them when it has none). A per-crate total follows each
# directory. Output is a Markdown table, so it can go straight into a
# CI step summary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

dirs=("$@")
if [ ${#dirs[@]} -eq 0 ]; then
    dirs=(crates/relalg/src crates/core/src)
fi

echo "| file | total | non-test |"
echo "|---|---:|---:|"
for dir in "${dirs[@]}"; do
    find "$dir" -name '*.rs' | LC_ALL=C sort | xargs awk -v dir="$dir" '
        FNR == 1 { tested[FILENAME] = 0; order[++n] = FILENAME }
        { total[FILENAME]++ }
        /^[[:space:]]*#\[cfg\(test\)\]/ && !tested[FILENAME] { tested[FILENAME] = 1; body[FILENAME] = FNR - 1 }
        END {
            for (i = 1; i <= n; i++) {
                f = order[i]
                nt = tested[f] ? body[f] : total[f]
                printf "| %s | %d | %d |\n", f, total[f], nt
                t += total[f]; s += nt
            }
            printf "| **%s** | **%d** | **%d** |\n", dir, t, s
        }'
done
