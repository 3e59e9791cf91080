#!/usr/bin/env bash
# Docs link checker: every intra-repo markdown link in every tracked
# *.md file must resolve to an existing file (anchors are stripped;
# http(s)/mailto links are skipped), and every script, bench or BENCH
# record path and every sisd_cli subcommand the current docs name in code
# must exist. Run by the CI
# docs job; no build required.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
checked=0

# All markdown files outside build trees.
while IFS= read -r file; do
  dir=$(dirname "$file")
  # Extract inline link targets: [text](target). One per line.
  while IFS= read -r target; do
    [ -n "$target" ] || continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;   # external
      '#'*) continue ;;                          # same-file anchor
    esac
    path="${target%%#*}"                         # strip anchor
    [ -n "$path" ] || continue
    if [ "${path#/}" != "$path" ]; then
      resolved=".$path"                          # repo-absolute
    else
      resolved="$dir/$path"
    fi
    checked=$((checked + 1))
    if [ ! -e "$resolved" ]; then
      echo "BROKEN: $file -> $target (no such file: $resolved)" >&2
      fail=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$file" | sed -E 's/^\]\(//; s/\)$//')
done < <(find . -name '*.md' \
              -not -path './build*' -not -path './.git/*' \
              -not -path './Testing/*' | sort)

# Stale references: a repo-relative `scripts/<file>`, `bench/<file>` or
# `BENCH_<name>.json` path in an inline code span or a fenced code block
# of the current docs must name an existing file, and a `sisd_cli <name>`
# there must name a subcommand of tools/sisd_cli.cpp's kSubcommands table
# (or `help`). CHANGES.md and ROADMAP.md are history and may name retired
# files; perfbench/README.md is owned by the benchmark and is not checked
# here.
subcommands=$(awk '/kSubcommands\[\] = \{/ { table = 1; next }
                   table && /^};/ { exit }
                   table' tools/sisd_cli.cpp |
              grep -oP '^ *\{"\K[a-z]+' | sort -u)
if [ -z "$subcommands" ]; then
  echo "check_docs: no subcommands found in tools/sisd_cli.cpp" >&2
  exit 1
fi

# Inline code spans and fenced code block lines of a markdown file.
code_of() {
  awk '/^ *```/ { fence = !fence; next }
       fence { print; next }
       { while (match($0, /`[^`]+`/)) {
           print substr($0, RSTART, RLENGTH)
           $0 = substr($0, RSTART + RLENGTH) } }' "$1"
}

refs=0
for file in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -f "$file" ] || continue
  while IFS= read -r path; do
    refs=$((refs + 1))
    if [ ! -e "$path" ]; then
      echo "STALE: $file names $path (no such file)" >&2
      fail=1
    fi
  done < <(code_of "$file" |
           grep -oP '(?<![\w./-])((scripts|bench)/[\w.*/-]*[\w*]|BENCH_[\w*]+\.json)' |
           grep -v '[*]' | sort -u)   # a glob names no one file
  while IFS= read -r name; do
    refs=$((refs + 1))
    if [ "$name" != help ] && ! grep -qx "$name" <<< "$subcommands"; then
      echo "STALE: $file names sisd_cli $name (no such subcommand)" >&2
      fail=1
    fi
  done < <(code_of "$file" |
           grep -oP '(?<![\w-])sisd_cli\s+\K[a-z][\w-]*' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: broken links or stale references found" >&2
  exit 1
fi
echo "check_docs: $checked intra-repo links and $refs file and subcommand references OK"
