#!/bin/sh
# Dead-package gate: every package under internal/ must be imported by
# at least one file outside its own directory — a binary, another
# package, a test file or the benchmark module (perfbench/). A package
# nothing imports is unreachable code that still costs review, vet and
# test time; delete it or use it.
#
#   scripts/deadpkg.sh        exit 1 and name every dead package
set -eu
cd "$(dirname "$0")/.."

# Guard: the cd above must have landed at the repository root. When it
# did not (symlinked or copied script, exotic $0), every later step
# would fail with a confusing Go error; fail fast and say why instead.
if ! grep -q '^module abs$' go.mod 2>/dev/null; then
	echo "$(basename "$0"): must run from the abs repository root (go.mod with 'module abs' not found in $(pwd))" >&2
	echo "$(basename "$0"): invoke as scripts/$(basename "$0") from the checkout root" >&2
	exit 2
fi

# One line per package: its import path, then everything its files
# import, test files included.
format='{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}'
graph="$(go list -f "$format" ./... && (cd perfbench && go list -f "$format" ./...))"

# A package's own external tests (package foo_test) import it from
# its own directory; that does not count as a use.
used="$(echo "$graph" | awk '{ for (i = 2; i <= NF; i++) if ($i != $1) print $i }' | sort -u)"

dead=0
for pkg in $(go list ./internal/...); do
	if ! echo "$used" | grep -qxF "$pkg"; then
		echo "deadpkg: $pkg is imported by no file outside its own directory" >&2
		dead=1
	fi
done
if [ "$dead" -ne 0 ]; then
	exit 1
fi
echo "deadpkg: every internal package is imported"
