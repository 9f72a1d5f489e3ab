#!/usr/bin/env bash
# deadcode.sh fails when a non-test function under internal/ is reached
# by no binary and is not in scripts/deadcode.allow, when an allowed
# symbol is reached or gone, or when an allow line's reason does not
# begin with a kind the file's "Reason kinds:" header declares. It links every main in ./cmd/...,
# ./examples/... and the bench module with inlining off and the
# linker's dependency dump on, and takes a function as reached when its
# symbol appears in any of those graphs. Generic instantiations are
# matched without their type arguments. Run it from the repository
# root: bash scripts/deadcode.sh
set -euo pipefail

GO=${GO:-go}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# link dumps the dependency graph of every main package under the
# patterns, run from dir.
link() {
	local dir=$1
	shift
	for pkg in $(cd "$dir" && "$GO" list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' "$@"); do
		(cd "$dir" && "$GO" build -o "$work/bin" -gcflags=all=-l -ldflags=-dumpdep "$pkg") 2>>"$work/dep"
	done
}
link . ./cmd/... ./examples/...
link bench .

# Reached symbols: every edge target, with -fm method-value suffixes
# and (innermost first) every bracketed type-argument list removed.
sed -n 's/.* -> //p' "$work/dep" |
	sed -E -e 's/-fm$//' -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' |
	sort -u >"$work/reached"

# Declared functions: gofmt puts every top-level func at column 0.
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | sort -z |
	xargs -0 awk '
	FNR == 1 { n = split(FILENAME, p, "/"); pkg = "fullweb"; for (i = 1; i < n; i++) pkg = pkg "/" p[i] }
	/^func \(/ {
		recv = $0; sub(/^func \(/, "", recv); sub(/\).*/, "", recv); sub(/\[.*/, "", recv)
		k = split(recv, r, " "); t = r[k]
		name = $0; sub(/^func \([^)]*\) /, "", name); sub(/[(\[].*/, "", name)
		if (t ~ /^\*/) { sub(/^\*/, "", t); print pkg ".(*" t ")." name } else print pkg "." t "." name
		next
	}
	/^func [A-Za-z_]/ {
		name = $0; sub(/^func /, "", name); sub(/[(\[].*/, "", name)
		if (name != "init") print pkg "." name
	}' | sort -u >"$work/declared"

# The allowlist: "<symbol> <kind>: <reason>" per line; # starts a
# comment. The kinds are the words the header indents by three spaces
# under "Reason kinds:".
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' scripts/deadcode.allow >"$work/allow"
awk '/^# Reason kinds:/ { on = 1; next } on && /^#   [a-z]/ { print $2 ":"; next } on && !/^#    / { on = 0 }' \
	scripts/deadcode.allow >"$work/kinds"
awk '{ print $1 }' "$work/allow" | sort -u >"$work/allowed"

comm -23 "$work/declared" "$work/reached" >"$work/unreached"
fail=0
if bad=$(awk 'NR == FNR { kind[$1] = 1; next } NF < 3 || !($2 in kind)' "$work/kinds" "$work/allow") && [ -n "$bad" ]; then
	echo "deadcode: scripts/deadcode.allow lines whose reason does not begin with $(tr '\n' ' ' <"$work/kinds")(the header's kinds):"
	echo "$bad" | sed 's/^/  /'
	fail=1
fi
if new=$(comm -23 "$work/unreached" "$work/allowed") && [ -n "$new" ]; then
	echo "deadcode: reached by no binary and not in scripts/deadcode.allow:"
	echo "$new" | sed 's/^/  /'
	fail=1
fi
if stale=$(comm -13 "$work/unreached" "$work/allowed") && [ -n "$stale" ]; then
	echo "deadcode: in scripts/deadcode.allow but reached or no longer declared:"
	echo "$stale" | sed 's/^/  /'
	fail=1
fi
exit $fail
