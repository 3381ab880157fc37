#!/bin/sh
# loglint: the structured-logging gate for daemon code.
#
# The daemon logs through log/slog (leveled, key-value, trace-id-tagged
# records that -log-format can switch to JSON); a stray log.Printf or
# fmt.Println in a server code path bypasses the handler, loses the
# level/format contract and can interleave with exposition output. This
# gate forbids, in every non-test .go file under internal/ and
# cmd/faircached/:
#
#   - the standard "log" package's printers: log.Print*, log.Fatal*,
#     log.Panic*, plus log.New / log.Default (building a bare logger is
#     the same bypass one call later)
#   - unstructured stdout writes: fmt.Println and bare fmt.Print
#
# fmt.Printf / fmt.Fprintf / fmt.Fprintln remain allowed: the lifecycle
# banners and -inspect print user-facing reports, and errors format with
# fmt.Errorf. Test files are exempt — t.Log is the right tool there.
#
# Run from the repository root: ./scripts/loglint.sh
set -u

fail=0

bad=$(grep -rn --include='*.go' --exclude='*_test.go' \
    -E '\blog\.(Print|Printf|Println|Fatal|Fatalf|Fatalln|Panic|Panicf|Panicln|New|Default)\(|\bfmt\.(Println|Print)\(' \
    internal cmd/faircached 2>/dev/null |
    grep -v -E '\bslog\.')
if [ -n "$bad" ]; then
    echo "loglint: daemon code must log through log/slog (server Options.Logger / the -log-format handler), not the legacy log package or bare prints:" >&2
    echo "$bad" >&2
    fail=1
fi

# The legacy log package must not even be imported outside tests: an
# import with none of the calls above usually means log.Writer() or
# log.SetOutput() plumbing, which bypasses the handler the same way.
bad_import=$(grep -rn --include='*.go' --exclude='*_test.go' \
    -E '^[[:space:]]*(_[[:space:]]+)?"log"$' \
    internal cmd/faircached 2>/dev/null)
if [ -n "$bad_import" ]; then
    echo "loglint: daemon code must not import the legacy \"log\" package; use log/slog:" >&2
    echo "$bad_import" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "loglint: OK"
