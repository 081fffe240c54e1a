// Package cli holds the shared entry-point plumbing for the repro command
// line tools. Each main becomes a single call to Main with a run function
// returning error; the error-to-exit-code translation lives here, once,
// instead of being copy-pasted around every fallible call in every main. So
// do the flags more than one tool takes (flags.go).
package cli

import (
	"errors"
	"fmt"
	"os"
)

// Main runs fn and is the process's single exit point on failure: the error
// is printed as "tool: err" on stderr and the process exits 1 (or 2 for
// usage errors built with Usagef). On success it simply returns, so main
// falls off the end and exits 0.
func Main(tool string, fn func() error) {
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		code := 1
		var ue usageError
		if errors.As(err, &ue) {
			code = 2
		}
		os.Exit(code)
	}
}

// Usagef returns an error that Main reports with exit status 2, the
// conventional "bad command line" code.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

type usageError struct{ error }
