// Command eagletree is the one EagleTree CLI: a subcommand binary whose
// component flags, enumerated choices and help text are generated from the
// component registry, so newly registered policies, allocators, detectors
// and workload thread types surface automatically.
//
//	eagletree run      simulate one configuration under one workload
//	eagletree record   run and capture the app-level IO stream to a trace
//	eagletree replay   replay a captured trace instead of a workload
//	eagletree state    prepare & save a device state, or inspect one
//	eagletree sweep    run the E1–E14 design-space experiments or a spec
//	eagletree list     print the experiment index
//	eagletree spec     run any experiment spec document
//	eagletree doc      render the component registry as SPEC.md
//
// Run 'eagletree help' for examples and 'eagletree <command> -h' for flags.
//
// The pre-subcommand flag invocation ('eagletree -workload mix …') is
// deprecated; it forwards to 'eagletree run' with a note on stderr.
//
//eagletree:canonical
package main

import (
	"fmt"
	"os"
	"strings"

	"eagletree/internal/cli"
)

func main() {
	args := os.Args[1:]
	// Deprecated flag-mode compatibility: a leading flag means the old
	// single-binary invocation; forward it to the run subcommand.
	if len(args) > 0 && strings.HasPrefix(args[0], "-") && args[0] != "-h" && args[0] != "-help" && args[0] != "--help" {
		fmt.Fprintln(os.Stderr, "eagletree: flag-only invocation is deprecated; use 'eagletree run ...' (forwarding)")
		args = append([]string{"run"}, args...)
	}
	os.Exit(cli.Main(args, os.Stdout, os.Stderr))
}
