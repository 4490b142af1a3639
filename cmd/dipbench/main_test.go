package main

import (
	"strings"
	"testing"
)

// TestRunRefusesStrayArguments checks that a positional argument outside
// -validate is a usage error reported before anything runs, so that a
// dropped -json cannot print a table and exit 0 without writing a file.
func TestRunRefusesStrayArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "E6", "-quick", "-progress=false", "extra.json"}, `unexpected argument "extra.json"`},
		{[]string{"-faults", "-quick", "-progress=false", "out.json"}, `unexpected argument "out.json"`},
		{[]string{"-trials", "-1", "stray"}, `unexpected argument "stray"`},
		{[]string{"-bench-check", "../../BENCH_seed1.json", "extra.json"}, "-bench-check takes one file, got 1 more"},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestRunValidateTakesFiles checks that -validate still reads every
// positional argument as a further file.
func TestRunValidateTakesFiles(t *testing.T) {
	if err := run([]string{"-validate", "../../BENCH_seed1.json", "../../FAULT_seed1.json"}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-validate", "../../BENCH_seed1.json", "missing.json"})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 file(s) failed validation") {
		t.Fatalf("run(-validate good missing) = %v, want one of two files failing", err)
	}
}
