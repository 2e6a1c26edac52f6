package main

import (
	"io"
	"strings"
	"testing"
)

// TestFlagSurface drives parseFlags and validate over accepted command
// lines, every rejected combination, and the retired stepping and
// debug-server flags, which must fail as undefined rather than be silently
// accepted.
func TestFlagSurface(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" = accepted
	}{
		{"-all", ""},
		{"-table1 -fig6", ""},
		{"-table3 -bench vadd -workers 2 -host -json out.json", ""},
		{"-table3 -nuca -reference -flight-dir dumps", ""},
		{"-ablate -bench vadd", ""},
		{"", "nothing to do"},
		{"-workers 2", "nothing to do"},
		{"-table3 extra", "unexpected argument"},
		{"-table1 -reference", "shape the -table3 run"},
		{"-ablate -nuca", "shape the -table3 run"},
		{"-fig5b -json out.json", "shape the -table3 run"},
		{"-table2 -bench vadd", "-bench restricts"},
		{"-table3 -nofastpath", "flag provided but not defined"},
		{"-table3 -nowarp", "flag provided but not defined"},
		{"-table3 -noeventdriven", "flag provided but not defined"},
		{"-table3 -nuca -seq", "flag provided but not defined"},
		{"-table3 -nuca -par-stride 4", "flag provided but not defined"},
		{"-table3 -debug-addr localhost:6060", "flag provided but not defined"},
	} {
		o, err := parseFlags(strings.Fields(tc.args), io.Discard)
		if err == nil {
			err = o.validate()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("trips-eval %s: rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("trips-eval %s: accepted, want an error containing %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("trips-eval %s: error %q, want it to contain %q", tc.args, err, tc.want)
		}
	}
}
