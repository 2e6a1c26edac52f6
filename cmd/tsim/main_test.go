package main

import (
	"io"
	"strings"
	"testing"
)

// TestFlagSurface drives parseFlags and validate over accepted command
// lines, every rejected value and combination, and the retired stepping,
// fault-injection and debug-server flags, which must fail as undefined
// rather than be silently accepted.
func TestFlagSurface(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" = accepted
	}{
		{"-list", ""},
		{"-bench vadd", ""},
		{"-bench vadd -nuca -reference -flight -dump-on cycle=1200", ""},
		{"-bench vadd -reference", ""},
		{"-bench vadd -nuca -lag-deadline-pad 64 -flight -flight-interval 50", ""},
		{"-bench vadd -checkpoint-at 2000 -checkpoint-out f.ckpt", ""},
		{"", "pass -bench"},
		{"-bench vadd extra", "unexpected argument"},
		{"-bench vadd -opn 3", "-opn must be 1 or 2"},
		{"-bench vadd -mode asm", "unknown mode"},
		{"-bench vadd -placement random", "unknown placement"},
		{"-bench vadd -checkpoint-at -1", "-checkpoint-at must be positive"},
		{"-bench vadd -checkpoint-at 100", "must be used together"},
		{"-bench vadd -checkpoint-out f.ckpt", "must be used together"},
		{"-bench vadd -sample-n 0", "-sample-n positive"},
		{"-bench vadd -sample-interval 100 -restore f.ckpt", "cannot be combined"},
		{"-bench vadd -dump-on end", "pass -flight as well"},
		{"-bench vadd -flight -sample-interval 100", "both own the commit hook"},
		{"-bench vadd -max-cycles -5", "must be non-negative"},
		{"-bench vadd -nuca -reference -lag-deadline-pad 64", "it has no deadline to pad"},
		{"-bench vadd -lag-deadline-pad 64", "only -nuca runs have"},
		{"-bench vadd -nuca -flight -dump-on rollback", "unknown -dump-on trigger"},
		{"-bench vadd -flight -dump-on block=x", "want block=<positive count>"},
		{"-bench vadd -flight -dump-on block=0", "want block=<positive count>"},
		{"-bench vadd -flight -dump-on cycle=-1", "want cycle=<positive cycle>"},
		{"-bench vadd -nuca -lag-horizon-override 8", "flag provided but not defined"},
		{"-bench vadd -debug-addr localhost:6060", "flag provided but not defined"},
		{"-bench vadd -nofastpath", "flag provided but not defined"},
		{"-bench vadd -nowarp", "flag provided but not defined"},
		{"-bench vadd -noeventdriven", "flag provided but not defined"},
		{"-bench vadd -nuca -seq", "flag provided but not defined"},
		{"-bench vadd -nuca -par-stride 4", "flag provided but not defined"},
	} {
		o, err := parseFlags(strings.Fields(tc.args), io.Discard)
		if err == nil {
			err = o.validate()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("tsim %s: rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("tsim %s: accepted, want an error containing %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("tsim %s: error %q, want it to contain %q", tc.args, err, tc.want)
		}
	}
}
