package main

import (
	"strings"
	"testing"
)

// TestParseFlags: every flag -delta would leave unused is refused with
// it, and the combinations that run are accepted.
func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args    string
		wantErr string // "" = accepted
	}{
		{"-data d.bin", ""},
		{"-data d.bin -algo sg -k 3", ""},
		{"-data d.bin -labels /tmp/l -repeat 3 -v", ""},
		{"-data d.bin -interacting 3", ""},
		{"-data d.bin -delta 2 -repeat 3 -v -workers 2 -dims 2", ""},
		{"-data d.bin -delta 0 -algo bigrid", ""},
		{"-data d.bin -delta NaN", ""}, // the temporal engine refuses it itself

		{"", "missing -data"},
		{"-data d.bin -algo quad", `unknown algorithm "quad"`},
		{"-data d.bin -delta 2 -algo nl", "-algo nl has no temporal variant"},
		{"-data d.bin -delta 0 -algo sg", "-algo sg has no temporal variant"},
		{"-data d.bin -delta 2 -labels /tmp/l", "-labels"},
		{"-data d.bin -delta 2 -interacting 1", "no temporal variant"},
		{"-data d.bin -delta 2 -hist", "no temporal variant"},
	} {
		o, err := parseFlags(strings.Fields(c.args))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%q: refused: %v", c.args, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%q: err = %v, want one containing %q", c.args, err, c.wantErr)
		case c.wantErr == "" && o == nil:
			t.Errorf("%q: accepted without options", c.args)
		}
	}
}
