package main

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mio/internal/server"
	"mio/internal/shard"
	"mio/internal/shard/remote"
)

// TestFlagCount pins the number of settable values: a new flag is a
// deliberate edit here as well.
func TestFlagCount(t *testing.T) {
	n := 0
	fs := flagSet(&options{})
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 25 {
		t.Errorf("miosrv registers %d flags, want 25", n)
	}
	// Single-valued knobs are constants of the packages that own them.
	for _, gone := range []string{"shard-timeout", "shard-probe", "batch", "batch-window", "batch-max"} {
		if fs.Lookup(gone) != nil {
			t.Errorf("-%s is back", gone)
		}
	}
}

// TestConfigSurface pins the exported fields of the serving configs
// behind the flags, as TestFlagCount pins the flags: a new field is a
// deliberate edit here as well. Timings and thresholds no deployment
// sets are constants of the package that owns them; "gone" keeps them
// from coming back as fields.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		cfg        any
		want, gone []string
	}{
		{
			server.Config{},
			[]string{"MaxInFlight", "AdmissionWait", "QueryTimeout", "CacheSize", "DisableCache", "DisableCoalesce",
				"AllowSwap", "MaxSweep", "State", "Faults", "Shards", "ShardMaxR", "ShardRetries", "ShardHedgeAfter",
				"ShardBreakCooldown", "ShardAddrs"},
			[]string{"ShardProbeInterval"},
		},
		{
			shard.Config{},
			[]string{"Shards", "MaxR", "Retries", "HedgeAfter", "Pool", "BreakCooldown", "Faults"},
			[]string{"Timeout", "Backoff", "BreakThreshold"},
		},
		{
			remote.ClientConfig{},
			[]string{"Addr", "Stamp", "Objects", "Faults"},
			[]string{"ProbeInterval", "ProbeTimeout", "DownAfter", "MaxResponseBytes", "HTTPClient"},
		},
		{
			remote.WorkerConfig{},
			[]string{"Index", "Shards", "MaxR", "Pool", "Faults"},
			[]string{"HandleTTL", "AcquireWait"},
		},
	} {
		typ := reflect.TypeOf(c.cfg)
		var got []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s exports %v, want %v", typ, got, c.want)
		}
		for _, name := range c.gone {
			if _, ok := typ.FieldByName(name); ok {
				t.Errorf("%s.%s is back", typ, name)
			}
		}
	}
}

// TestParseFlags covers every arm of the combination check, the
// server.Config.Validate hand-off and the accepted shapes.
func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args    string
		wantErr string // "" = accepted
	}{
		{"-gen syn", ""},
		{"-data d.bin -inflight 4 -no-cache -no-coalesce", ""},
		{"-gen syn -shards 4 -shard-max-r 5 -shard-retries 2 -shard-hedge 50ms", ""},
		{"-gen syn -shards 3 -shard-serve -shard-index 2", ""},
		{"-gen syn -shards-at http://a:1,http://b:2 -shard-hedge -1s", ""},
		{"-gen syn -state-dir /tmp/s", ""},
		{"", ""}, // -data/-gen are only needed once no state dir supplies a dataset

		{"-gen syn -shard-max-r 5", "require -shards or -shards-at"},
		{"-gen syn -shard-retries 2", "require -shards or -shards-at"},
		{"-gen syn -shard-hedge 1s", "require -shards or -shards-at"},
		{"-gen syn -shards 3 -shard-serve -shards-at http://a:1,http://b:2", "cannot be combined"},
		{"-gen syn -shard-serve", "requires -shards ≥ 2"},
		{"-gen syn -shards 3 -shard-serve -shard-index 3", "outside [0, 3)"},
		{"-gen syn -shards 3 -shard-index 1", "requires -shard-serve"},
		{"-gen syn -shards 3 -shard-serve -allow-swap", "bare shard worker"},
		{"-gen syn -shards 3 -shard-serve -state-dir /tmp/s", "bare shard worker"},
		{"-gen syn -labels /tmp/l -state-dir /tmp/s", "mutually exclusive"},
		{"-data d.bin -gen syn", "-data and -gen are mutually exclusive"},
		{"-gen syn -shards 2 -shards-at http://a:1,http://b:2", "mutually exclusive"},
		{"-gen syn -shards-at http://a:1", "at least 2 shard workers"},
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

	o, err := parseFlags(strings.Fields("-gen bird2 -seed 9 -timeout 0 -shards-at http://a:1,,http://b:2"))
	if err != nil {
		t.Fatal(err)
	}
	if o.gen != "bird2" || o.seed != 9 || o.cfg.QueryTimeout >= 0 || len(o.cfg.ShardAddrs) != 2 {
		t.Errorf("parsed %+v", o)
	}
	if o, err = parseFlags(nil); err != nil || o.seed != 0 || o.cfg.QueryTimeout != 30*time.Second || o.cfg.MaxInFlight != 1 {
		t.Errorf("defaults: %+v, %v", o, err)
	}
}
