// Command miogen generates the stand-in datasets used throughout the
// repository and writes them to disk in the text or binary format.
//
// Usage:
//
//	miogen -dataset neuron -n 500 -m 800 -out neuron.bin
//	miogen -dataset all -scale 0.5 -dir ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mio/internal/data"
)

func main() {
	var (
		dataset = flag.String("dataset", "all", "dataset to generate: "+data.Names()+", or all (the five stand-ins neuron … syn)")
		n       = flag.Int("n", 0, "override object count (0 = dataset default)")
		m       = flag.Int("m", 0, "override points per object (0 = dataset default)")
		seed    = flag.Int64("seed", 0, "override RNG seed (0 = dataset default)")
		scale   = flag.Float64("scale", 1.0, "scale factor applied to default object counts")
		out     = flag.String("out", "", "output file (single dataset; .txt = text, else binary)")
		dir     = flag.String("dir", ".", "output directory (-dataset all)")
		times   = flag.Bool("timestamps", false, "attach synthetic generation times for the temporal variant")
	)
	flag.Parse()

	if *dataset == "all" {
		if *out != "" {
			fatal("use -dir, not -out, with -dataset all")
		}
		for name, ds := range data.Standard(*scale) {
			if *times {
				ds = data.WithTimestamps(ds, 1.0, 100, 99)
			}
			path := filepath.Join(*dir, strings.ToLower(name)+".bin")
			if err := data.SaveFile(path, ds); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %-24s %s\n", path, ds.Summary())
		}
		return
	}

	ds, err := data.ByName(*dataset, *scale, *n, *m, *seed)
	if err != nil {
		fatal(err)
	}
	if *times {
		ds = data.WithTimestamps(ds, 1.0, 100, 99)
	}
	path := *out
	if path == "" {
		path = *dataset + ".bin"
	}
	if err := data.SaveFile(path, ds); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s  %s\n", path, ds.Summary())
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "miogen:", v)
	os.Exit(1)
}
