// Command lobster-pack writes a synthetic dataset to the packed on-disk
// format (internal/datafile) the online runtime's PFS store can serve
// real bytes from, and verifies existing files.
//
// Examples:
//
//	lobster-pack -dataset imagenet-1k -scale tiny -o /tmp/in1k.lobster
//	lobster-pack -verify /tmp/in1k.lobster
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datafile"
	"repro/internal/dataset"
)

func main() {
	var (
		datasetName = flag.String("dataset", "imagenet-1k", "imagenet-1k | imagenet-22k")
		scale       = flag.String("scale", "tiny", "tiny | small | medium | full")
		seed        = flag.Uint64("seed", 42, "dataset generation seed")
		output      = flag.String("o", "", "output path for the packed file")
		verify      = flag.String("verify", "", "verify an existing packed file and exit")
	)
	flag.Parse()

	if *verify != "" {
		r, err := datafile.Open(*verify, true)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		if err := r.Verify(); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d samples, seed %d — all checksums OK\n", *verify, r.Len(), r.Seed())
		return
	}
	if *output == "" {
		fatal(fmt.Errorf("need -o <path> (or -verify <path>)"))
	}
	sc, err := dataset.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	var spec dataset.Spec
	switch *datasetName {
	case "imagenet-1k":
		spec = dataset.ImageNet1K(sc, *seed)
	case "imagenet-22k":
		spec = dataset.ImageNet22K(sc, *seed)
	default:
		fatal(fmt.Errorf("unknown dataset %q", *datasetName))
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("packing %s (%d samples, %.1f MB) to %s...\n",
		ds.Name(), ds.Len(), float64(ds.TotalBytes())/1e6, *output)
	if err := datafile.Write(*output, ds); err != nil {
		fatal(err)
	}
	fi, err := os.Stat(*output)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %.1f MB\n", float64(fi.Size())/1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lobster-pack:", err)
	os.Exit(1)
}
