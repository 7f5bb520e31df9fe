// Command atypforest builds the atypical forest from record files produced
// by atypgen: it extracts atypical events per day (Algorithm 1), summarizes
// them into micro-clusters, and persists the materialized days. It is a
// client of atypical.System: every catalog dataset goes through IngestCtx,
// and the forest is written with SaveForest, so two runs over the same
// catalog write byte-identical forests.
//
// Usage:
//
//	atypforest -data data/ -out forest/ [-sensors 400] [-seed 42]
//	           [-deltad 1.5] [-deltat 15m] [-deltasim 0.5]
//
// The deployment parameters must match the ones used by atypgen so sensor
// ids resolve to the same topology.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

// daysPerMonth matches atypgen's default month length; atypquery loads the
// forest with the same value.
const daysPerMonth = 28

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atypforest:", err)
		os.Exit(1)
	}
}

// run parses args, builds the forest and writes progress to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("atypforest", flag.ExitOnError)
	var (
		data     = fs.String("data", "data", "directory of .rec files from atypgen")
		out      = fs.String("out", "forest", "output directory for the forest")
		sensors  = fs.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed     = fs.Int64("seed", 42, "deployment seed (must match atypgen)")
		deltaD   = fs.Float64("deltad", 1.5, "distance threshold δd (miles)")
		deltaT   = fs.Duration("deltat", 15*time.Minute, "time interval threshold δt")
		deltaSim = fs.Float64("deltasim", 0.5, "similarity threshold δsim")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed, cfg.DaysPerMonth = *sensors, *seed, daysPerMonth
	cfg.DeltaD, cfg.DeltaT, cfg.SimThreshold = *deltaD, *deltaT, *deltaSim
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		return err
	}

	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		return err
	}
	datasets := catalog.List()
	if len(datasets) == 0 {
		return fmt.Errorf("no datasets in %s (run atypgen first)", *data)
	}

	ctx := context.Background()
	totalRecords := 0
	start := time.Now()
	for _, info := range datasets {
		rs, err := catalog.Read(info.Name)
		if err != nil {
			return err
		}
		if err := sys.IngestCtx(ctx, rs); err != nil {
			return err
		}
		totalRecords += rs.Len()
		fmt.Fprintf(stdout, "%s: %d records\n", info.Name, rs.Len())
	}
	if err := sys.SaveForest(*out); err != nil {
		return err
	}
	st := sys.Forest().Stats()
	fmt.Fprintf(stdout, "forest: %d days, %d micro-clusters from %d records in %s -> %s\n",
		st.Days, st.MicroTotal, totalRecords, time.Since(start).Round(time.Millisecond), *out)
	return nil
}
