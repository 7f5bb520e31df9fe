// Command atypstream replays a record file through the online event
// processor, printing an alert line whenever a closing event exceeds the
// alert severity — the operations-center view of the data. It is a client
// of atypical.System: the processor comes from NewStreamProcessor and the
// alerts and recap render through Describe and Ranking.
//
// Usage:
//
//	atypstream -data data -name d01 [-sensors 400] [-seed 42]
//	           [-deltad 1.5] [-deltat 15m] [-alert 2500] [-top 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

func main() {
	var (
		data    = flag.String("data", "data", "dataset directory (catalog)")
		name    = flag.String("name", "", "dataset name to replay (required)")
		sensors = flag.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed    = flag.Int64("seed", 42, "deployment seed (must match atypgen)")
		deltaD  = flag.Float64("deltad", 1.5, "distance threshold δd (miles)")
		deltaT  = flag.Duration("deltat", 15*time.Minute, "time interval threshold δt")
		alert   = flag.Float64("alert", 2500, "alert severity threshold (severity-min)")
		top     = flag.Int("top", 10, "recap: top-k closed events")
	)
	flag.Parse()
	if *name == "" {
		fatal(fmt.Errorf("-name is required"))
	}

	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed, cfg.DeltaD, cfg.DeltaT = *sensors, *seed, *deltaD, *deltaT
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}

	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		fatal(err)
	}
	rr, closer, err := catalog.Open(*name)
	if err != nil {
		fatal(err)
	}
	defer closer()

	var closed []*atypical.Cluster
	alerts := 0
	proc, err := sys.NewStreamProcessor(func(c *atypical.Cluster) {
		closed = append(closed, c)
		if float64(c.Severity()) >= *alert {
			alerts++
			fmt.Fprintf(os.Stdout, "ALERT %s\n", sys.Describe(c))
		}
	})
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	for {
		r, ok := rr.Next()
		if !ok {
			break
		}
		if err := proc.Observe(r); err != nil {
			fatal(err)
		}
	}
	if err := rr.Err(); err != nil {
		fatal(err)
	}
	proc.Flush()
	elapsed := time.Since(start)

	fmt.Fprintf(os.Stdout, "\nreplayed %d records in %s (%.0f records/s): %d events closed, %d alerts\n",
		proc.Observed(), elapsed.Round(time.Millisecond),
		float64(proc.Observed())/elapsed.Seconds(), proc.Emitted(), alerts)

	sort.Slice(closed, func(i, j int) bool { return closed[i].Severity() > closed[j].Severity() })
	if *top > len(closed) {
		*top = len(closed)
	}
	fmt.Fprintf(os.Stdout, "\ntop %d events of the replay:\n%s", *top, sys.Ranking(closed[:*top]))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atypstream:", err)
	os.Exit(1)
}
