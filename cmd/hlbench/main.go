// Command hlbench regenerates the tables and figures of the paper's
// evaluation on the synthetic dataset proxies.
//
// Usage:
//
//	hlbench -exp all                         # every experiment, defaults
//	hlbench -exp table1 -scale 0.5           # half-size proxies
//	hlbench -exp fig3 -datasets Skitter,UK   # subset of datasets
//	hlbench -exp fig4 -updates 500           # 500×10 insertions in Fig 4
//	hlbench -exp repair -workers 1,4,16      # repair-engine scaling sweep
//
// Experiments: table1, table2, fig1, fig3, fig4, ablation, mmap, repair,
// all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exper"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|table2|fig1|fig3|fig4|ablation|mmap|repair|all")
		scale     = flag.Float64("scale", 1.0, "proxy size multiplier")
		updates   = flag.Int("updates", 1000, "edge insertions per dataset")
		queries   = flag.Int("queries", 10000, "distance queries per dataset")
		landmarks = flag.Int("landmarks", 0, "override |R| (0 = per-dataset default)")
		seed      = flag.Int64("seed", 1, "workload seed")
		datasets  = flag.String("datasets", "", "comma-separated dataset subset (default all)")
		workers   = flag.String("workers", "", "comma-separated repair fan-out sweep for -exp repair (default 1,2,4,8)")
		out       = flag.String("out", "", "write output to file instead of stdout")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	cfg := exper.Config{
		Scale:     *scale,
		Updates:   *updates,
		Queries:   *queries,
		Landmarks: *landmarks,
		Seed:      *seed,
		Out:       w,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *workers != "" {
		for _, s := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w < 1 {
				fatal(fmt.Errorf("bad -workers entry %q (want positive integers)", s))
			}
			cfg.Workers = append(cfg.Workers, w)
		}
	}

	runners := map[string]func(exper.Config) error{
		"table2":   func(c exper.Config) error { _, err := exper.Table2(c); return err },
		"fig1":     func(c exper.Config) error { _, err := exper.Fig1(c); return err },
		"table1":   func(c exper.Config) error { _, err := exper.Table1(c); return err },
		"fig3":     func(c exper.Config) error { _, err := exper.Fig3(c); return err },
		"fig4":     func(c exper.Config) error { _, err := exper.Fig4(c); return err },
		"ablation": func(c exper.Config) error { _, err := exper.Ablation(c); return err },
		"mmap":     func(c exper.Config) error { _, err := exper.Mmap(c); return err },
		"repair":   func(c exper.Config) error { _, err := exper.Repair(c); return err },
	}
	order := []string{"table2", "fig1", "table1", "fig3", "fig4", "ablation", "mmap", "repair"}

	var names []string
	if *exp == "all" {
		names = order
	} else {
		if _, ok := runners[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(order, ", ")))
		}
		names = []string{*exp}
	}
	for _, name := range names {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (scale=%.2f, updates=%d)...\n", name, cfg.Scale, cfg.Updates)
		if err := runners[name](cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hlbench:", err)
	os.Exit(1)
}
