package exper

import (
	"bytes"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/arena"
	"repro/internal/dataset"
	"repro/internal/hcl"
	"repro/internal/landmark"
)

// MmapRow reports, for one dataset proxy, what serving a checkpoint's
// labelling out of an mmap buys over decoding a heap copy: the cold-boot
// attach time on each path, the first query batch on the freshly booted
// index (which on the mapped path faults its pages in on demand), and how
// much of the stream stays file-backed.
type MmapRow struct {
	Dataset  string
	Vertices int
	Entries  int64

	// StreamMB is the size of the labelling stream on disk.
	StreamMB float64

	// CopyLoadMs decodes the stream onto the heap; MapBootMs mmaps the file
	// and attaches the entries in place.
	CopyLoadMs, MapBootMs float64

	// CopyQueryMs / MapQueryMs run the same query batch on the fresh index:
	// the mapped figure includes the demand paging the boot deferred.
	CopyQueryMs, MapQueryMs float64

	// MappedMB is what stays file-backed after the mapped boot.
	MappedMB float64
}

// Mmap runs the cold-boot experiment backing the EXPERIMENTS.md mapped-
// checkpoint table (invoked by `hlbench -exp mmap`): per dataset proxy,
// boot from a saved labelling stream by copy-in decode and by mmap
// attach, then pay for the first queries on each.
func Mmap(cfg Config) ([]MmapRow, error) {
	cfg = cfg.withDefaults()
	if !arena.Supported() {
		return nil, fmt.Errorf("mmap: not supported on this platform")
	}
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	rows := make([]MmapRow, 0, len(specs))
	for _, spec := range specs {
		base := dataset.Generate(spec, cfg.Scale, cfg.Seed)
		lm := landmark.ByDegree(base, cfg.landmarkCount(spec))
		idx, err := hcl.Build(base, lm)
		if err != nil {
			return nil, fmt.Errorf("mmap: dataset %s: %w", spec.Name, err)
		}
		queries := SampleQueries(base.NumVertices(), cfg.Queries, cfg.Seed+505)

		f, err := os.CreateTemp("", "hlbench-mmap-*.hl")
		if err != nil {
			return nil, err
		}
		path := f.Name()
		if _, err := idx.WriteTo(f); err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("mmap: dataset %s: save: %w", spec.Name, err)
		}
		if err := f.Close(); err != nil {
			os.Remove(path)
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			os.Remove(path)
			return nil, err
		}

		row := MmapRow{
			Dataset:  spec.Name,
			Vertices: base.NumVertices(),
			Entries:  idx.NumEntries(),
			StreamMB: float64(fi.Size()) / (1 << 20),
		}

		// Copy-in: read the whole stream and decode a heap labelling.
		start := time.Now()
		data, err := os.ReadFile(path)
		var heap *hcl.Index
		if err == nil {
			heap, err = hcl.ReadIndex(bytes.NewReader(data), base)
		}
		if err != nil {
			os.Remove(path)
			return nil, fmt.Errorf("mmap: dataset %s: copy-in load: %w", spec.Name, err)
		}
		row.CopyLoadMs = ms(time.Since(start))
		start = time.Now()
		for _, p := range queries {
			heap.Query(p[0], p[1])
		}
		row.CopyQueryMs = ms(time.Since(start))

		// Mapped: attach the entries in place; queries fault pages in.
		start = time.Now()
		m, err := arena.MapFile(path)
		var mapped *hcl.Index
		if err == nil {
			mapped, err = hcl.ReadIndexMapped(m, 0, base)
		}
		if err != nil {
			os.Remove(path)
			return nil, fmt.Errorf("mmap: dataset %s: mapped boot: %w", spec.Name, err)
		}
		row.MapBootMs = ms(time.Since(start))
		row.MappedMB = float64(mapped.MappedBytes()) / (1 << 20)
		start = time.Now()
		for _, p := range queries {
			mapped.Query(p[0], p[1])
		}
		row.MapQueryMs = ms(time.Since(start))

		m.Close()
		os.Remove(path)
		rows = append(rows, row)
	}
	renderMmap(cfg, rows)
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func renderMmap(cfg Config, rows []MmapRow) {
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mapped checkpoint arena: cold boot, copy-in vs mmap")
	fmt.Fprintln(tw, "dataset\t|V|\tentries\tstream MB\tcopy-in boot ms\tmmap boot ms\tcopy-in queries ms\tmmap queries ms\tmapped MB")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.2f\t%.1f\t%.1f\t%.1f\n",
			r.Dataset, r.Vertices, r.Entries, r.StreamMB,
			r.CopyLoadMs, r.MapBootMs, r.CopyQueryMs, r.MapQueryMs, r.MappedMB)
	}
	tw.Flush()
}
