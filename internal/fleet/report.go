package fleet

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"etrain/internal/stats"
)

// ClassRow pairs a class label with its population-wide aggregate.
type ClassRow struct {
	// Label is the activeness-class name of the mix entry.
	Label string
	// Agg is the class's aggregate over every device of the class.
	Agg ClassAggregate
}

// Report is the population summary: per-class and total aggregates, plus
// the identity the run was produced under. Its rendering is a pure
// function of its fields — byte-identical at any worker count and across
// checkpoint/resume.
type Report struct {
	// Devices, Shards and ShardSize describe the population layout.
	Devices   int
	Shards    int
	ShardSize int
	// Horizon, Theta, K, Seed and SketchAlpha echo the effective config.
	Horizon     time.Duration
	Theta       float64
	K           int
	Seed        int64
	SketchAlpha float64
	// Radio and Diurnal echo the optional radio generation and diurnal
	// profile name; empty in a legacy run.
	Radio   string
	Diurnal string
	// ConfigHash names the run's simulation identity (Config.hash).
	ConfigHash string
	// Classes holds one row per mix entry, in mix order.
	Classes []ClassRow
	// Total aggregates every device regardless of class.
	Total ClassAggregate
}

// Fprint renders the report as a deterministic aligned-text table.
func (r *Report) Fprint(w io.Writer) error {
	header := fmt.Sprintf(
		"eTrain fleet report\ndevices=%d shards=%d shard_size=%d horizon=%s theta=%g k=%d seed=%d alpha=%g",
		r.Devices, r.Shards, r.ShardSize, r.Horizon, r.Theta, r.K, r.Seed, r.SketchAlpha)
	// Optional tokens appear only when set: a legacy run's rendering is
	// byte-for-byte what it was before diurnal/radio existed.
	if r.Radio != "" {
		header += fmt.Sprintf(" radio=%s", r.Radio)
	}
	if r.Diurnal != "" {
		header += fmt.Sprintf(" diurnal=%s", r.Diurnal)
	}
	if _, err := fmt.Fprintf(w, "%s\nconfig_hash=%s\n\n", header, r.ConfigHash); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tdevices\twithout_J\twith_J\tsaved_J\tsaved_J_p50\tsaving_p10\tsaving_p50\tsaving_p90\tdelay_s_p50\tviolation")
	for _, row := range r.Classes {
		printAggRow(tw, row.Label, &row.Agg)
	}
	printAggRow(tw, "all", &r.Total)
	return tw.Flush()
}

// printAggRow writes one aggregate as a table row (means from the moments,
// percentiles from the sketches; "-" where the class is empty).
func printAggRow(w io.Writer, label string, a *ClassAggregate) {
	fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
		label, a.Devices,
		meanCell(a.WithoutJ, "%.2f"),
		meanCell(a.WithJ, "%.2f"),
		meanCell(a.SavedJ, "%.2f"),
		quantileCell(a.SavedSketch, 50, "%.2f"),
		quantileCell(a.SavingSketch, 10, "%.4f"),
		quantileCell(a.SavingSketch, 50, "%.4f"),
		quantileCell(a.SavingSketch, 90, "%.4f"),
		quantileCell(a.DelaySketch, 50, "%.3f"),
		meanCell(a.Violation, "%.4f"),
	)
}

// meanCell formats a moments mean, or "-" when empty.
func meanCell(m stats.Moments, format string) string {
	if m.N() == 0 {
		return "-"
	}
	return fmt.Sprintf(format, m.Mean())
}

// quantileCell formats a sketch quantile, or "-" when empty.
func quantileCell(s *stats.Sketch, p float64, format string) string {
	v, err := s.Quantile(p)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf(format, v)
}
