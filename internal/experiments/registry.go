package experiments

import (
	"fmt"

	"etrain/internal/parallel"
	"etrain/internal/sim"
)

// Runner regenerates one figure or table.
type Runner func(Options) (*Table, error)

// Entry pairs an experiment ID with its runner and the paper's claim.
type Entry struct {
	// ID is the table/figure label.
	ID string
	// Claim summarizes what the paper reports there.
	Claim string
	// Run regenerates it.
	Run Runner
}

// All lists every reproducible table and figure in paper order.
func All() []Entry {
	return []Entry{
		{"fig1a", "standby energy: ~2000 J / ~87% on heartbeats with 3 IM apps over 4 h", Fig1a},
		{"fig1b", "heartbeats of 3 IM apps arrive about once a minute", Fig1b},
		{"table1", "per-app heartbeat cycles; NetEase 60-480 s; iOS APNS 1800 s", Table1},
		{"fig2", "piggybacking 5 mails onto a heartbeat saves ~40% transmission energy", Fig2},
		{"fig3", "NetEase doubles its cycle after every 6 beats up to 480 s", Fig3},
		{"fig4", "power states: DCH 700 mW for 10 s, FACH 450 mW for 7.5 s, then IDLE", Fig4},
		{"fig6", "delay-cost profiles f1/f2/f3", Fig6},
		{"fig7a", "Θ 0→3: energy drops ~40%, delay grows 18→70 s", Fig7a},
		{"fig7b", "larger k dominates; k 8→16 adds little", Fig7b},
		{"fig8a", "E-D panel: eTrain dominates, then eTime, PerES, baseline", Fig8a},
		{"fig8b", "λ sweep at matched delay: eTrain saves the most at every λ", Fig8b},
		{"fig10a", "more trains: slightly more total energy, half the delay; ~45% cargo saving", Fig10a},
		{"fig10b", "controlled Θ sweep: ~30% energy down for ~30% delay up", Fig10b},
		{"fig10c", "larger shared deadlines save more energy", Fig10c},
		{"fig11", "active users save the most energy (23.1% vs 13.3%)", Fig11},
		{"fig11pop", "population-scale fig11: per-class saving deciles via the fleet engine", Fig11Pop},
		{"fig-diurnal", "diurnal fleet: per-class saving deciles across radio generations and day phases", FigDiurnal},
	}
}

// Result pairs an entry with its outcome.
type Result struct {
	// Entry identifies the experiment.
	Entry Entry
	// Table is the regenerated figure (nil when Err is set).
	Table *Table
	// Err is the experiment's failure, if any.
	Err error
}

// RunAll executes the given experiments across the options' worker budget
// and returns one result per entry, in input order regardless of
// scheduling. All entries share one runner (opts.Runner, or a fresh one
// sized by opts.Workers), so the whole batch keeps within one worker
// budget. Failures are aggregated per entry: one failed experiment reports
// its error without killing the rest.
func RunAll(entries []Entry, opts Options) []Result {
	if opts.Runner == nil {
		opts.Runner = sim.NewRunner(opts.workersOr1())
	}
	results := make([]Result, len(entries))
	// Entry-level fan-out gets its own pool (parallel.Limit is not
	// reentrant); the shared runner's leaf semaphore keeps the total
	// number of simulations in flight bounded anyway.
	_ = parallel.ForEach(opts.limit(), len(entries), func(i int) error {
		tbl, err := entries[i].Run(opts)
		results[i] = Result{Entry: entries[i], Table: tbl, Err: err}
		return nil
	})
	return results
}

// ByID returns the entry with the given ID, searching both the paper's
// figures/tables and the ablation studies.
func ByID(id string) (Entry, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
