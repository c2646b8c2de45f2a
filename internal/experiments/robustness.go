package experiments

import (
	"fmt"

	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/parallel"
	"etrain/internal/sched"
	"etrain/internal/sim"
	"etrain/internal/stats"
)

// SeedRobustness re-runs the headline comparison across several seeds and
// reports mean ± stddev of each strategy's energy at fixed control
// parameters, plus how often the paper's ordering (eTrain < eTime < PerES <
// baseline) held. It is the reproduction's answer to "is this one lucky
// seed?".
func SeedRobustness(opts Options) (*Table, error) {
	const seeds = 5
	tbl := &Table{
		ID:      "abl-seed-robustness",
		Title:   fmt.Sprintf("Headline comparison across %d seeds (λ=0.08)", seeds),
		Columns: []string{"strategy", "control", "mean_J", "stddev_J", "min_J", "max_J"},
	}
	type config struct {
		name    string
		control string
		build   func() (sched.Strategy, error)
	}
	configs := []config{
		{"etrain", "Θ=10", func() (sched.Strategy, error) {
			return core.New(core.Options{Theta: 10, K: core.KInfinite})
		}},
		{"etime", "V=10", func() (sched.Strategy, error) {
			return baseline.NewETime(10)
		}},
		{"peres", "Ω=1", func() (sched.Strategy, error) {
			return baseline.NewPerES(1)
		}},
		{"baseline", "-", func() (sched.Strategy, error) {
			return baseline.NewImmediate(), nil
		}},
	}

	// One job per (seed, strategy) pair; results are slotted by index so
	// the aggregation below is order-independent of the scheduling.
	perRun, err := parallel.Map(opts.limit(), seeds*len(configs), func(i int) (float64, error) {
		s, c := i/len(configs), configs[i%len(configs)]
		cfg, err := buildSimConfig(Options{Seed: opts.Seed + int64(s), Horizon: opts.Horizon}, 0.08)
		if err != nil {
			return 0, err
		}
		strategy, err := c.build()
		if err != nil {
			return 0, err
		}
		cfg.Strategy = strategy
		res, err := sim.Run(cfg)
		if err != nil {
			return 0, err
		}
		return res.Energy.Total(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("seed robustness: %w", err)
	}
	energies := make(map[string][]float64, len(configs))
	for i, e := range perRun {
		energies[configs[i%len(configs)].name] = append(energies[configs[i%len(configs)].name], e)
	}

	for _, c := range configs {
		summary, err := stats.Summarize(energies[c.name])
		if err != nil {
			return nil, err
		}
		tbl.AddRow(c.name, c.control, summary.Mean, summary.StdDev, summary.Min, summary.Max)
	}

	ordered := 0
	for s := 0; s < seeds; s++ {
		if energies["etrain"][s] < energies["etime"][s] &&
			energies["etime"][s] < energies["peres"][s] &&
			energies["peres"][s] < energies["baseline"][s] {
			ordered++
		}
	}
	tbl.AddNote("paper ordering eTrain < eTime < PerES < baseline held in %d of %d seeds", ordered, seeds)
	return tbl, nil
}
