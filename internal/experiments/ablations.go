package experiments

import (
	"fmt"
	"time"

	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/offline"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sim"
	"etrain/internal/workload"
)

// Ablations lists the design-choice studies that go beyond the paper's own
// figures: each isolates one decision DESIGN.md calls out.
func Ablations() []Entry {
	return []Entry{
		{"abl-offline-gap", "online Algorithm 1 vs the exact offline optimum (§III) on small instances", AblOfflineGap},
		{"abl-fast-dormancy", "tail piggybacking vs the fast-dormancy alternative of §VII", AblFastDormancy},
		{"abl-greedy-policy", "Eq. 9's costliest-first selection vs FIFO and cheapest-first", AblGreedyPolicy},
		{"abl-channel-oracle", "channel-obliviousness (§IV): does gating drips on channel estimates help?", AblChannelOracle},
		{"abl-predictive-monitor", "Xposed hook vs pure cycle prediction under heartbeat jitter (§V-2)", AblPredictiveMonitor},
		{"abl-radio-tech", "how eTrain's savings depend on the radio's tail: 3G vs LTE vs WiFi", AblRadioTech},
		{"abl-seed-robustness", "does the headline ordering survive across random seeds?", SeedRobustness},
	}
}

// AblRadioTech replays the default workload on three radio technologies.
// eTrain's benefit is proportional to the tail it amortizes: largest on
// LTE's hot ~11.6 s tail, near zero on WiFi's ~0.3 s PSM linger.
func AblRadioTech(opts Options) (*Table, error) {
	tbl := &Table{
		ID:      "abl-radio-tech",
		Title:   "eTrain savings by radio technology (Θ=6, k=∞, λ=0.08)",
		Columns: []string{"radio", "tail_s", "baseline_J", "etrain_J", "saved_J", "saving"},
	}
	radios := []struct {
		name  string
		model radio.PowerModel
	}{
		{"3G (Galaxy S4)", radio.GalaxyS43G()},
		{"LTE", radio.LTE()},
		{"WiFi", radio.WiFi()},
	}
	for _, r := range radios {
		cfg, err := buildSimConfig(opts, 0.08)
		if err != nil {
			return nil, err
		}
		cfg.Power = r.model
		cfg.Strategy = baseline.NewImmediate()
		base, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		strategy, err := core.New(core.Options{Theta: 6, K: core.KInfinite})
		if err != nil {
			return nil, err
		}
		cfg.Strategy = strategy
		et, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		saving := 0.0
		if base.Energy.Total() > 0 {
			saving = 1 - et.Energy.Total()/base.Energy.Total()
		}
		tbl.AddRow(r.name, r.model.TailTime().Seconds(),
			base.Energy.Total(), et.Energy.Total(),
			base.Energy.Total()-et.Energy.Total(), fmt.Sprintf("%.0f%%", saving*100))
	}
	tbl.AddNote("the relative saving is roughly scale-invariant (tails dominate all variants), but the absolute joules recovered track the tail: LTE's hot tail yields the biggest win, WiFi's sub-second linger leaves only tens of joules on the table")
	return tbl, nil
}

// AblOfflineGap measures the optimality gap of the online strategy on
// random small instances with a binding total delay-cost budget
// (constraint (4)): the exact branch-and-bound optimum is compared against
// the best eTrain run (over a Θ grid) whose accumulated cost stays within
// the same budget.
func AblOfflineGap(opts Options) (*Table, error) {
	const (
		instances  = 8
		instHorizn = 900 * time.Second
		bandwidth  = 200e3
	)
	tbl := &Table{
		ID:      "abl-offline-gap",
		Title:   "Online Algorithm 1 vs exact offline optimum under a cost budget",
		Columns: []string{"instance", "packets", "budget", "lower_J", "offline_J", "online_J", "gap"},
	}
	src := randx.New(opts.Seed + 11)
	bw, err := constantTrace(bandwidth, instHorizn)
	if err != nil {
		return nil, err
	}
	// A single sparse train (QQ, 300 s cycle) makes waiting expensive, so
	// the budget genuinely binds.
	qq := heartbeat.QQ()
	qq.FirstAt = 33 * time.Second
	beats := qq.Schedule(instHorizn, nil)

	totalGap := 0.0
	counted := 0
	for i := 0; i < instances; i++ {
		n := 4 + src.Intn(4)
		var packets []workload.Packet
		for j := 0; j < n; j++ {
			packets = append(packets, workload.Packet{
				App:       "weibo",
				ArrivedAt: time.Duration(src.Intn(int(instHorizn.Seconds())-200)) * time.Second,
				Size:      int64(500 + src.Intn(4000)),
				Profile:   workload.WeiboSpec().Profile,
			})
		}
		sortPacketsByArrival(packets)
		for j := range packets {
			packets[j].ID = j
		}
		budget := 0.5 * float64(n)

		inst := offline.Instance{
			Beats:      beats,
			Packets:    packets,
			Power:      radio.GalaxyS43G(),
			Horizon:    instHorizn,
			Bandwidth:  bandwidth,
			CostBudget: budget,
		}
		lower, err := offline.LowerBound(inst)
		if err != nil {
			return nil, err
		}
		optimal, err := offline.Solve(inst)
		if err != nil {
			return nil, err
		}

		// Best online run within the same budget, over a Θ grid.
		bestOnline := -1.0
		for _, theta := range []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 6} {
			strategy, err := core.New(core.Options{Theta: theta, K: core.KInfinite})
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(sim.Config{
				Horizon:   instHorizn,
				Beats:     beats,
				Packets:   packets,
				Bandwidth: bw,
				Power:     radio.GalaxyS43G(),
				Strategy:  strategy,
			})
			if err != nil {
				return nil, err
			}
			cost := 0.0
			for _, p := range res.Packets {
				cost += packets[p.ID].Profile.Cost(p.Delay)
			}
			if cost <= budget+1e-9 {
				if bestOnline < 0 || res.Energy.Total() < bestOnline {
					bestOnline = res.Energy.Total()
				}
			}
		}
		onlineCell := "infeasible"
		gapCell := "-"
		if bestOnline >= 0 && optimal.EnergyJoules > 0 {
			gap := bestOnline/optimal.EnergyJoules - 1
			totalGap += gap
			counted++
			onlineCell = fmt.Sprintf("%.2f", bestOnline)
			gapCell = fmt.Sprintf("%.1f%%", gap*100)
		}
		tbl.AddRow(i, n, budget, lower, optimal.EnergyJoules, onlineCell, gapCell)
	}
	if counted > 0 {
		tbl.AddNote("mean optimality gap %.1f%% across %d budget-feasible instances: with a binding cost budget the online heuristic pays a real but bounded premium over the NP-hard optimum (§III); without a budget both simply ride the next train and the gap vanishes",
			totalGap/float64(counted)*100, counted)
	}
	return tbl, nil
}

func sortPacketsByArrival(packets []workload.Packet) {
	for i := 1; i < len(packets); i++ {
		for j := i; j > 0 && packets[j].ArrivedAt < packets[j-1].ArrivedAt; j-- {
			packets[j], packets[j-1] = packets[j-1], packets[j]
		}
	}
}

// AblFastDormancy contrasts eTrain with the fast-dormancy technique the
// related work (§VII) proposes: cutting the tail right after each
// transmission at the price of a promotion delay (and signaling) on every
// radio wake-up.
func AblFastDormancy(opts Options) (*Table, error) {
	cfg, err := buildSimConfig(opts, 0.08)
	if err != nil {
		return nil, err
	}
	promo := cfg.Power
	promo.PromotionDelay = 2 * time.Second

	tbl := &Table{
		ID:    "abl-fast-dormancy",
		Title: "Standard tail + eTrain vs fast dormancy (promotion delay 2 s)",
		Columns: []string{"policy", "energy_J", "avg_delay_s",
			"promotions", "promotion_latency_s"},
	}

	cfg.Strategy = baseline.NewImmediate()
	base, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	et, err := core.New(core.Options{Theta: 6, K: core.KInfinite})
	if err != nil {
		return nil, err
	}
	cfg.Strategy = et
	etres, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}

	baseFD := base.Timeline.AccountFastDormancy(promo)
	txs := base.Timeline.Len()
	tbl.AddRow("baseline + standard tail", base.Energy.Total(),
		base.NormalizedDelay().Seconds(), 0, 0.0)
	tbl.AddRow("baseline + fast dormancy", baseFD.Total(),
		base.NormalizedDelay().Seconds()+promo.PromotionDelay.Seconds(),
		txs, float64(txs)*promo.PromotionDelay.Seconds())
	tbl.AddRow("eTrain + standard tail", etres.Energy.Total(),
		etres.NormalizedDelay().Seconds(), 0, 0.0)
	tbl.AddNote("fast dormancy trades tail energy for %d radio promotions (state-transition churn and +2 s latency on every transmission, including each IM heartbeat); eTrain keeps the standard mechanism (§VII)", txs)
	return tbl, nil
}

// AblGreedyPolicy compares Eq. 9's costliest-first selection against FIFO
// and cheapest-first under identical Θ/k.
func AblGreedyPolicy(opts Options) (*Table, error) {
	cfg, err := buildSimConfig(opts, 0.08)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "abl-greedy-policy",
		Title:   "Packet selection rule ablation (Θ=2, k=∞)",
		Columns: []string{"policy", "energy_J", "delay_s", "violation", "total_cost"},
	}
	policies := []struct {
		name string
		sel  core.SelectionPolicy
	}{
		{"eq9 (paper)", core.SelectEq9},
		{"fifo", core.SelectFIFO},
		{"cheapest-first", core.SelectCheapest},
	}
	for _, pol := range policies {
		strategy, err := core.New(core.Options{Theta: 2, K: core.KInfinite, Selection: pol.sel})
		if err != nil {
			return nil, err
		}
		cfg.Strategy = strategy
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		totalCost := 0.0
		for _, p := range res.Packets {
			for _, orig := range cfg.Packets {
				if orig.ID == p.ID {
					totalCost += orig.Profile.Cost(p.Delay)
					break
				}
			}
		}
		tbl.AddRow(pol.name, res.Energy.Total(), res.NormalizedDelay().Seconds(),
			fmt.Sprintf("%.3f", res.DeadlineViolationRatio()), totalCost)
	}
	tbl.AddNote("measured finding: cheapest-first keeps P(t) above Θ longer, turning isolated Θ-drips into consecutive (tail-sharing) ones and saving energy at this Θ; Eq. 9 optimizes the per-slot drift bound, not long-run tail adjacency. Its advantage is robustness: it never starves the packet whose cost is exploding")
	return tbl, nil
}

// AblChannelOracle tests the paper's channel-obliviousness argument (§IV):
// gate eTrain's Θ-drips on a channel estimate — noisy (realistic) and
// perfect (oracle) — and compare with plain eTrain.
func AblChannelOracle(opts Options) (*Table, error) {
	tbl := &Table{
		ID:      "abl-channel-oracle",
		Title:   "Channel-gated drips vs channel-oblivious eTrain (Θ=4, k=∞)",
		Columns: []string{"variant", "energy_J", "delay_s", "violation"},
	}
	type variant struct {
		name    string
		theta   float64
		gated   bool
		perfect bool
	}
	for _, v := range []variant{
		{"oblivious, Θ=4 (paper)", 4, false, false},
		{"gated, noisy estimate, Θ=4", 4, true, false},
		{"gated, oracle estimate, Θ=4", 4, true, true},
		{"oblivious, Θ=6 (paper)", 6, false, false},
	} {
		cfg, err := buildSimConfig(opts, 0.08)
		if err != nil {
			return nil, err
		}
		if v.perfect {
			cfg.Estimator = perfectEstimator(cfg)
		}
		strategy, err := core.New(core.Options{Theta: v.theta, K: core.KInfinite, ChannelGated: v.gated})
		if err != nil {
			return nil, err
		}
		cfg.Strategy = strategy
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(v.name, res.Energy.Total(), res.NormalizedDelay().Seconds(),
			fmt.Sprintf("%.3f", res.DeadlineViolationRatio()))
	}
	tbl.AddNote("measured finding: gating saves some energy, but a noisy estimate performs as well as a perfect oracle — the gain comes from deferring drips (which then ride later trains), not from channel knowledge, and plain eTrain at a slightly higher Θ dominates the gated variant without any channel machinery. This is the paper's channel-obliviousness argument, quantified")
	return tbl, nil
}

// AblPredictiveMonitor compares the hook-driven monitor with pure cycle
// prediction under growing heartbeat jitter.
func AblPredictiveMonitor(opts Options) (*Table, error) {
	tbl := &Table{
		ID:      "abl-predictive-monitor",
		Title:   "Hooked monitor vs cycle prediction under heartbeat jitter",
		Columns: []string{"jitter_s", "hooked_J", "predicted_J", "hooked_delay_s", "predicted_delay_s"},
	}
	for _, jitter := range []time.Duration{0, time.Second, 5 * time.Second, 15 * time.Second} {
		cfg, err := buildSimConfig(opts, 0.08)
		if err != nil {
			return nil, err
		}
		jitterSrc := randx.New(opts.Seed + 31)
		cfg.Beats = heartbeat.MergeJittered(jitterSrc, heartbeat.DefaultTrio(), cfg.Horizon, jitter)

		hookStrategy, err := core.New(core.Options{Theta: 4, K: core.KInfinite})
		if err != nil {
			return nil, err
		}
		cfg.Strategy = hookStrategy
		hooked, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}

		predStrategy, err := core.NewPredictive(core.Options{Theta: 4, K: core.KInfinite}, 5)
		if err != nil {
			return nil, err
		}
		cfg.Strategy = predStrategy
		predicted, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}

		tbl.AddRow(fmt.Sprintf("%.0f", jitter.Seconds()),
			hooked.Energy.Total(), predicted.Energy.Total(),
			hooked.NormalizedDelay().Seconds(), predicted.NormalizedDelay().Seconds())
	}
	tbl.AddNote("with periodic heartbeats prediction matches the hook; jitter makes extrapolated departures miss the real tails, which is why eTrain instruments the send path (§V-2)")
	return tbl, nil
}
