// useractivity replays synthesized 10-minute Weibo sessions of active,
// moderate and inactive users (the paper's Fig. 11 classification) through
// a live eTrain system and reports the per-class energy saving.
package main

import (
	"fmt"
	"log"
	"time"

	"etrain"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	classes := []etrain.ActivenessClass{
		etrain.ClassActive, etrain.ClassModerate, etrain.ClassInactive,
	}
	fmt.Printf("%-10s %8s %12s %12s %10s\n", "class", "uploads", "without", "with eTrain", "saved")
	for i, class := range classes {
		trace := etrain.SynthesizeUserTrace(int64(100+i), "demo-user", class)
		uploads := 0
		for _, r := range trace {
			if r.Behavior == etrain.BehaviorUpload {
				uploads++
			}
		}
		if got := etrain.ClassifyUser(trace); got != class {
			return fmt.Errorf("trace classified as %v, want %v", got, class)
		}

		without, err := replay(trace, false)
		if err != nil {
			return err
		}
		with, err := replay(trace, true)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %8d %10.1f J %10.1f J %8.1f J\n",
			class, uploads, without, with, without-with)
	}
	fmt.Println("\nActive users generate more cargo, so eTrain saves the most joules for them")
	fmt.Println("(the green bars of the paper's Fig. 11: 227.9 > 134.5 > 63.2 J).")
	return nil
}

// replay runs one 10-minute session with the three IM trains. With eTrain
// disabled the scheduler bound is zero-wait via a tiny bypass window,
// emulating transmit-on-arrival.
func replay(trace []etrain.BehaviorRecord, withETrain bool) (float64, error) {
	cfg := etrain.SystemConfig{Seed: 7, Theta: 4.0}
	if !withETrain {
		// Transmit on arrival: gate nothing.
		cfg.Theta = 0
		cfg.BypassAfter = time.Second
	}
	sys, err := etrain.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	for _, train := range etrain.DefaultTrains() {
		if err := sys.AddTrain(train); err != nil {
			return 0, err
		}
	}
	weibo, err := sys.RegisterCargo("weibo", etrain.WeiboProfile(30*time.Second))
	if err != nil {
		return 0, err
	}
	for _, r := range trace {
		if r.Size > 0 {
			weibo.ScheduleSubmit(r.At, r.Size)
		}
	}
	sys.Run(etrain.SessionLength)
	return sys.EnergyBreakdown(etrain.SessionLength).Total(), nil
}
