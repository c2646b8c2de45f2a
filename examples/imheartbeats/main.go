// imheartbeats reproduces the paper's §II measurement methodology as a
// library consumer would: run several real-world heartbeat apps (including
// NetEase's adaptive backoff and iOS's shared APNS channel), observe their
// traffic through eTrain's monitor, and report each detected cycle — the
// analysis behind Table 1 and Fig. 3.
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
	sys, err := etrain.NewSystem(etrain.SystemConfig{Seed: 2, Theta: 1})
	if err != nil {
		return err
	}
	apps := []etrain.TrainApp{
		etrain.WeChat(), etrain.WhatsApp(), etrain.QQ(),
		etrain.RenRen(), etrain.NetEase(),
	}
	for _, app := range apps {
		if err := sys.AddTrain(app); err != nil {
			return err
		}
	}
	sys.Run(4 * time.Hour)

	fmt.Println("Detected heartbeat cycles after 4h of observation:")
	cycles := sys.DetectedCycles()
	for _, app := range apps {
		if cycle, ok := cycles[app.Name]; ok {
			fmt.Printf("  %-10s stable cycle %v\n", app.Name, cycle)
		} else {
			fmt.Printf("  %-10s adaptive cycle (no stable period)\n", app.Name)
		}
	}

	fmt.Println("\nNext-heartbeat predictions (the scheduler's train timetable):")
	for _, app := range apps {
		if next, ok := sys.PredictNextHeartbeat(app.Name); ok {
			fmt.Printf("  %-10s next beat predicted at %v\n", app.Name, next)
		}
	}

	// iOS for contrast: one shared APNS connection for every app.
	fmt.Println("\nFor comparison, the merged train timetable of the Android trio over 10 minutes:")
	for _, b := range etrain.MergedSchedule(etrain.DefaultTrains(), 10*time.Minute) {
		fmt.Printf("  t=%4.0fs  %-9s %d bytes\n", b.At.Seconds(), b.App, b.Size)
	}
	apnsBeats := etrain.MergedSchedule([]etrain.TrainApp{etrain.APNS()}, time.Hour)
	fmt.Printf("\niOS (APNS) sends only %d heartbeats per hour: one shared 1800s cycle.\n", len(apnsBeats))
	return nil
}
