// cloudsync models the paper's eTrain Cloud app: a Dropbox-style client
// that syncs large files in 100 KB chunks. Deferring each sync to the next
// heartbeat costs seconds of staleness nobody notices and saves the tail
// energy of every sync burst.
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
	const horizon = 2 * time.Hour

	sys, err := etrain.NewSystem(etrain.SystemConfig{Seed: 13, Theta: 3.0})
	if err != nil {
		return err
	}
	for _, train := range etrain.DefaultTrains() {
		if err := sys.AddTrain(train); err != nil {
			return err
		}
	}

	cloud, err := sys.RegisterCargo("cloud", etrain.CloudProfile(5*time.Minute))
	if err != nil {
		return err
	}

	// Files appear every ~12 minutes; each sync submits its chunks at once.
	type file struct {
		at     time.Duration
		name   string
		chunks int
	}
	files := []file{
		{8 * time.Minute, "report.pdf", 3},
		{21 * time.Minute, "photo-001.jpg", 2},
		{33 * time.Minute, "slides.key", 4},
		{52 * time.Minute, "photo-002.jpg", 2},
		{67 * time.Minute, "backup.db", 5},
		{84 * time.Minute, "notes.md", 1},
		{101 * time.Minute, "video-clip.mp4", 6},
	}
	for _, f := range files {
		for c := 0; c < f.chunks; c++ {
			cloud.ScheduleSubmit(f.at, 100*1024)
		}
	}

	sys.Run(horizon)

	energy := sys.EnergyBreakdown(horizon)
	fmt.Printf("synced %d files (%d chunks) over %v\n",
		len(files), len(sys.Delivered()), horizon)
	fmt.Printf("radio energy: %.1f J (tail %.1f J)\n", energy.Total(), energy.Tail)
	fmt.Printf("heartbeats ridden: %d observed\n\n", sys.HeartbeatsObserved())

	fmt.Println("per-chunk staleness (submit -> transmit):")
	var worst time.Duration
	for _, d := range sys.Delivered() {
		wait := d.StartedAt - d.ArrivedAt
		if wait > worst {
			worst = wait
		}
	}
	fmt.Printf("  worst chunk waited %v for its train — invisible for cloud sync,\n", worst)
	fmt.Println("  and every chunk burst shares one tail with a heartbeat instead of")
	fmt.Println("  paying ~10.4 J of tail per sync.")
	return nil
}
