// Quickstart: build a live eTrain system with the paper's three IM train
// apps and a mail cargo app, run one virtual hour, and print how the mail
// rode the heartbeats.
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
	sys, err := etrain.NewSystem(etrain.SystemConfig{
		Seed:  1,
		Theta: 2.0, // cost bound: how much delay-cost accrues before eTrain transmits anyway
	})
	if err != nil {
		return err
	}

	// Train apps: the heartbeat senders eTrain piggybacks on.
	for _, train := range etrain.DefaultTrains() {
		if err := sys.AddTrain(train); err != nil {
			return err
		}
	}

	// A cargo app: delay-tolerant mail with a 3-minute deadline.
	mail, err := sys.RegisterCargo("mail", etrain.MailProfile(3*time.Minute))
	if err != nil {
		return err
	}
	for at := 2 * time.Minute; at < time.Hour; at += 7 * time.Minute {
		mail.ScheduleSubmit(at, 5*1024) // a 5 KB e-mail
	}

	sys.Run(time.Hour)

	fmt.Printf("heartbeats observed: %d\n", sys.HeartbeatsObserved())
	fmt.Printf("detected cycles:     %v\n", sys.DetectedCycles())
	energy := sys.EnergyBreakdown(time.Hour)
	fmt.Printf("radio energy:        %.1f J (transmit %.1f J, tail %.1f J)\n",
		energy.Total(), energy.Transmit, energy.Tail)

	for _, d := range sys.Delivered() {
		fmt.Printf("mail #%d submitted %5.0fs  transmitted %5.0fs  (waited %4.0fs for a train)\n",
			d.PacketID, d.ArrivedAt.Seconds(), d.StartedAt.Seconds(),
			(d.StartedAt - d.ArrivedAt).Seconds())
	}
	return nil
}
