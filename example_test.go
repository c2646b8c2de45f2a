package etrain_test

import (
	"fmt"
	"time"

	"etrain"
)

// ExampleSimulate runs the paper's default 2-hour simulation under eTrain
// and reports whether it beat the transmit-on-arrival baseline.
func ExampleSimulate() {
	et, err := etrain.Simulate(etrain.SimConfig{
		Seed:     5,
		Strategy: etrain.StrategyConfig{Kind: etrain.StrategyETrain, Theta: 6},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	base, err := etrain.Simulate(etrain.SimConfig{
		Seed:     5,
		Strategy: etrain.StrategyConfig{Kind: etrain.StrategyBaseline},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("eTrain beat baseline: %v\n", et.Energy.Total() < base.Energy.Total())
	fmt.Printf("same packets delivered: %v\n", et.Packets == base.Packets)
	// Output:
	// eTrain beat baseline: true
	// same packets delivered: true
}

// ExampleNewSystem builds the live Android-style stack: a WeChat train, a
// mail cargo app, and one packet riding the first heartbeat after it.
func ExampleNewSystem() {
	sys, err := etrain.NewSystem(etrain.SystemConfig{Seed: 1, Theta: 100})
	if err != nil {
		fmt.Println(err)
		return
	}
	train := etrain.WeChat()
	train.FirstAt = 60 * time.Second
	if err := sys.AddTrain(train); err != nil {
		fmt.Println(err)
		return
	}
	mail, err := sys.RegisterCargo("mail", etrain.MailProfile(10*time.Minute))
	if err != nil {
		fmt.Println(err)
		return
	}
	mail.ScheduleSubmit(10*time.Second, 5*1024)
	sys.Run(5 * time.Minute)
	d := sys.Delivered()[0]
	fmt.Printf("submitted at %v, rode the train at ~%v\n",
		d.ArrivedAt, d.StartedAt.Truncate(time.Second))
	// Output:
	// submitted at 10s, rode the train at ~1m0s
}

// ExampleMergedSchedule prints the first departures of the paper's train
// trio.
func ExampleMergedSchedule() {
	beats := etrain.MergedSchedule(etrain.DefaultTrains(), 3*time.Minute)
	for _, b := range beats {
		fmt.Printf("%s departs at %v\n", b.App, b.At)
	}
	// Output:
	// wechat departs at 27s
	// qq departs at 33s
	// whatsapp departs at 1m29s
}

// ExampleOfflineSolve finds the optimal departure for one packet given a
// known train timetable.
func ExampleOfflineSolve() {
	qq := etrain.QQ()
	qq.FirstAt = 100 * time.Second
	inst := etrain.OfflineInstance{
		Beats: etrain.MergedSchedule([]etrain.TrainApp{qq}, 400*time.Second),
		Packets: []etrain.Packet{{
			ID: 0, App: "mail", ArrivedAt: 30 * time.Second, Size: 5 << 10,
			Profile: etrain.MailProfile(5 * time.Minute),
		}},
		Power:   etrain.GalaxyS43G(),
		Horizon: 400 * time.Second,
	}
	sched, err := etrain.OfflineSolve(inst)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("optimal departure: %v\n", sched.Times[0])
	// Output:
	// optimal departure: 1m40s
}
