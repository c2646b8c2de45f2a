package server

import (
	"net"
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/workload"
)

// BenchmarkServerThroughput measures complete loopback sessions per
// second: one synthesized device replayed through the codec–server–engine
// path per iteration. Device 1 of seed 7 carries the cargo path: over its
// 2 minutes, 11 arrivals of all three profile families among 14 events,
// and 5 decisions, one a Θ-gated drip between beats. Session synthesis is
// done once outside the loop, and one untimed session warms the
// per-connection buffer and replayer pools first, so even a -benchtime 1x
// run measures a steady-state session.
func BenchmarkServerThroughput(b *testing.B) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		b.Fatal(err)
	}
	dev, err := fleet.SynthesizeDevice(7, pop, 1, 2*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	session := func() {
		client, serverSide := net.Pipe()
		srvErr := make(chan error, 1)
		go func() { srvErr <- srv.ServeConn(serverSide) }()
		if _, err := Drive(client, sess); err != nil {
			b.Fatal(err)
		}
		if err := <-srvErr; err != nil {
			b.Fatal(err)
		}
	}
	session()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session()
	}
}
