// Command etrain-capture classifies a transmission-log capture into flows,
// identifying heartbeat cycles the way the paper's §II-B Wireshark analysis
// does — from packet sizes and timestamps alone.
//
// Usage:
//
//	etrain-capture -in transmissions.csv
//	etrain-capture -demo            # classify a synthetic mixed capture
//
// The input is the CSV format written by cmd/etrain-powertrace's sim
// scenario or internal/tracefile's WriteTransmissionLog
// (start_s,duration_s,size_bytes,kind,app); the kind/app columns are
// ignored — classification is blind.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"etrain/internal/capture"
	"etrain/internal/heartbeat"
	"etrain/internal/randx"
	"etrain/internal/tracefile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etrain-capture:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "transmission log CSV to classify")
		demo      = flag.Bool("demo", false, "classify a synthetic mixed capture instead")
		tolerance = flag.Duration("tolerance", 3*time.Second, "cycle jitter tolerance")
	)
	flag.Parse()

	var packets []capture.Packet
	switch {
	case *demo:
		packets = demoCapture()
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		tl, err := tracefile.ReadTransmissionLog(f)
		if err != nil {
			return err
		}
		packets = capture.FromTimeline(tl)
	default:
		return fmt.Errorf("need -in <file> or -demo")
	}

	flows := capture.Classify(packets, capture.Options{Tolerance: *tolerance})
	fmt.Printf("%-8s %-10s %-22s %s\n", "size_B", "packets", "kind", "cycle")
	for _, f := range flows {
		cycle := "-"
		switch f.Kind {
		case capture.FlowHeartbeat:
			cycle = fmt.Sprintf("%.0fs", f.Cycle.Seconds())
		case capture.FlowAdaptiveHeartbeat:
			cycle = fmt.Sprintf("%.0f-%.0fs", f.CycleMin.Seconds(), f.CycleMax.Seconds())
		}
		fmt.Printf("%-8d %-10d %-22s %s\n", f.Size, f.Count, f.Kind, cycle)
	}
	hb := capture.Heartbeats(flows)
	fmt.Printf("\n%d of %d flows identified as heartbeats\n", len(hb), len(flows))
	return nil
}

// demoCapture mixes the five measured apps' heartbeats with random data.
func demoCapture() []capture.Packet {
	apps := append(heartbeat.DefaultTrio(), heartbeat.RenRen(), heartbeat.NetEase())
	horizon := 4 * time.Hour
	var packets []capture.Packet
	for _, b := range heartbeat.Merge(apps, horizon, nil) {
		packets = append(packets, capture.Packet{At: b.At, Size: b.Size})
	}
	src := randx.New(1)
	for at := time.Duration(0); at < horizon; at += time.Duration(40+src.Intn(80)) * time.Second {
		packets = append(packets, capture.Packet{At: at, Size: int64(1000 + src.Intn(80000))})
	}
	return packets
}
