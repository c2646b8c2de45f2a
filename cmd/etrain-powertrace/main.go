// Command etrain-powertrace renders the instantaneous power trace of a
// scenario the way the paper's power monitor captures it (0.1 s current
// samples at 3.7 V), as CSV.
//
// Scenarios:
//
//	toy     the Fig. 2 toy example (5 mails scattered vs piggybacked);
//	        writes two files (suffixes -without.csv and -with.csv)
//	single  one transmission's state walk (Fig. 4)
//	sim     a full simulation run under the chosen strategy
//
// Usage:
//
//	etrain-powertrace -scenario single -out fig4.csv
//	etrain-powertrace -scenario sim -theta 6 -horizon 30m -out run.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/powermon"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sim"
	"etrain/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etrain-powertrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario = flag.String("scenario", "single", "toy | single | sim")
		theta    = flag.Float64("theta", 6, "eTrain cost bound for -scenario sim")
		horizon  = flag.Duration("horizon", 30*time.Minute, "span for -scenario sim")
		seed     = flag.Int64("seed", 5, "random seed")
		out      = flag.String("out", "-", "output path, or - for stdout")
	)
	flag.Parse()

	monitor := powermon.Monitor{}
	power := radio.GalaxyS43G()

	write := func(path string, tl *radio.Timeline, span time.Duration) error {
		w := io.Writer(os.Stdout)
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		samples := monitor.Capture(tl, power, span)
		if err := powermon.WriteCSV(w, samples); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d samples, %.2f J\n", path, len(samples), monitor.Energy(samples))
		return nil
	}

	switch *scenario {
	case "single":
		var tl radio.Timeline
		if err := tl.Append(radio.Transmission{
			Start: 5 * time.Second, TxTime: 2 * time.Second, Size: 10 << 10,
			Kind: radio.TxData, App: "probe",
		}); err != nil {
			return err
		}
		return write(*out, &tl, 30*time.Second)

	case "toy":
		span := 300 * time.Second
		scattered, packed, err := toyTimelines()
		if err != nil {
			return err
		}
		withoutPath, withPath := toyPaths(*out)
		if err := write(withoutPath, scattered, span); err != nil {
			return err
		}
		return write(withPath, packed, span)

	case "sim":
		src := randx.New(*seed)
		bw, err := bandwidth.Synthesize(src.Split(), *horizon, nil)
		if err != nil {
			return err
		}
		packets, err := workload.Generate(src.Split(), workload.DefaultSpecs(), *horizon, nil)
		if err != nil {
			return err
		}
		strategy, err := core.New(core.Options{Theta: *theta, K: core.KInfinite})
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{
			Horizon: *horizon, Trains: heartbeat.DefaultTrio(),
			Packets: packets, Bandwidth: bw, Power: power, Strategy: strategy,
		})
		if err != nil {
			return err
		}
		return write(*out, res.Timeline, *horizon)

	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
}

// toyTimelines rebuilds the Fig. 2 toy example's two schedules.
func toyTimelines() (scattered, packed *radio.Timeline, err error) {
	const (
		cycle  = 270 * time.Second
		mailTx = 200 * time.Millisecond
	)
	beat := func(tl *radio.Timeline, at time.Duration) error {
		return tl.Append(radio.Transmission{
			Start: at, TxTime: 100 * time.Millisecond, Size: 74,
			Kind: radio.TxHeartbeat, App: "wechat",
		})
	}
	mail := func(tl *radio.Timeline, at time.Duration) error {
		return tl.Append(radio.Transmission{
			Start: at, TxTime: mailTx, Size: 5 << 10, Kind: radio.TxData, App: "mail",
		})
	}
	scattered = &radio.Timeline{}
	packed = &radio.Timeline{}
	if err := beat(scattered, 0); err != nil {
		return nil, nil, err
	}
	arrivals := []time.Duration{40 * time.Second, 85 * time.Second,
		130 * time.Second, 180 * time.Second, 225 * time.Second}
	for _, at := range arrivals {
		if err := mail(scattered, at); err != nil {
			return nil, nil, err
		}
	}
	if err := beat(scattered, cycle); err != nil {
		return nil, nil, err
	}
	if err := beat(packed, 0); err != nil {
		return nil, nil, err
	}
	if err := beat(packed, cycle); err != nil {
		return nil, nil, err
	}
	at := cycle + 100*time.Millisecond
	for range arrivals {
		if err := mail(packed, at); err != nil {
			return nil, nil, err
		}
		at += mailTx
	}
	return scattered, packed, nil
}

// toyPaths derives the two output paths of the toy scenario.
func toyPaths(out string) (without, with string) {
	if out == "-" {
		return "-", "-"
	}
	base := strings.TrimSuffix(out, ".csv")
	return base + "-without.csv", base + "-with.csv"
}
