// Package tracefile reads and writes the trace formats of the
// reproduction: user behavior traces in the paper's four-element format
// (User ID, Behavior type, Time, Packet Size), bandwidth traces (one
// bytes/second sample per second), and transmission logs. WriteFileAtomic
// and WriteJSONAtomic publish the JSON state files (fleet checkpoints,
// controller snapshots) crash-safely.
package tracefile

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/radio"
	"etrain/internal/workload"
)

// WriteUserTrace writes behavior records as CSV:
// user_id,behavior,time_s,size_bytes.
func WriteUserTrace(w io.Writer, records []workload.BehaviorRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user_id", "behavior", "time_s", "size_bytes"}); err != nil {
		return fmt.Errorf("tracefile: header: %w", err)
	}
	for i, r := range records {
		rec := []string{
			r.UserID,
			r.Behavior.String(),
			strconv.FormatFloat(r.At.Seconds(), 'f', 3, 64),
			strconv.FormatInt(r.Size, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("tracefile: record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadUserTrace parses a CSV user trace written by WriteUserTrace.
func ReadUserTrace(r io.Reader) ([]workload.BehaviorRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tracefile: read user trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	var records []workload.BehaviorRecord
	for i, row := range rows[1:] { // skip header
		if len(row) != 4 {
			return nil, fmt.Errorf("tracefile: row %d has %d fields, want 4", i+1, len(row))
		}
		behavior, err := workload.ParseBehavior(row[1])
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d: %w", i+1, err)
		}
		seconds, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d time: %w", i+1, err)
		}
		size, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d size: %w", i+1, err)
		}
		records = append(records, workload.BehaviorRecord{
			UserID:   row[0],
			Behavior: behavior,
			At:       time.Duration(seconds * float64(time.Second)),
			Size:     size,
		})
	}
	return records, nil
}

// WriteBandwidthTrace writes one bytes/second sample per line.
func WriteBandwidthTrace(w io.Writer, trace *bandwidth.Trace) error {
	for _, s := range trace.Samples() {
		if _, err := fmt.Fprintf(w, "%.1f\n", s); err != nil {
			return fmt.Errorf("tracefile: write bandwidth sample: %w", err)
		}
	}
	return nil
}

// ReadBandwidthTrace parses a one-sample-per-line bandwidth trace.
func ReadBandwidthTrace(r io.Reader) (*bandwidth.Trace, error) {
	var samples []float64
	for {
		var v float64
		n, err := fmt.Fscanln(r, &v)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tracefile: read bandwidth sample %d: %w", len(samples), err)
		}
		if n == 1 {
			samples = append(samples, v)
		}
	}
	return bandwidth.NewTrace(samples)
}

// WriteTransmissionLog writes a radio timeline as CSV:
// start_s,duration_s,size_bytes,kind,app.
func WriteTransmissionLog(w io.Writer, tl *radio.Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"start_s", "duration_s", "size_bytes", "kind", "app"}); err != nil {
		return fmt.Errorf("tracefile: header: %w", err)
	}
	for i, tx := range tl.Transmissions() {
		rec := []string{
			strconv.FormatFloat(tx.Start.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(tx.TxTime.Seconds(), 'f', 6, 64),
			strconv.FormatInt(tx.Size, 10),
			tx.Kind.String(),
			tx.App,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("tracefile: transmission %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTransmissionLog parses a CSV transmission log back into a timeline.
func ReadTransmissionLog(r io.Reader) (*radio.Timeline, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tracefile: read transmission log: %w", err)
	}
	tl := &radio.Timeline{}
	if len(rows) == 0 {
		return tl, nil
	}
	for i, row := range rows[1:] {
		if len(row) != 5 {
			return nil, fmt.Errorf("tracefile: row %d has %d fields, want 5", i+1, len(row))
		}
		start, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d start: %w", i+1, err)
		}
		dur, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d duration: %w", i+1, err)
		}
		size, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: row %d size: %w", i+1, err)
		}
		var kind radio.TxKind
		switch row[3] {
		case "heartbeat":
			kind = radio.TxHeartbeat
		case "data":
			kind = radio.TxData
		default:
			return nil, fmt.Errorf("tracefile: row %d unknown kind %q", i+1, row[3])
		}
		tx := radio.Transmission{
			Start:  time.Duration(start * float64(time.Second)),
			TxTime: time.Duration(dur * float64(time.Second)),
			Size:   size,
			Kind:   kind,
			App:    row[4],
		}
		if err := tl.Append(tx); err != nil {
			return nil, fmt.Errorf("tracefile: row %d: %w", i+1, err)
		}
	}
	return tl, nil
}
