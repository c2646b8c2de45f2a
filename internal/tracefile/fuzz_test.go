package tracefile

import (
	"slices"
	"strings"
	"testing"
)

// The fuzz targets assert parser robustness: arbitrary input must either
// parse into structurally valid records or fail with an error — never
// panic, never yield inconsistent data. `go test` runs the seed corpus;
// `go test -fuzz=Fuzz...` explores further.

// FuzzParseTrace drives every tracefile parser with the same input: none
// may panic, and whichever ones accept the bytes must uphold their
// structural invariants (ordered timelines, positive bandwidth floor,
// named behaviors). Beyond the f.Add seeds below, a corpus of
// format-confusing inputs — each valid for one parser, garbage for the
// others — is checked in under testdata/fuzz/FuzzParseTrace.
func FuzzParseTrace(f *testing.F) {
	f.Add("user_id,behavior,time_s,size_bytes\nu1,upload,1.5,2048\n")
	f.Add("start_s,duration_s,size_bytes,kind,app\n1.0,0.1,74,heartbeat,wechat\n")
	f.Add("1000\n2000\n3000\n")
	f.Add("")
	f.Add("\xff\xfe\x00")
	f.Add("1e309\n")          // overflows float64
	f.Add("Inf\n-Inf\nNaN\n") // parse as floats, must be rejected as samples
	f.Fuzz(func(t *testing.T, input string) {
		if records, err := ReadUserTrace(strings.NewReader(input)); err == nil {
			for i, r := range records {
				if r.Behavior.String() == "" {
					t.Fatalf("user trace record %d has empty behavior", i)
				}
			}
		}
		if tl, err := ReadTransmissionLog(strings.NewReader(input)); err == nil {
			txs := tl.Transmissions()
			for i := 1; i < len(txs); i++ {
				if txs[i].Start < txs[i-1].End() {
					t.Fatalf("transmission log overlaps at %d", i)
				}
			}
		}
		if trace, err := ReadBandwidthTrace(strings.NewReader(input)); err == nil {
			if m := slices.Min(trace.Samples()); m <= 0 {
				t.Fatalf("bandwidth trace has non-positive minimum %v", m)
			}
		}
	})
}

func FuzzReadUserTrace(f *testing.F) {
	f.Add("user_id,behavior,time_s,size_bytes\nu1,upload,1.5,2048\n")
	f.Add("user_id,behavior,time_s,size_bytes\nu1,browse,0.0,0\nu2,download,9.25,512\n")
	f.Add("")
	f.Add("garbage")
	f.Add("user_id,behavior,time_s,size_bytes\nu1,teleport,1.0,10\n")
	f.Add("user_id,behavior,time_s,size_bytes\nu1,upload,NaN,10\n")
	f.Fuzz(func(t *testing.T, input string) {
		records, err := ReadUserTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, r := range records {
			if r.Behavior.String() == "" {
				t.Fatalf("record %d has empty behavior", i)
			}
		}
	})
}

func FuzzReadTransmissionLog(f *testing.F) {
	f.Add("start_s,duration_s,size_bytes,kind,app\n1.0,0.1,74,heartbeat,wechat\n")
	f.Add("start_s,duration_s,size_bytes,kind,app\n1.0,0.1,74,heartbeat,wechat\n0.5,0.1,74,data,x\n")
	f.Add("")
	f.Add("start_s,duration_s,size_bytes,kind,app\n-1,-1,-1,data,x\n")
	f.Fuzz(func(t *testing.T, input string) {
		tl, err := ReadTransmissionLog(strings.NewReader(input))
		if err != nil {
			return
		}
		// A successfully parsed timeline must be serialized and ordered.
		txs := tl.Transmissions()
		for i := 1; i < len(txs); i++ {
			if txs[i].Start < txs[i-1].End() {
				t.Fatalf("parsed timeline overlaps at %d", i)
			}
		}
	})
}

func FuzzReadBandwidthTrace(f *testing.F) {
	f.Add("1000\n2000\n3000\n")
	f.Add("")
	f.Add("abc\n")
	f.Add("-500\n")
	f.Fuzz(func(t *testing.T, input string) {
		trace, err := ReadBandwidthTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		// Parsed traces must have strictly positive samples (the floor).
		if m := slices.Min(trace.Samples()); m <= 0 {
			t.Fatalf("parsed trace has non-positive minimum %v", m)
		}
	})
}
