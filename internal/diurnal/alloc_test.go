//go:build !race

// Under -race, sync.Pool drops items at random, so fmt's pooled printers
// allocate and the bytes below would not be Hash's own.

package diurnal

import (
	"runtime"
	"testing"
)

// TestWeekHashAllocatesUnder1KB pins the cost of a diurnal fleet's config
// hash: once the week profile's curves have rendered their text, Hash
// streams it into the digest and allocates only its 16-digit result, one
// allocation per call, where building the 9.5 KB canonical string
// allocated about 21.6 KB.
func TestWeekHashAllocatesUnder1KB(t *testing.T) {
	p := Week()
	want := p.Hash()
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if p.Hash() != want {
			t.Fatal("hash changed between calls")
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B per warmed week-profile Hash", per)
	if per >= 1024 {
		t.Errorf("a warmed week-profile Hash allocates %d B, want under 1 KB", per)
	}
	if n := testing.AllocsPerRun(calls, func() { p.Hash() }); n > 1 {
		t.Errorf("a warmed week-profile Hash makes %v allocations, want 1", n)
	}
}
