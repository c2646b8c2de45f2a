package tracefile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteJSONAtomic pins the published bytes (two-space indent, one
// trailing newline), an overwrite in place, and that no temp file is left
// behind.
func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, tc := range []struct {
		v    any
		want string
	}{
		{map[string]int{"a": 1}, "{\n  \"a\": 1\n}\n"},
		{[]int{2, 3}, "[\n  2,\n  3\n]\n"},
	} {
		if err := WriteJSONAtomic(path, tc.v); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Fatalf("wrote %q, want %q", got, tc.want)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only state.json", len(ents))
	}
	if err := WriteJSONAtomic(filepath.Join(dir, "missing", "x.json"), 1); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if err := WriteJSONAtomic(path, func() {}); err == nil {
		t.Fatal("marshalling a func succeeded")
	}
}
