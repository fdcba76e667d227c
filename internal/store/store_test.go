package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreFingerprints: only well-formed journal names are listed.
func TestStoreFingerprints(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"0123456789abcdef" + Ext, // valid
		"fedcba9876543210" + Ext, // valid
		"README.md",              // foreign file
		"short" + Ext,            // malformed fingerprint
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0123456789abcdef", "fedcba9876543210"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Fingerprints() = %v, want %v", got, want)
	}
}
