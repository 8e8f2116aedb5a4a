package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratedDatasetsPinned pins the bytes `lpq-tool gen` writes for each
// dataset: the lpq format and its writer produce them byte for byte. A
// change to either that alters them must re-pin these sums on purpose.
// lineitem's is pinned by TestPlacementAffinity in internal/store, which
// generates it at this scale anyway.
func TestGeneratedDatasetsPinned(t *testing.T) {
	want := map[string]string{
		"taxi":      "a51cd356bf1c992e36d22bb6cb5a4260c84f33d7a3fda6acb51d8d54d2f64e34",
		"recipenlg": "e0e0a13470bfaef87f8b8767960889e34391b65ef831fb87e4245250b61f72d2",
		"ukpp":      "59282656d602e59f58fbd686e5702f87e173663109cb453af8a34774a18c5532",
	}
	if _, ok := generators["lineitem"]; !ok || len(want) != len(generators)-1 {
		t.Fatalf("%d datasets pinned here and lineitem in internal/store; gen writes %d", len(want), len(generators))
	}
	for name, sum := range want {
		data, err := generators[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: %d bytes with sha256 %x, want %s", name, len(data), got, sum)
		}
	}
}
