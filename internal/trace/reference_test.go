package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// refAppend is the append-based growth Append replaced.
func refAppend(t *Trace, a Access) { t.Accesses = append(t.Accesses, a) }

// TestAppendMatchesReference: from any starting capacity, including
// zero, and across many growth steps, Append holds exactly the accesses
// the append-based reference holds, in order.
func TestAppendMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		capacity := []int{0, 1, 3, 4096, r.Intn(100)}[trial%5]
		got, want := New(capacity), New(capacity)
		for i, n := 0, r.Intn(20000); i < n; i++ {
			a := Access{Addr: r.Uint32(), Value: r.Uint32(), Width: uint8(1 << r.Intn(3)), Kind: Kind(r.Intn(3)), Core: uint8(r.Intn(4))}
			got.Append(a)
			refAppend(want, a)
		}
		if !reflect.DeepEqual(got.Accesses, want.Accesses) {
			t.Fatalf("trial %d: %d accesses differ from the reference's %d", trial, got.Len(), want.Len())
		}
	}
}

// TestAppendMillionAllocs: appending a million accesses to New(4096)
// keeps every one and doubles its way there in a handful of allocations
// (append's ~1.25x growth for large slices needs about two dozen).
func TestAppendMillionAllocs(t *testing.T) {
	const n = 1000000
	var tr *Trace
	allocs := testing.AllocsPerRun(1, func() {
		tr = New(4096)
		for i := 0; i < n; i++ {
			tr.Append(Access{Addr: uint32(i), Value: ^uint32(i), Width: 4, Kind: Kind(i % 3)})
		}
	})
	if tr.Len() != n {
		t.Fatalf("len %d, want %d", tr.Len(), n)
	}
	for i, a := range tr.Accesses {
		if a != (Access{Addr: uint32(i), Value: ^uint32(i), Width: 4, Kind: Kind(i % 3)}) {
			t.Fatalf("access %d = %+v", i, a)
		}
	}
	if allocs > 12 {
		t.Fatalf("%v allocations for %d appends, want <= 12", allocs, n)
	}
}
