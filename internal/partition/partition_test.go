package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lpmem/internal/energy"
	"lpmem/internal/trace"
)

func model() energy.MemoryModel { return energy.DefaultMemoryModel() }

func flatSpec(blocks int, perBlock uint64) *Spec {
	s := &Spec{BlockSize: 64, Blocks: make([]BlockStats, blocks), Cycles: 1000}
	for i := range s.Blocks {
		s.Blocks[i] = BlockStats{Reads: perBlock}
	}
	return s
}

func TestSpecFromTrace(t *testing.T) {
	tr := trace.New(8)
	tr.Append(trace.Access{Addr: 0x100, Kind: trace.Read, Width: 4})
	tr.Append(trace.Access{Addr: 0x104, Kind: trace.Write, Width: 4})
	tr.Append(trace.Access{Addr: 0x300, Kind: trace.Read, Width: 4})
	tr.Append(trace.Access{Addr: 0x0, Kind: trace.Fetch, Width: 4}) // ignored
	spec, bases, err := SpecFromTrace(tr, 64, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Blocks) != 2 || len(bases) != 2 {
		t.Fatalf("blocks = %d", len(spec.Blocks))
	}
	if bases[0] != 0x100 || bases[1] != 0x300 {
		t.Fatalf("bases = %v", bases)
	}
	if spec.Blocks[0].Reads != 1 || spec.Blocks[0].Writes != 1 || spec.Blocks[1].Reads != 1 {
		t.Fatalf("stats = %+v", spec.Blocks)
	}
	if spec.TotalAccesses() != 3 {
		t.Fatalf("total = %d", spec.TotalAccesses())
	}
}

func TestSpecFromTraceErrorsOnBadBlock(t *testing.T) {
	if _, _, err := SpecFromTrace(trace.New(0), 48, 0); err == nil {
		t.Fatal("want error")
	}
}

func TestPow2Ceil(t *testing.T) {
	cases := map[uint32]uint32{0: 1, 1: 1, 2: 2, 3: 4, 64: 64, 65: 128, 1000: 1024}
	for in, want := range cases {
		if got := pow2Ceil(in); got != want {
			t.Errorf("pow2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMonolithicCoversEverything(t *testing.T) {
	spec := flatSpec(10, 5)
	p := Monolithic(spec)
	if len(p.Banks) != 1 {
		t.Fatal("monolithic must be one bank")
	}
	b := p.Banks[0]
	if b.NumBlocks != 10 || b.Reads != 50 {
		t.Fatalf("bank = %+v", b)
	}
	if b.SizeBytes != 1024 { // 10*64 -> 1024
		t.Fatalf("size = %d", b.SizeBytes)
	}
}

// TestOptimalNeverWorseThanMonolithic for arbitrary specs.
func TestOptimalNeverWorseThanMonolithic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		blocks := int(n%32) + 1
		spec := &Spec{BlockSize: 64, Blocks: make([]BlockStats, blocks), Cycles: 100}
		for i := range spec.Blocks {
			spec.Blocks[i] = BlockStats{Reads: uint64(r.Intn(1000)), Writes: uint64(r.Intn(300))}
		}
		monoE := Energy(spec, Monolithic(spec), model())
		_, optE, err := Optimal(spec, 4, model())
		return err == nil && optE <= monoE+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalMatchesBruteForce on tiny instances: the DP must equal
// exhaustive enumeration of all contiguous partitions.
func TestOptimalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(6)
		spec := &Spec{BlockSize: 64, Blocks: make([]BlockStats, n), Cycles: 50}
		for i := range spec.Blocks {
			spec.Blocks[i] = BlockStats{Reads: uint64(r.Intn(500)), Writes: uint64(r.Intn(100))}
		}
		const maxBanks = 3
		_, dpE, err := Optimal(spec, maxBanks, model())
		if err != nil {
			t.Fatal(err)
		}

		// Brute force: every subset of cut positions with < maxBanks cuts.
		best := energy.PJ(1e30)
		var enumerate func(cuts []int, next int)
		enumerate = func(cuts []int, next int) {
			if len(cuts)+1 <= maxBanks {
				p := partitionFromCuts(spec, cuts)
				if e := Energy(spec, p, model()); e < best {
					best = e
				}
			}
			if len(cuts)+1 >= maxBanks {
				return
			}
			for c := next; c < n; c++ {
				enumerate(append(cuts, c), c+1)
			}
		}
		enumerate(nil, 1)
		if diff := float64(dpE - best); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: DP %v != brute force %v", trial, dpE, best)
		}
	}
}

// partitionFromCuts builds a partition from sorted cut positions.
func partitionFromCuts(spec *Spec, cuts []int) *Partition {
	bounds := append(append([]int{0}, cuts...), len(spec.Blocks))
	var p Partition
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		var b Bank
		b.FirstBlock = lo
		b.NumBlocks = hi - lo
		b.SizeBytes = pow2Ceil(uint32(hi-lo) * spec.BlockSize)
		for j := lo; j < hi; j++ {
			b.Reads += spec.Blocks[j].Reads
			b.Writes += spec.Blocks[j].Writes
		}
		p.Banks = append(p.Banks, b)
	}
	return &p
}

// TestOptimalIsolatesHotBlock: with one very hot block among cold ones,
// the optimum must put it in its own small bank.
func TestOptimalIsolatesHotBlock(t *testing.T) {
	spec := flatSpec(32, 2)
	spec.Blocks[0] = BlockStats{Reads: 100000}
	p, _, err := Optimal(spec, 4, model())
	if err != nil {
		t.Fatal(err)
	}
	first := p.Banks[0]
	if first.NumBlocks != 1 || first.Reads != 100000 {
		t.Fatalf("hot block not isolated: %+v", p)
	}
}

func TestOptimalEmptyAndBadArgs(t *testing.T) {
	p, e, err := Optimal(&Spec{BlockSize: 64}, 4, model())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Banks) != 0 || e != 0 {
		t.Fatal("empty spec should yield empty partition")
	}
	if _, _, err := Optimal(flatSpec(2, 1), 0, model()); err == nil {
		t.Fatal("maxBanks < 1 must be an error")
	}
}

// TestBanksArePartition: banks must tile the block range exactly.
func TestBanksArePartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		spec := &Spec{BlockSize: 64, Blocks: make([]BlockStats, n), Cycles: 10}
		for i := range spec.Blocks {
			spec.Blocks[i] = BlockStats{Reads: uint64(r.Intn(100))}
		}
		p, _, err := Optimal(spec, 1+r.Intn(6), model())
		if err != nil {
			return false
		}
		at := 0
		for _, b := range p.Banks {
			if b.FirstBlock != at || b.NumBlocks <= 0 {
				return false
			}
			at += b.NumBlocks
		}
		return at == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreBanksNeverHurt: allowing a bigger budget can only lower energy
// (the DP considers all smaller counts too).
func TestMoreBanksNeverHurt(t *testing.T) {
	spec := flatSpec(24, 3)
	for i := range spec.Blocks {
		spec.Blocks[i].Reads = uint64((i * 37) % 97)
	}
	prev := energy.PJ(1e30)
	for _, k := range []int{1, 2, 4, 8} {
		_, e, err := Optimal(spec, k, model())
		if err != nil {
			t.Fatal(err)
		}
		if e > prev+1e-9 {
			t.Fatalf("budget %d made energy worse: %v > %v", k, e, prev)
		}
		prev = e
	}
}

func TestPartitionString(t *testing.T) {
	p := &Partition{Banks: []Bank{{SizeBytes: 256, Reads: 10, Writes: 5}}}
	if got := p.String(); got != "[256B:15]" {
		t.Fatalf("String() = %q", got)
	}
}
