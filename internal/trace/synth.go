package trace

import "math/rand"

// Synthetic trace generators.
//
// The generators model the statistical structure the DATE'03 techniques key
// on: spatial locality (strided array walks), temporal locality (hot loops),
// scattered cold data, and call-stack traffic. All generators are
// deterministic given the seed.

// SynthConfig parameterises Synthesize.
type SynthConfig struct {
	// Seed drives all randomness.
	Seed int64
	// N is the number of accesses to generate.
	N int
	// Regions describes the address regions and their relative heat.
	Regions []Region
	// WriteFraction in [0,1] is the probability an access is a store.
	WriteFraction float64
}

// Region is an address interval with an access weight and stride behaviour.
type Region struct {
	// Base is the first byte address of the region.
	Base uint32
	// Size is the region length in bytes.
	Size uint32
	// Weight is the relative probability of accessing this region.
	Weight float64
	// Stride, when non-zero, makes accesses walk the region sequentially
	// with the given byte stride (spatial locality). When zero, accesses
	// are uniform random within the region.
	Stride uint32
}

// Synthesize generates a trace per cfg. It panics on an empty region list,
// which is always a configuration bug.
func Synthesize(cfg SynthConfig) *Trace {
	if len(cfg.Regions) == 0 {
		//lint:allow panicfree documented config-bug guard; region lists are literals in experiment code
		panic("trace: Synthesize requires at least one region")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := 0.0
	for _, r := range cfg.Regions {
		total += r.Weight
	}
	cursors := make([]uint32, len(cfg.Regions))
	t := New(cfg.N)
	for i := 0; i < cfg.N; i++ {
		// Pick a region by weight.
		x := rng.Float64() * total
		ri := 0
		for j, r := range cfg.Regions {
			if x < r.Weight {
				ri = j
				break
			}
			x -= r.Weight
			ri = j
		}
		r := cfg.Regions[ri]
		var addr uint32
		if r.Stride != 0 {
			addr = r.Base + cursors[ri]
			cursors[ri] += r.Stride
			if cursors[ri] >= r.Size {
				cursors[ri] = 0
			}
		} else {
			addr = r.Base + uint32(rng.Int63n(int64(r.Size)))&^3
		}
		kind := Read
		if rng.Float64() < cfg.WriteFraction {
			kind = Write
		}
		t.Append(Access{Addr: addr, Value: rng.Uint32(), Width: 4, Kind: kind})
	}
	return t
}
