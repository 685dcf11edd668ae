package imem

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lpmem/internal/testutil"
	"lpmem/internal/workloads"
)

// refTrainField is trainField before the dense count table: bigram
// affinities live in a map keyed by the ordered value pair.
func refTrainField(stream []uint32, f Field) fieldMap {
	n := 1 << f.Width
	aff := make(map[[2]uint32]uint64)
	freq := make([]uint64, n)
	for i, w := range stream {
		v := f.Extract(w)
		freq[v]++
		if i > 0 {
			p := f.Extract(stream[i-1])
			if p != v {
				k := [2]uint32{p, v}
				if p > v {
					k = [2]uint32{v, p}
				}
				aff[k]++
			}
		}
	}
	used := make([]bool, n)
	chain := make([]uint32, 0, n)
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if freq[order[i]] != freq[order[j]] {
			return freq[order[i]] > freq[order[j]]
		}
		return order[i] < order[j]
	})
	chain = append(chain, order[0])
	used[order[0]] = true
	for len(chain) < n {
		tail := chain[len(chain)-1]
		var best uint32
		bestScore := uint64(0)
		found := false
		for _, cand := range order {
			if used[cand] {
				continue
			}
			k := [2]uint32{tail, cand}
			if tail > cand {
				k = [2]uint32{cand, tail}
			}
			score := aff[k]*1000 + freq[cand]
			if !found || score > bestScore {
				found = true
				best = cand
				bestScore = score
			}
		}
		chain = append(chain, best)
		used[best] = true
	}
	fm := fieldMap{field: f, encode: make([]uint32, n), decode: make([]uint32, n)}
	for pos, val := range chain {
		code := uint32(pos) ^ (uint32(pos) >> 1)
		fm.encode[val] = code
		fm.decode[code] = val
	}
	return fm
}

// checkTrain trains fields on stream and compares every table with the
// map version.
func checkTrain(t *testing.T, what string, stream []uint32, fields []Field) {
	t.Helper()
	e, err := Train(stream, fields)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, f := range fields {
		want := refTrainField(stream, f)
		if got := e.maps[i]; !slices.Equal(got.encode, want.encode) || !slices.Equal(got.decode, want.decode) {
			t.Fatalf("%s: field %+v: encode %v decode %v, reference encode %v decode %v",
				what, f, got.encode, got.decode, want.encode, want.decode)
		}
	}
}

// TestTrainMatchesReferenceRandom: fields of every width 1..8 at random
// shifts, trained together so narrower fields reuse a table sized for
// the widest, on random streams and on streams drawn from a few values.
func TestTrainMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		fields := make([]Field, 1+r.Intn(4))
		for i := range fields {
			w := uint(1 + (trial+i)%8)
			fields[i] = Field{Shift: uint(r.Intn(int(33 - w))), Width: w}
		}
		pool := make([]uint32, 1+r.Intn(20))
		for i := range pool {
			pool[i] = r.Uint32()
		}
		stream := make([]uint32, r.Intn(3000))
		for i := range stream {
			if trial%2 == 0 {
				stream[i] = r.Uint32()
			} else {
				stream[i] = pool[r.Intn(len(pool))]
			}
		}
		checkTrain(t, "random", stream, fields)
	}
}

// TestTrainMatchesReferenceTies: streams where many values share a
// frequency and many pairs share an affinity, so every tie-break of the
// order and of the chain greedy decides the tables.
func TestTrainMatchesReferenceTies(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for w := uint(1); w <= 8; w++ {
		f := Field{Shift: 3, Width: w}
		n := 1 << w
		for trial := 0; trial < 6; trial++ {
			// Repeat one permutation of a subset of the values, so each
			// value occurs equally often and each cycle pair once per lap.
			perm := r.Perm(n)[:1+r.Intn(n)]
			var stream []uint32
			for laps := 1 + r.Intn(5); laps > 0; laps-- {
				for _, v := range perm {
					stream = append(stream, f.Insert(r.Uint32(), uint32(v)))
				}
			}
			checkTrain(t, "ties", stream, []Field{f})
		}
		checkTrain(t, "constant", []uint32{7, 7, 7}, []Field{f})
		checkTrain(t, "empty", nil, []Field{f})
	}
}

// TestTrainMatchesReferenceKernels: the µRISC fields, plus 8-bit fields,
// on every workload kernel's fetch stream.
func TestTrainMatchesReferenceKernels(t *testing.T) {
	fields := append(MuRISCFields(), Field{Shift: 24, Width: 8}, Field{Shift: 0, Width: 8})
	for _, k := range workloads.All() {
		stream := fetchStream(testutil.MustRun(k.Build(1)).Trace)
		checkTrain(t, k.Name, stream, fields)
	}
}
