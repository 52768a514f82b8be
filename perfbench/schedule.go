package main

import (
	"math/rand"
	"sort"
	"time"
)

// opKind is one kind of request in the serve workload's open loop.
type opKind int

const (
	opFresh  opKind = iota // /v1/run on a new seed: generation and a simulation
	opHot                  // /v1/run repeated from a small hot set: memo hits
	opSweep                // /v1/sweep pre-warmed before the restart: store hits
	opUpload               // POST /v1/traces of a new .sipt, then /v1/run by digest
	numKinds
)

func (k opKind) String() string {
	return [...]string{"fresh", "hot", "sweep", "upload"}[k]
}

// kindShare is each kind's share of the open-loop operations. The
// repository records no siptd request mix (no traffic log, no stated
// use case), so the kinds get equal shares: an assumption, not a
// measurement, chosen because it favours no layer.
var kindShare = [numKinds]float64{opFresh: 0.25, opHot: 0.25, opSweep: 0.25, opUpload: 0.25}

// plannedOp is one scheduled operation.
type plannedOp struct {
	Due  time.Duration // offset from the start of the phase
	Kind opKind
	// Index is the op's input: for fresh, sweep and upload ops the
	// 0-based sequence number within its kind (each names distinct
	// inputs); for hot ops the hot-set entry it repeats.
	Index int
}

// kindCounts splits n operations by kindShare exactly (fresh takes the
// rounding remainder), so every seed sends the same mix.
func kindCounts(n int) [numKinds]int {
	var c [numKinds]int
	rest := n
	for k := opKind(1); k < numKinds; k++ {
		c[k] = int(kindShare[k]*float64(n) + 0.5)
		rest -= c[k]
	}
	c[opFresh] = rest
	return c
}

// schedule plans n operations over span: arrival times are n uniform
// draws, sorted (a Poisson process conditioned on its count), and the
// kinds are a seeded shuffle of kindCounts(n). The same seed gives the
// same sequence.
func schedule(seed int64, n, hotSet int, span time.Duration) []plannedOp {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	counts := kindCounts(n)
	kinds := make([]opKind, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var next [numKinds]int
	ops := make([]plannedOp, n)
	for i, k := range kinds {
		ops[i] = plannedOp{Due: due[i], Kind: k, Index: next[k]}
		if k == opHot {
			ops[i].Index = rng.Intn(hotSet)
		} else {
			next[k]++
		}
	}
	return ops
}
