package core

import (
	"jumpslice/internal/bits"
	"jumpslice/internal/pdg"
)

// depEngine abstracts how backward dependence closures are computed.
// Every slicing algorithm in this package is written against it, so
// the same Figure-7 logic runs on either engine:
//
//   - bfsEngine walks the PDG rows per call (the paper's formulation;
//     no setup cost, right for one-off slices), and
//   - condEngine unions memoized SCC-component closures of the same
//     rows (word-parallel bitset work shared across criteria; right
//     for batch slicing).
//
// Both walk the PDG's full rows, invariant edges included, so every
// closure is closed under the slice invariants and the two engines
// differ only in memoization; the batch property tests assert they
// agree.
//
// Both engines carry the Analysis's cancellation callback (nil unless
// the Analysis was built with a cancelable context), and their
// closure walks consult it at a bounded cadence; a cancellation
// surfaces as the error return, which every caller propagates.
type depEngine interface {
	// backwardClosure returns the closure of the seeds as a fresh set.
	backwardClosure(seeds []int) (*bits.Set, error)
	// grow unions seed's closure into set, reporting whether set grew.
	grow(set *bits.Set, seed int) (bool, error)
}

type bfsEngine struct {
	p      *pdg.Graph
	cancel func() error
}

func (e bfsEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	return e.p.BackwardClosureCancel(seeds, e.cancel)
}
func (e bfsEngine) grow(set *bits.Set, seed int) (bool, error) {
	return e.p.GrowClosureCancel(set, seed, e.cancel)
}

type condEngine struct {
	c      *pdg.Condensation
	cancel func() error
}

func (e condEngine) backwardClosure(seeds []int) (*bits.Set, error) {
	return e.c.BackwardClosureCancel(seeds, e.cancel)
}
func (e condEngine) grow(set *bits.Set, seed int) (bool, error) {
	return e.c.GrowClosureCancel(set, seed, e.cancel)
}

// engine returns the per-call BFS engine, the default for the
// single-criterion entry points.
func (a *Analysis) engine() depEngine { return bfsEngine{a.PDG, a.cancelf} }

// batchEngine returns the condensation-backed engine, building the
// condensation of the PDG rows on first use and caching it on the
// Analysis so every batch call — and every criterion within one —
// shares the memoized component closures.
func (a *Analysis) batchEngine() depEngine {
	a.batch.once.Do(func() {
		if a.batch.cond.Load() != nil {
			return // pre-seeded by the incremental engine
		}
		sp := a.rec.StartSpan("phase.analyze.condense")
		ts := a.tr.StartSpan("phase.analyze.condense")
		defer func() { ts.End(); sp.End() }()
		cond := pdg.Condense(a.PDG.Rows())
		cond.Instrument(
			a.rec.Counter("pdg.closure_requests"),
			a.rec.Counter("pdg.closure_hits"),
			a.rec.Counter("pdg.closure_builds"))
		cond.Trace(a.tr)
		a.batch.cond.Store(cond)
	})
	return condEngine{a.batch.cond.Load(), a.cancelf}
}
