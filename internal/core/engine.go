package core

import (
	"jumpslice/internal/bits"
	"jumpslice/internal/pdg"
)

// depEngine abstracts how backward dependence closures are computed.
// Every slicing algorithm in this package is written against it, so
// the same Figure-7 logic runs on either engine:
//
//   - *pdg.Graph walks the PDG rows per call (the paper's formulation;
//     no setup cost, right for one-off slices; the single-criterion
//     entry points pass a.PDG), and
//   - *pdg.Condensation unions memoized SCC-component closures of the
//     same rows (word-parallel bitset work shared across criteria;
//     right for batch slicing).
//
// Both walk the PDG's full rows, invariant edges included, so every
// closure is closed under the slice invariants and the two engines
// differ only in memoization; the batch property tests assert they
// agree.
//
// Callers pass the Analysis's cancellation callback (nil unless the
// Analysis was built with a cancelable context), and the closure walks
// consult it at a bounded cadence; a cancellation surfaces as the
// error return, which every caller propagates.
type depEngine interface {
	// BackwardClosure returns the closure of the seeds as a fresh set.
	BackwardClosure(seeds []int, cancel func() error) (*bits.Set, error)
	// GrowClosure unions seed's closure into set, reporting whether
	// set grew.
	GrowClosure(set *bits.Set, seed int, cancel func() error) (bool, error)
}

// batchEngine returns the condensation-backed engine, building the
// condensation of the PDG rows on first use and caching it on the
// Analysis so every batch call — and every criterion within one —
// shares the memoized component closures.
func (a *Analysis) batchEngine() depEngine {
	a.batch.once.Do(func() {
		if a.batch.cond.Load() != nil {
			return // pre-seeded by the incremental engine
		}
		defer a.sc.StartSpan("phase.analyze.condense").End()
		cond := pdg.Condense(a.PDG.Rows())
		cond.Instrument(a.sc)
		a.batch.cond.Store(cond)
	})
	return a.batch.cond.Load()
}
