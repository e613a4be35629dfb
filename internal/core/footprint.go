package core

// Footprint estimates the resident bytes of an Analysis — the cost a
// byte-accounted cache charges for keeping it. The estimate is
// structural and deterministic: it is computed from node, edge and
// definition counts, never from allocator state, so two analyses of
// the same program always weigh the same and a cache's byte ledger
// stays reproducible across runs and GOMAXPROCS settings.
//
// The accounting covers the dominant heap consumers:
//
//   - per-node cost: the cfg.Node struct and its slot in every
//     parallel array the Analysis keeps (PDT/LST parent and children
//     arrays, CDG adjacency headers, live/enclosingSwitch/condJump, the
//     precomputed worklists), plus the retained AST statement;
//   - per-edge cost: the PDG adjacency lists (data + merged deps) and
//     their CDG/CFG counterparts;
//   - the reaching-definitions In matrix, the one per-node bit-set
//     structure Reach leaves resident: a row per node, one word per 64
//     definition sites, plus the definition index.
//
// The lazily-built batch condensation and its memoized component
// closures are intentionally excluded: they are not present on the
// cached single-request path, and charging for them would make an
// entry's cost change after insertion, which a consistent ledger
// cannot allow.
func (a *Analysis) Footprint() int64 {
	n := int64(a.CFG.NumNodes())
	var edges int64
	for v := 0; v < int(n); v++ {
		edges += int64(len(a.PDG.Deps(v)))
		edges += int64(len(a.CFG.Succs(v)))
	}
	defs := int64(len(a.RD.Defs))
	words := (defs + 63) / 64

	const (
		perNode = 320 // cfg.Node + tree/worklist slots + AST statement
		perEdge = 48  // adjacency slice elements across PDG/CDG/CFG
		perDef  = 64  // dataflow.Def index entry
		fixed   = 512 // struct headers of the Analysis and its graphs
	)
	return fixed + n*perNode + edges*perEdge + defs*perDef + n*words*8
}
