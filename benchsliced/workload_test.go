package main

import (
	"context"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
)

// The edit generator's promise: every pool edit and its undo splice
// as one line, yield a parseable program equal to the edited source,
// and land in the tier the edit is meant for.
func TestEditsHitTheirTiers(t *testing.T) {
	seen := map[string]int{}
	for doc := 0; doc < 2; doc++ { // one structured, one unstructured
		s := newSession(3, doc)
		base, err := lang.Parse(s.base.src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(base)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range s.pool {
			src := s.version(i + 1)
			want, err := lang.Parse(src)
			if err != nil {
				t.Fatalf("doc %d edit %d: edited program does not parse: %v", doc, i, err)
			}
			got, ok := incremental.SpliceLine(base, e.line, e.text)
			if !ok {
				t.Fatalf("doc %d edit %d (%q at line %d) does not splice", doc, i, e.text, e.line)
			}
			if lang.Format(got, lang.PrintOptions{}) != lang.Format(want, lang.PrintOptions{}) {
				t.Fatalf("doc %d edit %d: splice and reparse disagree", doc, i)
			}
			b, stats, err := core.ReanalyzeProgram(context.Background(), a, got, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Outcome != e.tier {
				t.Errorf("doc %d edit %d (%q): tier %s, want %s", doc, i, e.text, stats.Outcome, e.tier)
			}
			back, ok := incremental.SpliceLine(got, s.undo[i].line, s.undo[i].text)
			if !ok {
				t.Fatalf("doc %d undo %d does not splice", doc, i)
			}
			_, stats, err = core.ReanalyzeProgram(context.Background(), b, back, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Outcome != e.tier {
				t.Errorf("doc %d undo %d: tier %s, want %s", doc, i, stats.Outcome, e.tier)
			}
			seen[e.tier]++
		}
	}
	for _, tier := range tierOrder {
		if want := int(2*tierShare[tier]*editPool + 0.5); seen[tier] != want {
			t.Errorf("%d %s edits, want %d", seen[tier], tier, want)
		}
	}
}

func TestEditStreamAlternatesAndSettles(t *testing.T) {
	all := []*session{newSession(5, 0), newSession(5, 1), newSession(5, 2), newSession(5, 3)}
	st := editStreamFor(5, "edit-client", all, 1).(*editStream)
	cur := map[int]int{}
	for i := 0; i < 20; i++ {
		r := st.next()
		if r.session != 1 && r.session != 3 {
			t.Fatalf("client 1 edited session %d", r.session)
		}
		if r.from != cur[r.session] {
			t.Fatalf("request %d: from version %d, session is at %d", i, r.from, cur[r.session])
		}
		if (r.from == 0) == (r.to == 0) {
			t.Fatalf("request %d: %d → %d is neither an edit nor its undo", i, r.from, r.to)
		}
		cur[r.session] = r.to
		if settled := cur[1] == 0 && cur[3] == 0; st.settled() != settled {
			t.Fatalf("request %d: settled() = %v, want %v", i, st.settled(), settled)
		}
	}
}

func TestColdVariantsAreDistinctPrograms(t *testing.T) {
	c := newColdCorpus(11)
	seen := map[string]bool{}
	for n := 0; n < 3*coldShapes; n += 7 {
		p := c.variant(n)
		if seen[p.src] {
			t.Fatalf("variant %d repeats an earlier source", n)
		}
		seen[p.src] = true
		if _, err := lang.Parse(p.src); err != nil {
			t.Fatalf("variant %d does not parse: %v", n, err)
		}
	}
	for _, r := range c.warmup() {
		if seen[r.src] {
			t.Fatal("a set-up program is also a timed one")
		}
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	h := newHotCorpus(2)
	a, b := h.stream(2, "hot-client", 0), h.stream(2, "hot-client", 0)
	explain := 0
	for i := 0; i < 2000; i++ {
		ra, rb := a.next(), b.next()
		if ra.key != rb.key || ra.src != rb.src || ra.crit != rb.crit {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		if ra.explain {
			explain++
		}
	}
	if explain < 50 || explain > 150 {
		t.Errorf("%d of 2000 hot-hit requests explain, want about %v%%", explain, 100*hotExplain)
	}
}

func TestHotPopularityAlternatesStyles(t *testing.T) {
	h := newHotCorpus(4)
	for c, rank := range h.rank {
		seen := map[int]bool{}
		for k, i := range rank {
			if i%2 != k%2 {
				t.Fatalf("client %d rank %d is program %d: structured and unstructured programs must alternate", c, k, i)
			}
			seen[i] = true
		}
		if len(seen) != hotPrograms {
			t.Fatalf("client %d's popularity order covers %d of %d programs", c, len(seen), hotPrograms)
		}
	}
	if h.rank[0][0] == h.rank[1][0] && h.rank[0][1] == h.rank[1][1] {
		t.Error("the clients share their hottest programs: each must draw its own order")
	}
}

func TestZipfPopularity(t *testing.T) {
	cdf := zipfCDF(hotPrograms, hotZipfS)
	if cdf[len(cdf)-1] != 1 {
		t.Fatalf("cdf ends at %v, want 1", cdf[len(cdf)-1])
	}
	for k := 1; k < len(cdf); k++ {
		if cdf[k] <= cdf[k-1] {
			t.Fatalf("cdf not increasing at rank %d", k)
		}
	}
	h := newHotCorpus(6)
	st := h.stream(6, "hot-client", 0)
	const n = 20000
	hottest := 0
	for i := 0; i < n; i++ {
		if r := st.next(); r.src == h.progs[h.rank[0][0]].src {
			hottest++
		}
	}
	if got, want := float64(hottest)/n, cdf[0]; got < want-0.02 || got > want+0.02 {
		t.Errorf("hottest program drew %.3f of requests, want %.3f", got, want)
	}
}
